"""GGMZ greedy heuristic: forest -> switch set -> maximal stable set."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .graph import NEG, Bipartition, SignedGraph, negative_part, switch
from .spanning import TreeStrategy, spanning_forest


@dataclass
class StableSetParams:
    max_stall_iterations: int = 100
    time_limit_seconds: float = 300.0
    seed: int = 0
    alpha: float = 0.3  # RCL width for the degree-greedy construction

    def __post_init__(self):
        if self.max_stall_iterations <= 0 or self.time_limit_seconds <= 0:
            raise ValueError("limits must be positive")


def switch_set_from_forest(t: SignedGraph) -> frozenset:
    """Switch set W making the forest t all-positive.

    Roots each tree at its lowest-index vertex; a child joins W iff its label
    (parent label XOR edge-is-negative) is 1.  Iterative, so path graphs of
    any length are fine.
    """
    label = [None] * t.n
    components = 0
    for root in range(t.n):
        if label[root] is not None:
            continue
        components += 1
        label[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, ss in t.signs[u].items():
                if label[v] is None:
                    label[v] = label[u] ^ (NEG in ss)
                    stack.append(v)
    if t.m != t.n - components:
        raise ValueError("input has a cycle; expected a forest")
    return frozenset(v for v in range(t.n) if label[v] == 1)


def _greedy_stable_set(adj, n, rng, alpha):
    """Randomized degree-greedy construction of a maximal stable set."""
    alive = set(range(n))
    degree = {v: len(adj[v]) for v in alive}  # live neighbours
    chosen = []
    while alive:
        lo = min(degree[v] for v in alive)
        hi = max(degree[v] for v in alive)
        cutoff = lo + alpha * (hi - lo)
        rcl = sorted(v for v in alive if degree[v] <= cutoff)
        v = rng.choice(rcl)
        chosen.append(v)
        removed = (adj[v] & alive) | {v}
        alive -= removed
        for w in removed:
            for u in adj[w] & alive:
                degree[u] -= 1
    return set(chosen)


def _one_two_exchange(adj, n, stable):
    """Improve by removing one member and adding two non-adjacent outsiders."""
    stable = set(stable)
    improved = True
    while improved:
        improved = False
        outside = [v for v in range(n) if v not in stable]
        for i in sorted(stable):
            rest = stable - {i}
            # outsiders compatible with everything except possibly i
            free = [v for v in outside if not (adj[v] & rest)]
            for a_idx in range(len(free)):
                a = free[a_idx]
                for b in free[a_idx + 1 :]:
                    if b not in adj[a]:
                        stable = rest | {a, b}
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    # maximalize: the exchange may leave room for more vertices
    for v in range(n):
        if v not in stable and not (adj[v] & stable):
            stable.add(v)
    return stable


def stable_set_grasp(h: SignedGraph, params: StableSetParams) -> set:
    """Maximal stable set of h (signs ignored) via randomized construction
    plus (1,2)-exchange local search; best kept over iterations."""
    adj = [set(nbrs) for nbrs in h.signs]
    rng = random.Random(params.seed)
    deadline = time.monotonic() + params.time_limit_seconds
    best = set()
    stall = 0
    while stall < params.max_stall_iterations and time.monotonic() < deadline:
        cand = _greedy_stable_set(adj, h.n, rng, params.alpha)
        cand = _one_two_exchange(adj, h.n, cand)
        if len(cand) > len(best):
            best = cand
            stall = 0
        else:
            stall += 1
        if len(best) == h.n:
            break
    return best


def ggmz(g: SignedGraph, strategy: TreeStrategy, params: StableSetParams = None) -> Bipartition:
    """Greedy heuristic: spanning forest, switch to kill its negative edges,
    then a maximal stable set of the remaining negative part.

    The stable set I splits into (I minus W, I intersect W): after switching
    at W the graph restricted to I has only positive edges, so positive edges
    of g inside I join same-label vertices and negative edges cross labels.
    """
    if params is None:
        params = StableSetParams()
    rng = random.Random(params.seed)
    t = spanning_forest(g, strategy, rng)
    w = switch_set_from_forest(t)
    h = negative_part(switch(g, w))
    stable = stable_set_grasp(h, params)
    return Bipartition(frozenset(stable - w), frozenset(stable & w))
