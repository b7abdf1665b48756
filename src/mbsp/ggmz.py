"""GGMZ greedy heuristic: forest -> switch set -> maximal stable set."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .graph import Bipartition, SignedGraph, UnionFind, bits, is_balanced, negative_part, switch
from .spanning import TreeStrategy, spanning_forest

RCL_ALPHA = 0.3  # RCL width of the degree-greedy construction
MAX_STALL_ITERATIONS = 100  # constructions without improvement before stopping


@dataclass
class StableSetParams:
    time_limit_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self):
        if not self.time_limit_seconds > 0:  # also rejects NaN
            raise ValueError(f"time_limit_seconds must be positive, got {self.time_limit_seconds}")


def switch_set_from_forest(t: SignedGraph) -> frozenset:
    """Switch set W making the forest t all-positive; the lowest vertex of
    each tree stays out of W.  A forest is always balanced, so W is the
    switch set of its balance test."""
    components = UnionFind(t.n)
    if not all(components.union(u, v) for u, v, _ in t.edges):
        raise ValueError("input has a cycle; expected a forest")
    return is_balanced(t)


def _greedy_stable_set(adj, n, rng):
    """Randomized degree-greedy construction of a maximal stable set, over
    neighbour bitmasks adj; returns the set as a bitmask."""
    alive = (1 << n) - 1
    chosen = 0
    while alive:
        live = bits(alive)
        degree = [(adj[v] & alive).bit_count() for v in live]
        lo, hi = min(degree), max(degree)
        cutoff = lo + RCL_ALPHA * (hi - lo)
        v = rng.choice([v for v, d in zip(live, degree) if d <= cutoff])
        chosen |= 1 << v
        alive &= ~(adj[v] | 1 << v)
    return chosen


def _exchange(adj, full, stable):
    """The first (1,2)-exchange in ascending (i, a, b) order, or None: drop
    member i, add outsiders a < b that see no other member nor each other."""
    outside = bits(full & ~stable)
    for i in bits(stable):
        rest = stable & ~(1 << i)
        free = sum(1 << v for v in outside if not adj[v] & rest)
        for a in bits(free):
            later = free & ~adj[a] & -(2 << a)  # bits above a
            if later:
                return rest | 1 << a | later & -later
    return None


def _one_two_exchange(adj, n, stable, deadline):
    """Improve by removing one member and adding two non-adjacent outsiders,
    until no exchange is left or the deadline (time.monotonic) passes."""
    full = (1 << n) - 1
    while time.monotonic() < deadline and (better := _exchange(adj, full, stable)) is not None:
        stable = better
    # maximalize: the exchange may leave room for more vertices
    for v in bits(full & ~stable):
        if not adj[v] & stable:
            stable |= 1 << v
    return stable


def _stable_set_bound(adj, n):
    """Upper bound on the stability number of the graph with neighbour
    bitmasks adj.  A vertex of degree <= 1 lies in some maximum stable set,
    so each one taken with its closed neighbourhood deleted counts 1, which
    is exact on forests; a greedy clique cover of the rest adds one per
    clique, since a stable set meets a clique at most once."""
    alive = (1 << n) - 1
    bound = 0
    taken = True
    while taken:
        taken = False
        for v in bits(alive):
            if alive >> v & 1 and (adj[v] & alive).bit_count() <= 1:
                alive &= ~(adj[v] | 1 << v)
                bound += 1
                taken = True
    while alive:
        clique = alive & -alive
        rest = adj[clique.bit_length() - 1] & alive
        while rest:
            u = rest & -rest
            clique |= u
            rest &= adj[u.bit_length() - 1]
        alive &= ~clique
        bound += 1
    return bound


def stable_set_grasp(h: SignedGraph, params: StableSetParams) -> set:
    """Maximal stable set of h (signs ignored) via randomized construction
    plus (1,2)-exchange local search; best kept over iterations, which stop
    once the best set is as large as _stable_set_bound."""
    adj = [plus | minus for plus, minus in h.sign_masks]
    rng = random.Random(params.seed)
    deadline = time.monotonic() + params.time_limit_seconds
    bound = _stable_set_bound(adj, h.n)
    best = stall = 0
    while stall < MAX_STALL_ITERATIONS and time.monotonic() < deadline:
        cand = _one_two_exchange(adj, h.n, _greedy_stable_set(adj, h.n, rng), deadline)
        if cand.bit_count() > best.bit_count():
            best = cand
            stall = 0
        else:
            stall += 1
        if best.bit_count() == bound:  # best is maximum
            break
    return set(bits(best))


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
