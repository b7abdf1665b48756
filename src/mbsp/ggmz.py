"""GGMZ greedy heuristic: forest -> switch set -> maximal stable set."""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass

from .graph import Bipartition, SignedGraph, UnionFind, bits, is_balanced
from .spanning import TreeStrategy, spanning_forest

RCL_ALPHA = 0.3  # RCL width of the degree-greedy construction
MAX_STALL_ITERATIONS = 100  # constructions without improvement before stopping
ALPHA_SEARCH_NODES = 1000  # branch-and-bound nodes of the search for the stability number


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


def _greedy_stable_set(adj, n, rng, deadline=math.inf):
    """Randomized degree-greedy construction of a maximal stable set, over
    neighbour bitmasks adj; returns the set as a bitmask.  The deadline
    (time.monotonic) is read before each pick, and once it has passed the
    set is returned as it stands, stable but not always maximal."""
    alive = (1 << n) - 1
    chosen = 0
    while alive and time.monotonic() < deadline:
        live = bits(alive)
        degree = [(adj[v] & alive).bit_count() for v in live]
        lo, hi = min(degree), max(degree)
        cutoff = lo + RCL_ALPHA * (hi - lo)
        v = rng.choice([v for v, d in zip(live, degree) if d <= cutoff])
        chosen |= 1 << v
        alive &= ~(adj[v] | 1 << v)
    return chosen


def _exchange(adj, full, stable, deadline):
    """The first (1,2)-exchange in ascending (i, a, b) order, or None: drop
    member i, add outsiders a < b that see no other member nor each other;
    also None once the deadline (time.monotonic), read before each i, passes."""
    outside = bits(full & ~stable)
    for i in bits(stable):
        if time.monotonic() >= deadline:
            return None
        rest = stable & ~(1 << i)
        free = sum(1 << v for v in outside if not adj[v] & rest)
        for a in bits(free):
            later = free & ~adj[a] & -(2 << a)  # bits above a
            if later:
                return rest | 1 << a | later & -later
    return None


def _one_two_exchange(adj, n, stable, deadline):
    """Improve by removing one member and adding two non-adjacent outsiders,
    until no exchange is left or the deadline (time.monotonic), read by
    _exchange before each member, passes."""
    full = (1 << n) - 1
    while (better := _exchange(adj, full, stable, deadline)) is not None:
        stable = better
    # maximalize: the exchange may leave room for more vertices
    for v in bits(full & ~stable):
        if not adj[v] & stable:
            stable |= 1 << v
    return stable


def _clique_classes(adj, cand):
    """Greedy cover of the vertex bitmask cand by cliques of adj, each grown
    from its lowest vertex by the lowest common neighbour, in build order."""
    classes = []
    while cand:
        clique = cand & -cand
        rest = adj[clique.bit_length() - 1] & cand
        while rest:
            u = rest & -rest
            clique |= u
            rest &= adj[u.bit_length() - 1]
        cand ^= clique
        classes.append(clique)
    return classes


def _stable_set_bound(adj, n, lower=0, deadline=math.inf):
    """The stability number of the graph with neighbour bitmasks adj, or an
    upper bound on it when the search runs out of nodes or time.

    A vertex of degree <= 1 lies in some maximum stable set, so each one taken
    with its closed neighbourhood deleted counts 1, which is exact on forests.
    The rest is searched by branch and bound for a stable set larger than
    lower, the size of a known stable set: a maximum-clique search on the
    complement (MCQ, Tomita and Seki 2003) over bitmasks (BBMC, San Segundo
    et al. 2011), with the rest relabelled by ascending degree, MCQ's order.
    Each node covers its candidates by _clique_classes, and since a stable
    set meets a clique at most once, a candidate of the k-th clique can
    extend the set by at most k.  After ALPHA_SEARCH_NODES nodes or at the
    deadline (time.monotonic) the search stops and the bound is the peeled
    count plus the number of cliques covering the rest in index order."""
    alive = (1 << n) - 1
    peeled = 0
    taken = True
    while taken:
        taken = False
        for v in bits(alive):
            if alive >> v & 1 and (adj[v] & alive).bit_count() <= 1:
                alive &= ~(adj[v] | 1 << v)
                peeled += 1
                taken = True
    if not alive:
        return peeled
    # relabel the rest: its i-th vertex by ascending degree (ties by index)
    # becomes bit i of the search's masks sub_adj, whose binary digits are
    # picked from those of adj
    order = sorted(bits(alive), key=lambda v: (adj[v] & alive).bit_count())
    digits = operator.itemgetter(*[n - 1 - v for v in reversed(order)])
    sub_adj = [int("".join(digits(f"{adj[v]:0{n}b}")), 2) for v in order]
    rest = (1 << len(order)) - 1
    classes = _clique_classes(sub_adj, rest)
    best = max(lower - peeled, 0)
    # a frame is [set size, candidates, cliques not yet branched on, what is
    # left of the clique being branched on]; the last clique goes first, and
    # each vertex branched on leaves the candidates of its later siblings
    stack = [[0, rest, classes[:], 0]]
    nodes = 0
    while stack and best < len(classes):
        frame = stack[-1]
        size, cand, cliques, left = frame
        if not left and cliques:
            left = cliques.pop()
        if not left or size + len(cliques) + 1 <= best:
            stack.pop()  # no candidate left can beat best
            continue
        if nodes == ALPHA_SEARCH_NODES or time.monotonic() >= deadline:
            return peeled + len(_clique_classes(adj, alive))
        nodes += 1
        v = left & -left
        frame[1] = cand = cand ^ v
        frame[3] = left ^ v
        sub = cand & ~sub_adj[v.bit_length() - 1]
        if sub:
            stack.append([size + 1, sub, _clique_classes(sub_adj, sub), 0])
        else:
            best = max(best, size + 1)
    return peeled + best


def stable_set_grasp(adj, params: StableSetParams, deadline=None) -> set:
    """Maximal stable set of the graph with neighbour bitmasks adj via
    randomized construction plus (1,2)-exchange local search; best kept over
    iterations, until the deadline (time.monotonic; by default the time
    limit from entry).

    After the first construction, _stable_set_bound searches for the
    stability number α, pruning against that construction's size.  The
    iterations stop once the best set reaches α when the search proves it,
    and otherwise the peeling plus clique-cover bound it falls back to;
    since best <= α <= bound, the bound only ends the iterations earlier."""
    n = len(adj)
    rng = random.Random(params.seed)
    if deadline is None:
        deadline = time.monotonic() + params.time_limit_seconds

    def construct():
        return _one_two_exchange(adj, n, _greedy_stable_set(adj, n, rng, deadline), deadline)

    best = construct()
    bound = _stable_set_bound(adj, n, best.bit_count(), deadline)
    stall = 0
    while best.bit_count() < bound and stall < MAX_STALL_ITERATIONS and time.monotonic() < deadline:
        cand = construct()
        if cand.bit_count() > best.bit_count():
            best = cand
            stall = 0
        else:
            stall += 1
    return set(bits(best))


def switched_negative_masks(g: SignedGraph, w) -> list:
    """Neighbour bitmasks of negative_part(switch(g, w)), read from
    g.sign_masks: switching at w flips the sign of each edge with exactly
    one endpoint in w, and a parallel pair stays negative."""
    inside = sum(1 << v for v in w)
    outside = (1 << g.n) - 1 ^ inside
    return [
        minus & inside | plus & outside if inside >> u & 1 else minus & outside | plus & inside
        for u, (plus, minus) in enumerate(g.sign_masks)
    ]


def ggmz(g: SignedGraph, strategy: TreeStrategy | str, params: StableSetParams = None) -> Bipartition:
    """Greedy heuristic: spanning forest, switch to kill its negative edges,
    then a maximal stable set of the remaining negative part.  The time
    limit counts from entry, so the forest and the switch set spend it too.

    The stable set I splits into (I minus W, I intersect W): after switching
    at W the graph restricted to I has only positive edges, so positive edges
    of g inside I join same-label vertices and negative edges cross labels.
    """
    if params is None:
        params = StableSetParams()
    deadline = time.monotonic() + params.time_limit_seconds
    rng = random.Random(params.seed)
    t = spanning_forest(g, strategy, rng)
    w = switch_set_from_forest(t)
    stable = stable_set_grasp(switched_negative_masks(g, w), params, deadline)
    return Bipartition(frozenset(stable - w), frozenset(stable & w))
