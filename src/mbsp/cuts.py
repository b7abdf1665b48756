"""Cuts for the branch-and-cut solver: initial formulation, the four
separation routines, lifting, the cut pool, and the rounding heuristic."""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from .graph import NEG, Bipartition, ParityDSU, SignedGraph

VIOLATION_TOL = 1e-4

PARALLEL_EDGE = "parallel_edge"
ODD_NEG_CYCLE = "odd_neg_cycle"
CLIQUE = "clique"
NEG_CLIQUE = "neg_clique"
LIFTED_ODD_HOLE = "lifted_odd_hole"
LIFTED_CYCLE = "lifted_cycle"


@dataclass(frozen=True)
class Cut:
    """Valid inequality coeffs . y <= rhs over vertex variables."""

    coeffs: tuple  # sorted tuple of (var, coef)
    rhs: float
    kind: str
    support_cycle: tuple = None  # vertex cycle backing cycle-based cuts

    @staticmethod
    def make(coeffs_map, rhs, kind, support_cycle=None):
        coeffs = tuple(sorted(coeffs_map.items()))
        cyc = tuple(support_cycle) if support_cycle is not None else None
        return Cut(coeffs, float(rhs), kind, cyc)

    @property
    def key(self):
        return (self.coeffs, self.rhs)

    def lhs(self, y) -> float:
        return sum(c * y[v] for v, c in self.coeffs)

    def violation(self, y) -> float:
        return self.lhs(y) - self.rhs

    def row(self):
        return (dict(self.coeffs), "<=", self.rhs)


class CutPool:
    """Deduplicated FIFO-bounded store of previously generated cuts."""

    def __init__(self, capacity=50_000):
        self.capacity = capacity
        self._cuts = OrderedDict()  # key -> Cut, insertion-ordered
        # dense (|pool| x n) coefficient matrix, grown incrementally so a
        # scan is a single matrix-vector product
        self._mat = None
        self._rhs = None
        self._rows = 0
        self._stale = True

    def __len__(self):
        return len(self._cuts)

    def __iter__(self):
        return iter(self._cuts.values())

    def add(self, cut: Cut) -> bool:
        if cut.key in self._cuts:
            return False
        self._cuts[cut.key] = cut
        while len(self._cuts) > self.capacity:
            self._cuts.popitem(last=False)
            self._stale = True
        if not self._stale and self._mat is not None:
            self._append_row(cut)
        return True

    def _append_row(self, cut):
        if self._rows == self._mat.shape[0]:
            grown = np.zeros((max(64, 2 * self._rows), self._mat.shape[1]))
            grown[: self._rows] = self._mat[: self._rows]
            self._mat = grown
            self._rhs = np.resize(self._rhs, grown.shape[0])
        row = self._mat[self._rows]
        row[:] = 0.0
        for v, c in cut.coeffs:
            row[v] = c
        self._rhs[self._rows] = cut.rhs
        self._rows += 1

    def _matrix(self, n):
        if self._stale or self._mat is None or self._mat.shape[1] != n:
            self._mat = np.zeros((max(64, len(self._cuts)), n))
            self._rhs = np.zeros(self._mat.shape[0])
            self._rows = 0
            self._stale = False
            for cut in self._cuts.values():
                self._append_row(cut)
        return self._mat[: self._rows], self._rhs[: self._rows]


def scan_pool(pool: CutPool, y, limit=100):
    """Pool cuts violated by the current point, most violated first."""
    if not len(pool):
        return []
    mat, rhs = pool._matrix(len(y))
    viol = mat @ np.asarray(y, dtype=float) - rhs
    idx = np.nonzero(viol > VIOLATION_TOL)[0]
    if not len(idx):
        return []
    order = sorted(idx, key=lambda i: (-viol[i], i))
    cuts = list(pool._cuts.values())
    return [cuts[i] for i in order[:limit]]


def conflict_graph(g: SignedGraph):
    """Adjacency sets of the parallel-pair conflict graph."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.e_parallel:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# initial formulation


def _greedy_clique_cover(adj, min_size=2):
    """Maximal cliques greedily covering every edge of the given graph."""
    n = len(adj)
    covered = set()
    cliques = []
    for u in range(n):
        for v in sorted(adj[u]):
            if u > v or (u, v) in covered:
                continue
            clique = {u, v}
            common = (adj[u] & adj[v]) - clique
            while common:
                w = min(common)
                clique.add(w)
                common = (common & adj[w]) - clique
            if len(clique) >= min_size:
                cliques.append(frozenset(clique))
                for a in clique:
                    for b in clique:
                        if a < b:
                            covered.add((a, b))
    return cliques


def _shortest_odd_walk_unit(adj, start):
    """BFS in the parity double cover; returns a shortest closed walk with an
    odd number of negative edges through start, as (vertices, signs), or
    None."""
    source = (start, 0)
    target = (start, 1)
    prev = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            break
        u, layer = node
        for v, signs in adj[u].items():
            for s in sorted(signs):
                nxt = (v, layer ^ (1 if s == NEG else 0))
                if nxt not in prev:
                    prev[nxt] = (node, s)
                    queue.append(nxt)
    if target not in prev:
        return None
    walk = []  # list of (vertex, sign of edge to the next vertex)
    node = target
    while prev[node] is not None:
        parent, s = prev[node]
        walk.append((node[0], s))
        node = parent
    walk.reverse()
    # walk[i] = (vertex reached, sign used); rebuild as vertex/sign sequence
    vertices = [start] + [v for v, _ in walk]
    signs = [s for _, s in walk]
    return vertices, signs


def _reduce_to_simple_odd_cycle(vertices, signs, odd_fn):
    """Reduce a closed odd walk to a simple closed odd cycle.

    vertices has length k+1 with vertices[0] == vertices[-1]; signs[i] labels
    the edge vertices[i]-vertices[i+1].  odd_fn maps a sign list to its
    parity.  Splices out even sub-walks; keeps odd sub-walks.
    """
    while True:
        k = len(vertices) - 1
        seen = {}
        dup = None
        for i in range(k):
            if vertices[i] in seen:
                dup = (seen[vertices[i]], i)
                break
            seen[vertices[i]] = i
        if dup is None:
            return vertices[:-1], signs
        i, j = dup
        sub_v = vertices[i : j + 1]
        sub_s = signs[i:j]
        if odd_fn(sub_s):
            vertices = sub_v  # already closed: sub_v[0] == sub_v[-1]
            signs = sub_s
        else:
            vertices = vertices[:i] + vertices[j:]
            signs = signs[:i] + signs[j:]


def _odd_neg(signs):
    return sum(1 for s in signs if s == NEG) % 2 == 1


def _cycle_cut(cycle) -> Cut:
    # a length-2 cycle is a parallel pair: y_u + y_v <= 1
    return Cut.make(
        {v: 1.0 for v in cycle}, len(cycle) - 1, ODD_NEG_CYCLE, support_cycle=cycle
    )


def _canonical_cycle(cycle):
    """Rotate/reflect so the listing starts at the minimum vertex and the
    smaller neighbor follows; gives a stable dedup key."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    fwd = [cycle[(i + t) % k] for t in range(k)]
    bwd = [cycle[(i - t) % k] for t in range(k)]
    return tuple(min(fwd, bwd))


def initial_formulation(g: SignedGraph):
    """Seed cuts: clique cover of the conflict graph, one short odd negative
    cycle per vertex, and maximal negative cliques.  Returns a list of Cut."""
    cuts = []
    emitted = set()

    def push(cut):
        if cut.key not in emitted:
            emitted.add(cut.key)
            cuts.append(cut)

    # (a) cliques covering every parallel pair
    conf = conflict_graph(g)
    for clique in _greedy_clique_cover(conf, min_size=2):
        members = sorted(clique)
        if len(members) == 2:
            u, v = members
            push(Cut.make({u: 1.0, v: 1.0}, 1.0, PARALLEL_EDGE))
        else:
            push(Cut.make({v: 1.0 for v in members}, 1.0, CLIQUE))

    # (b) one shortest odd negative closed walk per vertex, capped at 2n rows
    cycle_rows = 0
    seen_cycles = set()
    for v in range(g.n):
        if cycle_rows >= 2 * g.n:
            break
        found = _shortest_odd_walk_unit(g.signs, v)
        if found is None:
            continue
        vertices, signs = found
        cycle, _ = _reduce_to_simple_odd_cycle(vertices, signs, _odd_neg)
        if len(cycle) < 3:
            continue  # parallel pair, already covered by (a)
        key = _canonical_cycle(cycle)
        if key in seen_cycles:
            continue
        seen_cycles.add(key)
        push(_cycle_cut(list(key)))
        cycle_rows += 1

    # (c) maximal cliques of size >= 3 in the negative-edge graph
    neg_adj = [{v for v, ss in nbrs.items() if NEG in ss} for nbrs in g.signs]
    for clique in _greedy_clique_cover(neg_adj, min_size=3):
        push(Cut.make({v: 1.0 for v in sorted(clique)}, 2.0, NEG_CLIQUE))

    return cuts


# ---------------------------------------------------------------------------
# separation


def _dijkstra_odd_walk(n, arcs, start, cutoff):
    """Min-weight odd closed walk through start in the parity double cover.

    Nodes are v*2 + layer; arcs[u] lists (v, parity_bit, weight, sign).
    Paths of weight >= cutoff are abandoned.
    """
    inf = float("inf")
    source = start * 2
    target = start * 2 + 1
    dist = [inf] * (2 * n)
    prev = [None] * (2 * n)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        if node == target:
            break
        u, layer = divmod(node, 2)
        base = d
        for v, bit, w, s in arcs[u]:
            nd = base + w
            if nd >= cutoff:
                continue
            nxt = v * 2 + (layer ^ bit)
            if nd < dist[nxt] - 1e-15:
                dist[nxt] = nd
                prev[nxt] = (node, s)
                heapq.heappush(heap, (nd, nxt))
    if dist[target] == inf:
        return None
    walk = []
    node = target
    while prev[node] is not None:
        parent, s = prev[node]
        walk.append((node // 2, s))
        node = parent
    walk.reverse()
    vertices = [start] + [v for v, _ in walk]
    signs = [s for _, s in walk]
    return dist[target], vertices, signs


def separate_odd_negative_cycle(g: SignedGraph, y, limit=100):
    """Exact separation of odd negative cycle inequalities.

    Two-layer auxiliary graph, edge weight (2 - y_u - y_v)/2; a closed odd
    walk of weight < 1 certifies a violated cycle after reduction to a simple
    cycle of no larger weight.
    """
    arcs = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        w = max(0.0, (2.0 - y[u] - y[v]) / 2.0)
        bit = 1 if s == NEG else 0
        arcs[u].append((v, bit, w, s))
        arcs[v].append((u, bit, w, s))
    for lst in arcs:
        lst.sort()
    cutoff = 1.0 - VIOLATION_TOL

    found = {}
    for v in range(g.n):
        # any closed walk through v weighs at least 1 - y_v
        if y[v] <= VIOLATION_TOL:
            continue
        res = _dijkstra_odd_walk(g.n, arcs, v, cutoff)
        if res is None:
            continue
        d, vertices, signs = res
        if d >= 1.0 - VIOLATION_TOL:
            continue
        cycle, _ = _reduce_to_simple_odd_cycle(vertices, signs, _odd_neg)
        key = _canonical_cycle(cycle)
        if key in found:
            continue
        cut = _cycle_cut(list(key))
        if cut.violation(y) > VIOLATION_TOL:
            found[key] = cut
    cuts = sorted(found.values(), key=lambda c: (-c.violation(y), c.coeffs))
    return cuts[:limit]


def separate_clique(g: SignedGraph, y, conf=None, limit=100):
    """Heuristic clique separation on the parallel-pair conflict graph."""
    if conf is None:
        conf = conflict_graph(g)
    order = sorted(range(g.n), key=lambda v: (-y[v], v))
    found = {}
    for seed in order:
        if not conf[seed]:
            continue
        clique = {seed}
        common = set(conf[seed])
        while common:
            w = max(sorted(common), key=lambda v: y[v])
            clique.add(w)
            common = (common & conf[w]) - clique
        total = sum(y[v] for v in clique)
        if total > 1.0 + VIOLATION_TOL:
            cut = Cut.make({v: 1.0 for v in sorted(clique)}, 1.0, CLIQUE)
            found[cut.key] = cut
    cuts = sorted(found.values(), key=lambda c: (-c.violation(y), c.coeffs))
    return cuts[:limit]


def _odd_length(signs):
    return len(signs) % 2 == 1


def separate_lifted_odd_hole(g: SignedGraph, y, limit=100):
    """Heuristic lifted odd hole separation on the conflict graph."""
    conf = conflict_graph(g)
    if not any(conf):
        return []
    # reuse the double-cover walk machinery: every conflict edge flips parity
    arcs = [[] for _ in range(g.n)]
    for u in range(g.n):
        for v in sorted(conf[u]):
            arcs[u].append((v, 1, max(0.0, 1.0 - y[u] - y[v]), NEG))

    found = {}
    for v in range(g.n):
        if not conf[v]:
            continue
        res = _dijkstra_odd_walk(g.n, arcs, v, 1.0 - VIOLATION_TOL)
        if res is None:
            continue
        d, vertices, signs = res
        if d >= 1.0 - VIOLATION_TOL:
            continue
        cycle, _ = _reduce_to_simple_odd_cycle(vertices, signs, _odd_length)
        cycle = _shortcut_chords(conf, cycle)
        key = _canonical_cycle(cycle)
        if key in found:
            continue
        base = Cut.make(
            {u: 1.0 for u in key}, (len(key) - 1) / 2.0, LIFTED_ODD_HOLE
        )
        lifted = _sequential_lift(g, base, LIFTED_ODD_HOLE)
        if lifted.violation(y) > VIOLATION_TOL:
            found[key] = lifted
    cuts = sorted(found.values(), key=lambda c: (-c.violation(y), c.coeffs))
    return cuts[:limit]


def _shortcut_chords(conf, cycle):
    """Shortcut chords until the odd cycle is chordless (an odd hole)."""
    while len(cycle) > 3:
        k = len(cycle)
        pos = {v: i for i, v in enumerate(cycle)}
        chord = None
        for i, u in enumerate(cycle):
            for w in conf[u]:
                j = pos.get(w)
                if j is None:
                    continue
                if (j - i) % k in (1, k - 1):
                    continue  # cycle edge, not a chord
                chord = (min(i, j), max(i, j))
                break
            if chord:
                break
        if chord is None:
            return cycle
        i, j = chord
        side_a = cycle[i : j + 1]  # path i..j plus chord closes it
        side_b = cycle[j:] + cycle[: i + 1]
        cycle = side_a if len(side_a) % 2 == 1 else side_b
    return cycle


# ---------------------------------------------------------------------------
# lifting


LIFT_BUDGET = 1 << 14


def _max_weight_balanced_subset(signs, vertices, weights, required, budget=LIFT_BUDGET):
    """max sum(weights[v] for v in S) over balanced S ⊆ vertices, required ∈ S.

    Depth-first enumeration with parity-DSU feasibility pruning and an
    optimistic remaining-weight bound.  Returns (best, exhausted_budget).
    """
    order = [required] + sorted((v for v in vertices if v != required), key=lambda v: -weights.get(v, 0.0))
    pos_suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        w = weights.get(order[i], 0.0)
        pos_suffix[i] = pos_suffix[i + 1] + max(w, 0.0)

    best = float("-inf")
    counter = [0]

    def feasible_add(dsu, selected, v):
        for u in selected:
            ss = signs[u].get(v)
            if ss is None:
                continue
            if len(ss) == 2:
                return False
            if not dsu.union(u, v, 1 if NEG in ss else 0):
                return False
        return True

    def dfs(i, dsu, selected, total):
        nonlocal best
        counter[0] += 1
        if counter[0] > budget:
            return False
        if total + pos_suffix[i] <= best:
            return True
        if i == len(order):
            best = max(best, total)
            return True
        v = order[i]
        # include v
        trial = dsu.copy()
        if feasible_add(trial, selected, v):
            selected.append(v)
            if not dfs(i + 1, trial, selected, total + weights.get(v, 0.0)):
                selected.pop()
                return False
            selected.pop()
        if i == 0:
            return True  # the required vertex must be included
        return dfs(i + 1, dsu, selected, total)

    completed = dfs(0, ParityDSU(), [], 0.0)
    return best, not completed


def _sequential_lift(g: SignedGraph, cut: Cut, lifted_kind: str) -> Cut:
    """Sequentially lift vertices adjacent to >= 2 support vertices.

    alpha_v = rhs - z*, z* the best current-cut LHS over balanced subsets of
    the support plus v that contain v.  Candidates in decreasing adjacency to
    the support, ties by index; budget exhaustion skips the candidate.
    """
    neighbor_count = {}
    support = {v for v, _ in cut.coeffs}
    for u, v, _ in g.edges:
        if u in support and v not in support:
            neighbor_count[v] = neighbor_count.get(v, 0) + 1
        elif v in support and u not in support:
            neighbor_count[u] = neighbor_count.get(u, 0) + 1
    candidates = sorted(
        (v for v, c in neighbor_count.items() if c >= 2),
        key=lambda v: (-neighbor_count[v], v),
    )
    if not candidates:
        return cut

    coeffs = dict(cut.coeffs)
    for v in candidates:
        verts = set(coeffs) | {v}
        z_star, exhausted = _max_weight_balanced_subset(g.signs, verts, coeffs, v)
        if exhausted:
            continue
        alpha = cut.rhs - (z_star if z_star > float("-inf") else 0.0)
        if alpha > 1e-9:
            coeffs[v] = alpha
    if len(coeffs) == len(cut.coeffs):
        return cut
    return Cut.make(coeffs, cut.rhs, lifted_kind, support_cycle=cut.support_cycle)


def lift_odd_negative_cycle(g: SignedGraph, cut: Cut) -> Cut:
    """Lift an odd negative cycle inequality with |C| <= 20."""
    if cut.support_cycle is None or len(cut.support_cycle) > 20:
        return cut
    lifted = _sequential_lift(g, cut, LIFTED_CYCLE)
    return lifted


# ---------------------------------------------------------------------------
# rounding heuristic


def rounding_heuristic(g: SignedGraph, y) -> Bipartition:
    """Greedy rounding: vertices in decreasing y, accepted when their sign
    constraints against the already accepted vertices stay consistent.

    Side membership is tracked as a parity relation (union-find), not as a
    fixed side choice per vertex; this recovers every balanced integral point
    exactly.  The first vertex of each component lands on side 1.  A single
    pass is maximal: the constraint set only grows.
    """
    order = sorted(range(g.n), key=lambda v: (-y[v], v))
    dsu = ParityDSU()
    placed = []
    for v in order:
        trial = dsu.copy()
        ok = True
        for u in placed:
            pair = g.signs[v].get(u)
            if pair is None:
                continue
            if len(pair) == 2:
                ok = False
                break
            if not trial.union(u, v, 1 if NEG in pair else 0):
                ok = False
                break
        if ok:
            dsu = trial
            dsu.find(v)  # materialize isolated vertices
            placed.append(v)
    v1, v2 = set(), set()
    for v in placed:
        _, parity = dsu.find(v)
        (v1 if parity == 0 else v2).add(v)
    return Bipartition(frozenset(v1), frozenset(v2))
