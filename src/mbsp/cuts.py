"""Cuts for the branch-and-cut solver: initial formulation, the three
separation routines, lifting, the cut pool, and the rounding heuristic."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import NEG, Bipartition, SignedGraph, attach, bits

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


class CutPool:
    """Every distinct cut added so far, in the order added.  A cut's row
    index in the pool is its name in the exact search.

    Each cut's dense row is stored once, in one (rows x n) matrix that
    doubles as it fills: a scan is a single matrix-vector product, and the
    solver's LP rows are the pool's own.
    """

    def __init__(self, n):
        self._index = {}  # key -> matrix row
        self._cuts = []  # the cut of each matrix row
        self._mat = np.zeros((64, n))
        self._rhs = np.zeros(64)

    def __len__(self):
        return len(self._cuts)

    def __getitem__(self, i) -> Cut:
        return self._cuts[i]

    def add(self, cut: Cut) -> int:
        """The row of cut: a new one, or the stored row of its key's cut."""
        i = self._index.get(cut.key)
        if i is not None:
            return i
        i = len(self._cuts)
        if i == len(self._mat):
            self._mat = np.concatenate([self._mat, np.zeros_like(self._mat)])
            self._rhs = np.concatenate([self._rhs, np.zeros_like(self._rhs)])
        for v, c in cut.coeffs:
            self._mat[i, v] = c
        self._rhs[i] = cut.rhs
        self._index[cut.key] = i
        self._cuts.append(cut)
        return i

    def dense(self, rows):
        """The coefficient arrays and rhs of rows (an index list or slice)."""
        return self._mat[rows], self._rhs[rows]

    def violations(self, rows, y):
        """lhs - rhs at y of rows (an index list or slice), in one product."""
        return self._mat[rows] @ np.asarray(y, dtype=float) - self._rhs[rows]


def scan_pool(pool: CutPool, y, limit=100):
    """The list of rows violated at y, most violated first (ties by age)."""
    viol = pool.violations(slice(len(pool)), y)
    idx = np.nonzero(viol > VIOLATION_TOL)[0]
    order = idx[np.lexsort((idx, -viol[idx]))]
    return order[:limit].tolist()


def _most_violated(cuts, y, limit):
    """The cuts violated at y, most violated first, at most limit.

    Distinct cycles can give equal cuts (two odd holes that lift to the same
    coefficients); only the first cut per key is kept.
    """
    violated = {}
    for c in cuts:
        if c.key not in violated:
            viol = c.violation(y)
            if viol > VIOLATION_TOL:
                violated[c.key] = (viol, c)
    ranked = sorted(violated.values(), key=lambda vc: (-vc[0], vc[1].coeffs))
    return [c for _, c in ranked[:limit]]


def _grow_clique(adj, clique, common, order=None):
    """Grow the clique (a vertex bitmask) of the graph with neighbour
    bitmasks adj, whose common neighbours are common, to a maximal one,
    adding the common neighbour that comes first in order (lowest index by
    default), which must list every vertex that can join."""
    ranked = None if order is None else iter(order)
    while common:
        if ranked is None:
            w = (common & -common).bit_length() - 1
        else:  # common only shrinks: the scan goes on where it stopped
            w = next(v for v in ranked if common >> v & 1)
        clique |= 1 << w
        common &= adj[w]
    return clique


# ---------------------------------------------------------------------------
# initial formulation


def _greedy_clique_cover(adj, min_size=2):
    """Maximal cliques, as vertex bitmasks, greedily covering every edge of
    the graph with neighbour bitmasks adj; those under min_size vertices
    are dropped and cover nothing."""
    covered = [0] * len(adj)  # covered[u]: the v with uv in a kept clique
    cliques = []
    for u, nbrs in enumerate(adj):
        todo = nbrs & -(2 << u)  # the neighbours above u
        while todo := todo & ~covered[u]:
            low = todo & -todo
            todo ^= low
            clique = _grow_clique(adj, 1 << u | low, nbrs & adj[low.bit_length() - 1])
            if clique.bit_count() >= min_size:
                cliques.append(clique)
                for v in bits(clique):
                    covered[v] |= clique
    return cliques


# Walks in the parity double cover are lists of nodes v*2 + layer; an edge
# with an odd number of negative signs changes the layer.  An odd closed walk
# through s runs from node s*2 to node s*2 + 1.


def _double_cover_arcs(g: SignedGraph, y):
    """arcs[u] lists (v, parity_bit, weight), one per signed edge uv, with
    the separation's weight (2 - y_u - y_v)/2 at y, clipped at 0."""
    arcs = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        w = max(0.0, (2.0 - y[u] - y[v]) / 2.0)
        bit = int(s == NEG)
        arcs[u].append((v, bit, w))
        arcs[v].append((u, bit, w))
    return arcs


def _trace_back(prev, node):
    """The walk from the search's source to node, following prev links."""
    walk = [node]
    while prev[node] is not None:
        node = prev[node]
        walk.append(node)
    return walk[::-1]


def _simple_odd_cycle(walk):
    """Reduce a closed odd walk to a simple odd cycle, listed as vertices.

    The sub-walk between two visits of a vertex is odd iff the visits lie in
    different layers: odd sub-walks are kept, even ones spliced out.
    """
    while True:
        seen = {}
        for j, node in enumerate(walk[:-1]):
            i = seen.setdefault(node // 2, j)
            if i != j:
                break
        else:
            return [node // 2 for node in walk[:-1]]
        if (walk[i] ^ walk[j]) & 1:
            walk = walk[i : j + 1]
        else:
            walk = walk[:i] + walk[j:]


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
    cycle per vertex, and maximal negative cliques.  Returns a list of Cut,
    the first cut per key.

    The cuts depend only on n and the edge set, not on the edges' order.
    """
    cuts = {}

    def add(cut):
        cuts.setdefault(cut.key, cut)

    # (a) cliques covering every parallel pair
    conf = [plus & minus for plus, minus in g.sign_masks]
    for clique in _greedy_clique_cover(conf, min_size=2):
        kind = PARALLEL_EDGE if clique.bit_count() == 2 else CLIQUE
        add(Cut.make(dict.fromkeys(bits(clique), 1.0), 1.0, kind))

    # (b) one shortest odd negative closed walk per vertex, reduced to a
    # simple cycle; a cycle of length 2 is a parallel pair, which (a) covers.
    # A vertex with a parallel pair has that pair as its walk, so it is not
    # searched.  At y = 0 every edge weighs 1, so the separation's search,
    # with no cutoff and so no Floyd–Warshall bounds, finds a walk of fewest
    # edges.
    arcs = _double_cover_arcs(g, [0.0] * g.n)
    for v in range(g.n):
        walk = None if conf[v] else _dijkstra_odd_walk(g.n, arcs, v, math.inf)
        if walk is not None and len(cycle := _simple_odd_cycle(walk)) >= 3:
            add(_cycle_cut(_canonical_cycle(cycle)))

    # (c) maximal cliques of size >= 3 in the negative-edge graph
    for clique in _greedy_clique_cover([minus for _, minus in g.sign_masks], min_size=3):
        add(Cut.make(dict.fromkeys(bits(clique), 1.0), 2.0, NEG_CLIQUE))

    return list(cuts.values())


# ---------------------------------------------------------------------------
# separation


def _dijkstra_odd_walk(n, arcs, start, cutoff, togo=None):
    """Min-weight odd closed walk through start in the parity double cover,
    or None.

    arcs[u] lists (v, parity_bit, weight).  Paths of weight >= cutoff are
    abandoned, so a walk found weighs less than cutoff.  togo[node], when
    given, is the weight of the shortest walk from node to the target
    start*2 + 1 through the vertices that every walk under the cutoff stays
    in (_odd_walk_bounds); a node reached at a distance d with
    d + togo[node] >= cutoff + 1e-9 lies on no walk under the cutoff and is
    not pushed.  With cutoff inf and no togo the search is unpruned.

    The heap pops by (distance, node), and a node keeps the first
    predecessor that reaches it at its distance.  So when each node's arcs
    reach distinct nodes, as those of a signed graph do, the walk found does
    not depend on the order of the arcs.
    """
    inf = float("inf")
    source = start * 2
    target = start * 2 + 1
    if togo is None:
        togo = [0.0] * (2 * n)
    limit = cutoff + 1e-9
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
        for v, bit, w in arcs[u]:
            nd = d + w
            if nd >= cutoff:
                continue
            nxt = v * 2 + (layer ^ bit)
            if nd < dist[nxt] - 1e-15 and nd + togo[nxt] < limit:
                dist[nxt] = nd
                prev[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    if dist[target] == inf:
        return None
    return _trace_back(prev, target)


def _odd_walk_bounds(n, arcs, vertices):
    """Shortest-walk weights in the parity double cover of the arcs between
    vertices: dist[a, b] for the double-cover nodes a, b = v*2 + layer of
    vertices, inf where no such walk exists or a or b lies outside vertices.

    dist[v*2, v*2 + 1] is the weight of the min-weight odd closed walk
    through v that stays inside vertices.  One Floyd–Warshall pass.
    """
    index = {v: i for i, v in enumerate(vertices)}
    tails, heads, weights = [], [], []
    for i, u in enumerate(vertices):
        for v, bit, w in arcs[u]:
            j = index.get(v)
            if j is None:
                continue
            for layer in (0, 1):
                tails.append(i * 2 + layer)
                heads.append(j * 2 + (layer ^ bit))
                weights.append(w)
    dist = np.full((2 * len(vertices), 2 * len(vertices)), np.inf)
    np.minimum.at(dist, (tails, heads), weights)
    np.fill_diagonal(dist, 0.0)
    for t in range(len(dist)):
        np.minimum(dist, dist[:, t, None] + dist[t], out=dist)
    nodes = (2 * np.asarray(vertices, dtype=int)[:, None] + [0, 1]).ravel()
    full = np.full((2 * n, 2 * n), np.inf)
    full[np.ix_(nodes, nodes)] = dist
    return full


def _odd_cycles(n, arcs, starts, vertices, simplify=None):
    """Simple odd cycles of weight < 1 - VIOLATION_TOL, canonically listed,
    each once: the min-weight odd closed walk through each start, reduced to
    a simple cycle and passed through simplify.

    vertices must hold every vertex of every odd closed walk under the
    cutoff.  Their Floyd–Warshall distances (_odd_walk_bounds) skip the
    starts that have no such walk and, in each Dijkstra search, the nodes
    that lie on none; the search still finds each walk, so the cycles are
    those of an unpruned search from every start.
    """
    cutoff = 1.0 - VIOLATION_TOL
    dist = _odd_walk_bounds(n, arcs, vertices)
    seen = set()
    for v in starts:
        togo = dist[:, v * 2 + 1]
        # the slack covers the two searches' different order of summation
        if togo[v * 2] >= cutoff + 1e-9:
            continue
        walk = _dijkstra_odd_walk(n, arcs, v, cutoff, togo.tolist())
        if walk is None:
            continue
        cycle = _simple_odd_cycle(walk)
        if simplify is not None:
            cycle = simplify(cycle)
        key = _canonical_cycle(cycle)
        if key not in seen:
            seen.add(key)
            yield key


def separate_odd_negative_cycle(g: SignedGraph, y, limit=100):
    """Exact separation of odd negative cycle inequalities.

    Two-layer auxiliary graph, edge weight (2 - y_u - y_v)/2; a closed odd
    walk of weight < 1 certifies a violated cycle after reduction to a simple
    cycle of no larger weight.
    """
    arcs = _double_cover_arcs(g, y)
    # Any closed walk through u weighs at least 1 - y_u - e, where
    # e = max(0, max(y) - 1) is how far LP values exceed 1: its two arcs at u
    # weigh at least (2 - y_u - y_w)/2 >= (1 - y_u - e)/2 each, and no arc
    # weighs less than 0.  So a walk under the cutoff 1 - VIOLATION_TOL
    # passes only vertices with y_u > VIOLATION_TOL - e; the searches start
    # from those with y_u > VIOLATION_TOL.
    e = max(0.0, max(y, default=0.0) - 1.0)
    vertices = [u for u in range(g.n) if y[u] > VIOLATION_TOL - e - 1e-9]
    starts = (u for u in vertices if y[u] > VIOLATION_TOL)
    cuts = (_cycle_cut(key) for key in _odd_cycles(g.n, arcs, starts, vertices))
    return _most_violated(cuts, y, limit)


def separate_clique(g: SignedGraph, y, limit=100):
    """Heuristic clique separation on the parallel-pair conflict graph: from
    each seed, the clique grown by the neighbour of highest y (then lowest
    index)."""
    conf = [plus & minus for plus, minus in g.sign_masks]
    seeds = sorted((v for v in range(g.n) if conf[v]), key=lambda v: (-y[v], v))
    cliques = {_grow_clique(conf, 1 << v, conf[v], seeds) for v in seeds}
    cuts = (Cut.make(dict.fromkeys(bits(clique), 1.0), 1.0, CLIQUE) for clique in cliques)
    return _most_violated(cuts, y, limit)


def separate_lifted_odd_hole(g: SignedGraph, y, limit=100):
    """Heuristic lifted odd hole separation on the conflict graph."""
    conf = [plus & minus for plus, minus in g.sign_masks]
    vertices = [v for v in range(g.n) if conf[v]]
    if not vertices:
        return []
    # the double-cover walk search again: every conflict edge flips parity
    arcs = [[(v, 1, max(0.0, 1.0 - y[u] - y[v])) for v in bits(conf[u])] for u in range(g.n)]
    holes = _odd_cycles(g.n, arcs, vertices, vertices, lambda cycle: _shortcut_chords(conf, cycle))
    # the hole's cyclic order goes to lifting as an argument: a cut's
    # support_cycle is what cycle branching branches on
    cuts = (
        _sequential_lift(g, Cut.make({u: 1.0 for u in h}, (len(h) - 1) / 2.0, LIFTED_ODD_HOLE), LIFTED_ODD_HOLE, h)
        for h in holes
    )
    return _most_violated(cuts, y, limit)


def _shortcut_chords(conf, cycle):
    """Shortcut chords until the odd cycle is chordless (an odd hole): the
    first cycle vertex's, to its lowest end in the neighbour bitmasks conf."""
    while len(cycle) > 3:
        k = len(cycle)
        on_cycle = sum(1 << v for v in cycle)
        for i, u in enumerate(cycle):
            # u's neighbours on the cycle but for its two cycle edges
            ends = conf[u] & on_cycle & ~(1 << cycle[i - 1] | 1 << cycle[(i + 1) % k])
            if ends:
                j = cycle.index((ends & -ends).bit_length() - 1)
                i, j = min(i, j), max(i, j)
                break
        else:
            return cycle
        side_a = cycle[i : j + 1]  # path i..j plus chord closes it
        side_b = cycle[j:] + cycle[: i + 1]
        cycle = side_a if len(side_a) % 2 == 1 else side_b
    return cycle


# ---------------------------------------------------------------------------
# lifting


LIFT_BUDGET = 1 << 14


def _max_weight_balanced_subset(
    masks, vertices, weights, required, budget=LIFT_BUDGET, cap=float("inf")
):
    """max sum(weights[v] for v in S) over balanced S ⊆ vertices, required ∈ S.

    Depth-first enumeration over the sides and components of the selected
    set (graph.attach on masks = SignedGraph.sign_masks) with an optimistic
    remaining-weight bound.  Returns (best, exhausted_budget).  The search
    stops at the first best >= cap and returns it, not exhausted.
    """
    order = [required] + sorted((v for v in vertices if v != required), key=lambda v: -weights.get(v, 0.0))
    w_order = [weights.get(v, 0.0) for v in order]
    pos_suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        pos_suffix[i] = pos_suffix[i + 1] + max(w_order[i], 0.0)

    best = float("-inf")
    counter = [0]

    def dfs(i, s0, s1, comps, total):
        nonlocal best
        if best >= cap:
            return True  # unwinds without a further count or step
        counter[0] += 1
        if counter[0] > budget:
            return False
        if total + pos_suffix[i] <= best:
            return True
        if i == len(order):
            best = max(best, total)
            return True
        # include order[i]
        grown = attach(masks, order[i], s0, s1, comps)
        if grown is not None and not dfs(i + 1, *grown, total + w_order[i]):
            return False
        if i == 0:
            return True  # the required vertex must be included
        return dfs(i + 1, s0, s1, comps, total)

    completed = dfs(0, 0, 0, (), 0.0)
    return best, not completed


def _witnesses(masks, cycle, weights, cap):
    """Balanced subsets of the cycle whose weight reaches cap, as attach
    states (s0, s1, comps), one per distinct vertex set.

    From each rotation of the cycle, its vertices are attached greedily in
    cyclic order until the weight reaches cap.
    """
    found = {}
    for i in range(len(cycle)):
        state, total = (0, 0, ()), 0.0
        for v in cycle[i:] + cycle[:i]:
            grown = attach(masks, v, *state)
            if grown is None:
                continue
            state, total = grown, total + weights[v]
            if total >= cap:
                found.setdefault(state[0] | state[1], state)
                break
    return list(found.values())


def _sequential_lift(g: SignedGraph, cut: Cut, lifted_kind: str, cycle) -> Cut:
    """Sequentially lift vertices adjacent to >= 2 support vertices of the
    cut, whose support is the vertex cycle `cycle`.

    alpha_v = rhs - z*, z* the best current-cut LHS over balanced subsets of
    the support plus v that contain v.  Candidates by decreasing number of
    support neighbors, ties by index; budget exhaustion skips the candidate.
    The cut is valid and v weighs 0, so z* <= rhs: each search stops once
    it reaches rhs - 1e-9, where alpha can no longer pass the 1e-9 test.
    A candidate that attaches to a witness (a balanced support subset of
    weight >= rhs - 1e-9) has such a z* already and is skipped unsearched,
    as the search would skip it.
    """
    masks = g.sign_masks
    support = near = 0
    for s, _ in cut.coeffs:
        support |= 1 << s
        near |= masks[s][0] | masks[s][1]
    neighbor_count = {
        v: ((masks[v][0] | masks[v][1]) & support).bit_count() for v in bits(near & ~support)
    }
    candidates = sorted(
        (v for v, c in neighbor_count.items() if c >= 2),
        key=lambda v: (-neighbor_count[v], v),
    )
    if not candidates:
        return cut

    coeffs = dict(cut.coeffs)
    cap = cut.rhs - 1e-9
    witnesses = _witnesses(masks, cycle, coeffs, cap)
    for v in candidates:
        if any(attach(masks, v, *w) is not None for w in witnesses):
            continue
        verts = set(coeffs) | {v}
        z_star, exhausted = _max_weight_balanced_subset(masks, verts, coeffs, v, cap=cap)
        if exhausted:
            continue
        alpha = cut.rhs - z_star  # a completed search has counted {v}: z* >= 0
        if alpha > 1e-9:
            coeffs[v] = alpha
    if len(coeffs) == len(cut.coeffs):
        return cut
    return Cut.make(coeffs, cut.rhs, lifted_kind, support_cycle=cut.support_cycle)


def lift_odd_negative_cycle(g: SignedGraph, cut: Cut) -> Cut:
    """Lift an odd negative cycle inequality with |C| <= 20."""
    if cut.support_cycle is None or len(cut.support_cycle) > 20:
        return cut
    return _sequential_lift(g, cut, LIFTED_CYCLE, cut.support_cycle)


# ---------------------------------------------------------------------------
# rounding heuristic


def rounding_heuristic(g: SignedGraph, y) -> Bipartition:
    """Greedy rounding: vertices in decreasing y, accepted when the accepted
    set stays balanced (graph.attach).

    Only the relative sides within a component are fixed, not a side per
    vertex; this recovers every balanced integral point exactly.  Each
    component's lowest vertex lands on side 1, as in is_balanced.  A single
    pass is maximal: the constraint set only grows.
    """
    state = (0, 0, ())
    for v in sorted(range(g.n), key=lambda v: (-y[v], v)):
        state = attach(g.sign_masks, v, *state) or state
    s0, s1, comps = state
    # swap each component whose lowest bit (c & -c) is on side 1
    flip = sum(c for c in comps if c & -c & s1)  # components are disjoint
    v1 = (s0 & ~flip) | (s1 & flip)
    v2 = (s0 | s1) & ~v1
    return Bipartition(bits(v1), bits(v2))
