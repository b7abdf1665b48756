"""Signed graph core: representation, switching, and balance detection."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property

POS = "+"
NEG = "-"
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # bin()'s digits as bytes 0/1, for bits


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class SignedGraph:
    """Undirected signed graph on vertices 0..n-1.

    Parallel edges are allowed only as a +/- pair on the same vertex pair;
    loops are rejected.  build lists each edge set one way, so == is graph
    equality.  Instances are immutable and safe to share between solver runs.
    """

    n: int
    edges: tuple  # the sorted edge set: (u, v, sign) with int ids u < v

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sign_masks(self) -> tuple:
        """sign_masks[u] = (plus, minus): bit v of plus (minus) is set when
        uv carries a positive (negative) edge.

        The graph's one adjacency: plus & minus is the conflict graph of the
        parallel pairs, and minus the negative graph.
        """
        plus, minus = [0] * self.n, [0] * self.n
        for u, v, s in self.edges:
            side = plus if s == POS else minus
            side[u] |= 1 << v
            side[v] |= 1 << u
        return tuple(zip(plus, minus))


def build(n, edge_list) -> SignedGraph:
    """The SignedGraph with the edges (u, v, sign), stored as their sorted
    set with u < v whatever the input's order.  n and the ids go through
    operator.index (numpy integers become ints, a float raises TypeError);
    loops, ids outside 0..n-1 and bad signs raise GraphError."""
    n = operator.index(n)
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    edges = set()
    for u, v, s in edge_list:
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise GraphError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex out of range in edge ({u},{v})")
        if s not in (POS, NEG):
            raise GraphError(f"bad sign {s!r}")
        if u > v:
            u, v = v, u
        edges.add((u, v, s))
    return SignedGraph(n, tuple(sorted(edges)))


def switch(g: SignedGraph, w) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in w."""
    w = set(w)
    edges = []
    for u, v, s in g.edges:
        if (u in w) != (v in w):
            s = NEG if s == POS else POS
        edges.append((u, v, s))
    return build(g.n, edges)


def induced(g: SignedGraph, s) -> tuple:
    """Subgraph induced by vertex set s, relabeled to 0..|s|-1.

    Returns (subgraph, vertex_map) where vertex_map[i] is the original
    identity of subgraph vertex i.
    """
    vmap = sorted(s)
    index = {v: i for i, v in enumerate(vmap)}
    edges = ((index[u], index[v], sg) for u, v, sg in g.edges if u in index and v in index)
    return build(len(vmap), edges), vmap


def negative_part(g: SignedGraph) -> SignedGraph:
    """Keep exactly the negative edges (one per negative pair)."""
    return build(g.n, (e for e in g.edges if e[2] == NEG))


def _vertex_mask(n, vertices) -> int:
    """The bitmask of vertices (numpy ints too); GraphError outside 0..n-1."""
    mask = 0
    for v in map(operator.index, vertices):
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n = {n}")
        mask |= 1 << v
    return mask


def is_balanced(g: SignedGraph, subset=None):
    """Return a switch set W with switch(g, W) all-positive, or None.

    With a vertex subset, tests the subgraph induced by it instead and
    returns W within the subset.  A graph is balanced iff it has no parallel
    pair and no cycle with an odd number of negative edges.  BFS over the
    sign bitmasks per component from its lowest vertex, which goes on side
    0: a positive neighbour joins u's side and a negative one the other.
    """
    inside = (1 << g.n) - 1 if subset is None else _vertex_mask(g.n, subset)
    masks = g.sign_masks
    sides = [0, 0]  # the labelled vertices on side 0 and side 1
    left = inside  # not labelled yet
    while left:
        root = left & -left
        left ^= root
        sides[0] |= root
        queue = [root.bit_length() - 1]
        for u in queue:  # grows as it is read
            plus, minus = masks[u]
            plus &= inside
            minus &= inside
            here = 0 if sides[0] >> u & 1 else 1
            if plus & minus or plus & sides[1 - here] or minus & sides[here]:
                return None
            sides[here] |= plus & left
            sides[1 - here] |= minus & left
            fresh = (plus | minus) & left
            left ^= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                queue.append(low.bit_length() - 1)
    return frozenset(bits(sides[1]))


def bits(mask) -> list:
    """The vertices of a vertex bitmask, ascending, picked by its binary digits as bytes 0/1."""
    return list(itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)))


def attach(masks, v, s0, s1, comps):
    """Add v to the balanced set with sides s0, s1 and component masks
    comps (vertex bitmasks; masks = SignedGraph.sign_masks).

    Returns the grown (s0, s1, comps) with v on side 0 and every component
    whose constraints require it swapped, or None when no swap makes the
    set with v balanced.  A selected vertex joined to v by a parallel pair
    is in both stay and swap, so it rejects v.
    """
    plus, minus = masks[v]
    stay = (plus & s0) | (minus & s1)  # neighbours already where v needs them
    swap = (plus & s1) | (minus & s0)
    if stay & swap:
        return None
    bit = 1 << v
    merged, flip = bit, 0
    rest = []
    for c in comps:
        if c & swap:
            if c & stay:
                return None
            flip |= c
        elif not c & stay:
            rest.append(c)
            continue
        merged |= c
    rest.append(merged)
    return (s0 & ~flip) | (s1 & flip) | bit, (s1 & ~flip) | (s0 & flip), tuple(rest)


class UnionFind:
    """Union-find over the vertices 0..n-1, for plain connectivity."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class Bipartition:
    """A feasible MBSP solution: disjoint sides (v1, v2).  The ids go
    through operator.index, as in build: numpy integers become ints."""

    v1: frozenset = field(default_factory=frozenset)
    v2: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "v1", frozenset(map(operator.index, self.v1)))
        object.__setattr__(self, "v2", frozenset(map(operator.index, self.v2)))
        if self.v1 & self.v2:
            raise GraphError("bipartition sides must be disjoint")

    @property
    def selected(self) -> frozenset:
        return self.v1 | self.v2

    def size(self) -> int:
        return len(self.v1) + len(self.v2)


def is_feasible(g: SignedGraph, p: Bipartition) -> bool:
    """Check that (v1, v2) witnesses a balanced induced subgraph of g: both
    sides lie in 0..n-1, no negative edge joins two vertices of one side and
    no positive edge joins the sides (so no parallel pair is fully selected)."""
    try:
        s1, s2 = _vertex_mask(g.n, p.v1), _vertex_mask(g.n, p.v2)
    except GraphError:
        return False
    masks = g.sign_masks
    for members, here, there in ((p.v1, s1, s2), (p.v2, s2, s1)):
        for v in members:
            plus, minus = masks[v]
            if minus & here or plus & there:
                return False
    return True
