import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbsp import graph as G

import adjacency as A


def complete_negative(n):
    return G.build(n, [(u, v, G.NEG) for u in range(n) for v in range(u + 1, n)])


def random_graph_strategy(max_n=8):
    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        edges = []
        for u, v in pairs:
            kind = draw(st.integers(min_value=0, max_value=3))
            if kind == 1:
                edges.append((u, v, G.POS))
            elif kind == 2:
                edges.append((u, v, G.NEG))
            elif kind == 3:
                edges.append((u, v, G.POS))
                edges.append((u, v, G.NEG))
        return G.build(n, edges)

    return graphs()


def test_build_normalizes_and_counts():
    g = G.build(4, [(2, 0, "+"), (0, 1, "-"), (0, 2, "-")])
    assert g.n == 4
    assert g.m == 3
    assert g.edges == ((0, 1, "-"), (0, 2, "+"), (0, 2, "-"))  # sorted
    # (plus, minus) neighbour bitmasks; pair 02 carries both signs
    assert g.sign_masks == ((0b100, 0b110), (0, 0b001), (0b001, 0b001), (0, 0))


def test_build_lists_the_edge_set_one_way():
    # pairs (u, u + 1) and (u, u + 70), both signs at even u, negative at odd u
    edges = [(u, v, s) for u in range(100) for v in (u + 1, u + 70) if v < 100 for s in "+-"[u % 2 :]]
    shuffled = random.Random(1).sample(edges, len(edges))
    flipped_and_repeated = [(v, u, s) for u, v, s in edges] + edges
    numpy_ids = [(np.int64(u), np.int32(v), s) for u, v, s in shuffled]
    g = G.build(100, sorted(edges))
    assert g.edges == tuple(sorted(edges))
    for other in (shuffled, flipped_and_repeated, numpy_ids):
        h = G.build(np.int64(100), other)
        assert h == g
        assert all(type(x) is int for u, v, _ in h.edges for x in (u, v)) and type(h.n) is int
    # the masks of numpy ids above bit 63 are Python ints with every bit
    h = G.build(100, numpy_ids)
    assert h.sign_masks[0][1] >> 70 & 1 and G.is_balanced(h) is None


def test_build_rejects_ids_that_are_not_integers():
    with pytest.raises(TypeError):
        G.build(3, [(0, 1.0, "+")])
    with pytest.raises(TypeError):
        G.build(3.0, [(0, 1, "+")])


def test_build_rejects_bad_input():
    with pytest.raises(G.GraphError):
        G.build(2, [(0, 0, "+")])
    with pytest.raises(G.GraphError):
        G.build(2, [(0, 2, "+")])
    with pytest.raises(G.GraphError):
        G.build(2, [(0, 1, "x")])
    with pytest.raises(G.GraphError):
        G.build(-2, [])
    # same-sign duplicates collapse silently
    assert G.build(2, [(0, 1, "+"), (1, 0, "+")]).m == 1


def test_switch_flips_cut_edges_only():
    g = G.build(3, [(0, 1, "+"), (1, 2, "-"), (0, 2, "+")])
    h = G.switch(g, {1})
    assert (0, 1) in A.pairs(h, G.NEG)
    assert (1, 2) in A.pairs(h, G.POS)
    assert (0, 2) in A.pairs(h, G.POS)  # both endpoints outside W stay put


def test_switch_involution():
    g = G.build(4, [(0, 1, "+"), (1, 2, "-"), (2, 3, "+"), (0, 3, "-")])
    assert G.switch(G.switch(g, {0, 2}), {0, 2}) == g


def test_induced_subgraph():
    g = G.build(4, [(0, 1, "+"), (1, 2, "-"), (2, 3, "+"), (0, 3, "-")])
    sub, vmap = G.induced(g, {1, 2, 3})
    assert sub.n == 3
    back = {(vmap[u], vmap[v], s) for u, v, s in sub.edges}
    assert back == {(1, 2, "-"), (2, 3, "+")}


def test_negative_part():
    g = G.build(3, [(0, 1, "+"), (1, 2, "-"), (0, 2, "+"), (0, 2, "-")])
    h = G.negative_part(g)
    assert {(u, v) for u, v, _ in h.edges} == {(1, 2), (0, 2)}
    assert all(s == "-" for _, _, s in h.edges)


def test_is_balanced_even_cycle():
    g = G.build(4, [(0, 1, "-"), (1, 2, "-"), (2, 3, "+"), (0, 3, "+")])
    w = G.is_balanced(g)
    assert w is not None
    # W-switch leaves no negative edge
    assert not A.pairs(G.switch(g, w), G.NEG)


def test_is_balanced_rejects_odd_negative_triangle():
    g = G.build(3, [(0, 1, "-"), (1, 2, "-"), (0, 2, "-")])
    assert G.is_balanced(g) is None


def test_is_balanced_rejects_parallel_pair():
    g = G.build(2, [(0, 1, "+"), (0, 1, "-")])
    assert G.is_balanced(g) is None


def test_all_positive_is_balanced_with_empty_witness():
    g = G.build(3, [(0, 1, "+"), (1, 2, "+")])
    assert G.is_balanced(g) == frozenset()


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy())
def test_is_balanced_witness_is_sound(g):
    w = G.is_balanced(g)
    if w is not None:
        assert not A.pairs(G.switch(g, w), G.NEG)


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(max_n=6))
def test_is_balanced_agrees_with_switch_enumeration(g):
    # oracle: balanced iff some switch kills all negative edges
    balanced = any(
        not A.pairs(G.switch(g, set(w)), G.NEG)
        for k in range(g.n + 1)
        for w in itertools.combinations(range(g.n), k)
    )
    assert (G.is_balanced(g) is not None) == balanced


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(), st.data())
def test_cached_structure_matches_edges(g, data):
    # the cached adjacency agrees with a rebuild from edges, also after a
    # pickle round trip
    for h in (g, pickle.loads(pickle.dumps(g))):
        assert h.sign_masks == tuple(
            tuple(sum(1 << v for v, ss in d.items() if s in ss) for s in (G.POS, G.NEG))
            for d in A.signs(h)
        )
    # the subset balance check is the induced-subgraph check, mapped back
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    sub, vmap = G.induced(g, subset)
    w = G.is_balanced(sub)
    expect = None if w is None else frozenset(vmap[i] for i in w)
    assert G.is_balanced(g, subset) == expect


def component_masks(g, subset):
    """Vertex bitmasks of the components of the subgraph induced by subset."""
    sub, vmap = G.induced(g, subset)
    seen, masks = set(), set()
    for root in range(sub.n):
        if root in seen:
            continue
        seen.add(root)
        stack, mask = [root], 0
        while stack:
            u = stack.pop()
            mask |= 1 << vmap[u]
            for v in A.signs(sub)[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        masks.add(mask)
    return masks


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(max_n=10), st.data())
def test_is_balanced_agrees_with_exhaustive_labelling(g, data):
    # oracle: the subset is balanced iff some split of it into two sides is a
    # feasible bipartition; the W returned is such a split, with the lowest
    # vertex of each component of the induced subgraph outside W
    subset = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    w = G.is_balanced(g, subset)
    feasible = any(
        G.is_feasible(g, G.Bipartition(set(subset) - set(side1), side1))
        for k in range(len(subset) + 1)
        for side1 in itertools.combinations(subset, k)
    )
    assert (w is not None) == feasible
    if w is not None:
        assert w <= set(subset)
        assert G.is_feasible(g, G.Bipartition(set(subset) - w, w))
        for mask in component_masks(g, subset):
            assert (mask & -mask).bit_length() - 1 not in w


def test_is_balanced_checks_subset_vertices():
    g = G.build(3, [(0, 1, "+"), (1, 2, "-")])
    for subset in ([-1], [0, 3], [5]):
        with pytest.raises(G.GraphError):
            G.is_balanced(g, subset)
    with pytest.raises(TypeError):
        G.is_balanced(g, [0, 1.0])
    assert G.is_balanced(g, [0, 1, 2]) == frozenset({2})
    # numpy integers are vertices too, also above bit 63
    h = G.build(100, [(0, 70, "-"), (70, 99, "-")])
    assert G.is_balanced(h, np.array([0, 70, 99])) == frozenset({70})


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(), st.data())
def test_attach_accepts_exactly_the_balanced_extensions(g, data):
    # vertices join one at a time, the grown state kept only on success (as
    # lifting and rounding use it): attach succeeds iff the kept prefix plus
    # the vertex is balanced, the sides witness the prefix, and comps are the
    # components of the subgraph it induces
    order = data.draw(st.permutations(range(g.n)))
    state, prefix = (0, 0, ()), []
    for v in order:
        grown = G.attach(g.sign_masks, v, *state)
        assert (grown is not None) == (G.is_balanced(g, prefix + [v]) is not None)
        if grown is None:
            continue
        state = grown
        prefix.append(v)
        s0, s1, comps = state
        assert s0 & s1 == 0 and s0 | s1 == sum(1 << u for u in prefix)
        sides = ({u for u in prefix if side >> u & 1} for side in (s0, s1))
        assert G.is_feasible(g, G.Bipartition(*sides))
        assert len(comps) == len(set(comps))
        assert set(comps) == component_masks(g, prefix)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=300)))
def test_bits_round_trip(vertices):
    mask = sum(1 << v for v in vertices)
    assert G.bits(mask) == sorted(vertices)
    assert sum(1 << v for v in G.bits(mask)) == mask


def _bits_reference(mask):
    """bits as one walk over every binary digit."""
    return [v for v, c in enumerate(reversed(bin(mask))) if c == "1"]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 1000))
@example(0)
@example(1)
@example((1 << 64) - 1)
@example(1 << 64)
@example((1 << 65) | 5)
def test_bits_matches_the_digit_walk(mask):
    assert G.bits(mask) == _bits_reference(mask)


def test_bipartition_validates_disjointness():
    with pytest.raises(G.GraphError):
        G.Bipartition(frozenset({0}), frozenset({0}))


def test_is_feasible():
    g = G.build(4, [(0, 1, "+"), (1, 2, "-"), (2, 3, "+"), (0, 3, "-")])
    assert G.is_feasible(g, G.Bipartition(frozenset({0, 1}), frozenset({2, 3})))
    # negative edge inside one side is infeasible
    assert not G.is_feasible(g, G.Bipartition(frozenset({1, 2}), frozenset()))
    # positive edge across sides is infeasible
    assert not G.is_feasible(g, G.Bipartition(frozenset({0}), frozenset({1})))


def test_is_feasible_rejects_vertices_outside_the_graph():
    g = G.build(3, [(0, 1, "+")])
    assert G.is_feasible(g, G.Bipartition({0, 1}, {2}))
    assert not G.is_feasible(g, G.Bipartition({0, 1, 7}, {-2}))
    assert not G.is_feasible(g, G.Bipartition({0, 1, 3}, set()))
    assert not G.is_feasible(g, G.Bipartition({0}, {-1}))
    assert G.is_feasible(g, G.Bipartition({np.int64(0), np.int64(1)}, {np.int64(2)}))


def test_is_feasible_rejects_parallel_pair_both_selected():
    g = G.build(2, [(0, 1, "+"), (0, 1, "-")])
    assert not G.is_feasible(g, G.Bipartition(frozenset({0, 1}), frozenset()))
    assert not G.is_feasible(g, G.Bipartition(frozenset({0}), frozenset({1})))
    assert G.is_feasible(g, G.Bipartition(frozenset({0}), frozenset()))
