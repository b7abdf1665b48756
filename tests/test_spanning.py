import random
import time

import pytest

from mbsp import graph as G
from mbsp import instances as I
from mbsp import spanning as SP


def forest_pairs(t):
    return {(u, v) for u, v, _ in t.edges}


def components(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


SAMPLE = G.build(
    6,
    [
        (0, 1, "+"),
        (0, 1, "-"),
        (1, 2, "-"),
        (2, 3, "+"),
        (3, 4, "-"),
        (0, 4, "+"),
        (1, 5, "-"),
        (2, 5, "+"),
    ],
)


@pytest.mark.parametrize("strategy", list(SP.TreeStrategy))
def test_spanning_forest_is_spanning_acyclic(strategy):
    rng = random.Random(7)
    t = SP.spanning_forest(SAMPLE, strategy, rng)
    pairs = forest_pairs(t)
    base = components(SAMPLE.n, {(u, v) for u, v, _ in SAMPLE.edges})
    assert len(pairs) == SAMPLE.n - base  # tree edge count per component
    assert components(SAMPLE.n, pairs) == base
    assert pairs <= {(u, v) for u, v, _ in SAMPLE.edges}


def test_all_strategies_scale_to_dense_graphs():
    # group 2, n = 200, d = 0.5: m = 12438 signed edges; Kruskal costs each
    # edge once, so every forest stays far below quadratic time
    g = I.generate(I.RandomSpec(200, 0.5, seed=1, parallel_frac=0.25))
    start = time.perf_counter()
    for strategy in SP.TreeStrategy:
        t = SP.spanning_forest(g, strategy, random.Random(0))
        assert t.m == g.n - 1  # dense enough to be connected
    assert time.perf_counter() - start < 10.0


def test_forest_on_disconnected_graph():
    g = G.build(5, [(0, 1, "+"), (3, 4, "-")])
    t = SP.spanning_forest(g, SP.TreeStrategy.BFS)
    assert forest_pairs(t) == {(0, 1), (3, 4)}


def test_fixed_cost_tables():
    # cost order is (positive, negative, parallel) per strategy
    g = G.build(2, [(0, 1, "+"), (0, 1, "-")])
    pos = G.build(2, [(0, 1, "+")])
    neg = G.build(2, [(0, 1, "-")])
    for strategy, expected in [
        (SP.TreeStrategy.KRUSKAL_F1, (3, 1, 2)),
        (SP.TreeStrategy.KRUSKAL_F2, (1, 2, 3)),
        (SP.TreeStrategy.KRUSKAL_F3, (2, 1, 3)),
    ]:
        assert SP.edge_cost(pos, pos.edges[0], strategy, None) == expected[0]
        assert SP.edge_cost(neg, neg.edges[0], strategy, None) == expected[1]
        assert SP.edge_cost(g, g.edges[0], strategy, None) == expected[2]


def test_random_costs_in_range_and_seeded():
    rng = random.Random(3)
    costs = [SP.edge_cost(SAMPLE, e, SP.TreeStrategy.KRUSKAL_RANDOM, rng) for e in SAMPLE.edges]
    assert all(0 <= c <= 1000 for c in costs)
    rng2 = random.Random(3)
    assert costs == [SP.edge_cost(SAMPLE, e, SP.TreeStrategy.KRUSKAL_RANDOM, rng2) for e in SAMPLE.edges]


def test_adaptive_picks_by_sign_ratio():
    mostly_pos = G.build(3, [(0, 1, "+"), (1, 2, "+"), (0, 2, "-")])
    mostly_neg = G.build(3, [(0, 1, "-"), (1, 2, "-"), (0, 2, "+")])
    e = mostly_pos.edges[0]  # a positive edge
    assert SP.edge_cost(mostly_pos, e, SP.TreeStrategy.KRUSKAL_ADAPTIVE, None) == 3  # f1
    e = mostly_neg.edges[2]  # the positive edge
    assert SP.edge_cost(mostly_neg, e, SP.TreeStrategy.KRUSKAL_ADAPTIVE, None) == 1  # f2


def test_f1_prefers_negative_edges():
    # f1 ranks negatives cheapest, so the tree takes the negative triangle edges
    g = G.build(3, [(0, 1, "+"), (1, 2, "-"), (0, 2, "-")])
    t = SP.spanning_forest(g, SP.TreeStrategy.KRUSKAL_F1)
    assert forest_pairs(t) == {(1, 2), (0, 2)}


def test_f2_prefers_positive_edges():
    g = G.build(3, [(0, 1, "+"), (0, 2, "+"), (1, 2, "-")])
    t = SP.spanning_forest(g, SP.TreeStrategy.KRUSKAL_F2)
    assert forest_pairs(t) == {(0, 1), (0, 2)}


def test_bfs_and_dfs_differ_on_a_cycle():
    # path vs star distinction on C4 rooted at 0
    g = G.build(4, [(0, 1, "+"), (1, 2, "+"), (2, 3, "+"), (0, 3, "+")])
    bfs = forest_pairs(SP.spanning_forest(g, SP.TreeStrategy.BFS))
    dfs = forest_pairs(SP.spanning_forest(g, SP.TreeStrategy.DFS))
    assert bfs == {(0, 1), (0, 3), (1, 2)}
    assert dfs == {(0, 1), (1, 2), (2, 3)}


def test_from_token():
    assert SP.TreeStrategy("bfs") is SP.TreeStrategy.BFS
    assert SP.TreeStrategy("adaptive") is SP.TreeStrategy.KRUSKAL_ADAPTIVE
    with pytest.raises(ValueError):
        SP.TreeStrategy("nope")
