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


def _edge_cost_reference(g, e, strategy, rng):
    """edge_cost before it ran on bitmasks, from the edge-class sets."""
    if strategy is SP.TreeStrategy.KRUSKAL_RANDOM:
        return rng.randint(0, 1000)
    if strategy is SP.TreeStrategy.KRUSKAL_ADAPTIVE:
        n_minus, n_plus = len(g.e_minus), len(g.e_plus)
        below_one = n_plus > 0 and n_minus / n_plus < 1
        strategy = SP.TreeStrategy.KRUSKAL_F1 if below_one else SP.TreeStrategy.KRUSKAL_F2
    cost_pos, cost_neg, cost_par = {"f1": (3, 1, 2), "f2": (1, 2, 3), "f3": (2, 1, 3)}[strategy.value]
    u, v, sign = e
    if (min(u, v), max(u, v)) in g.e_parallel:
        return cost_par
    return cost_pos if sign == "+" else cost_neg


def _spanning_forest_reference(g, strategy, rng=None):
    """spanning_forest before it ran on bitmasks: a cost per edge from the
    edge-class sets, a union-find over every edge in (cost, index) order,
    and BFS/DFS over sorted adjacency lists."""
    if strategy in SP.KRUSKAL_STRATEGIES:
        costed = [(_edge_cost_reference(g, e, strategy, rng), i, e) for i, e in enumerate(g.edges)]
        costed.sort(key=lambda t: (t[0], t[1]))
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        forest = []
        for _, _, e in costed:
            ru, rv = find(e[0]), find(e[1])
            if ru != rv:
                parent[rv] = ru
                forest.append(e)
        return G.SignedGraph(g.n, tuple(sorted(forest)))
    neighbors = [sorted(d) for d in g.signs]
    visited = [False] * g.n
    forest = []

    def take(parent, v):
        visited[v] = True
        if parent is not None:
            sign = "+" if "+" in g.signs[parent][v] else "-"
            forest.append((min(parent, v), max(parent, v), sign))

    for root in range(g.n):
        if visited[root]:
            continue
        if strategy is SP.TreeStrategy.DFS:
            stack = [(None, root)]
            while stack:
                parent, v = stack.pop()
                if visited[v]:
                    continue
                take(parent, v)
                stack.extend((v, w) for w in reversed(neighbors[v]) if not visited[w])
        else:
            take(None, root)
            queue = [root]
            for u in queue:
                for v in neighbors[u]:
                    if not visited[v]:
                        take(u, v)
                        queue.append(v)
    return G.SignedGraph(g.n, tuple(sorted(forest)))


@pytest.mark.parametrize("strategy", list(SP.TreeStrategy))
def test_spanning_forest_matches_the_reference(strategy):
    # connected and disconnected graphs of both groups, the sparsest ones
    # with isolated vertices; the random costs leave the rng where the
    # reference's per-edge draws leave it
    disconnected = 0
    for seed in range(6):
        for n, d in ((30, 0.03), (30, 0.08), (40, 0.3), (60, 0.5)):
            for spec in (
                I.RandomSpec(n, d, seed=seed, neg_ratio=0.5 + seed % 3),
                I.RandomSpec(n, d, seed=seed, parallel_frac=0.25 + 0.25 * (seed % 3)),
            ):
                g = I.generate(spec)
                rng, ref_rng = random.Random(seed), random.Random(seed)
                t = SP.spanning_forest(g, strategy, rng)
                assert t == _spanning_forest_reference(g, strategy, ref_rng)
                assert rng.getstate() == ref_rng.getstate()
                if strategy in SP.KRUSKAL_STRATEGIES:
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    for e in g.edges:  # edge_cost reads the forest's rule
                        assert SP.edge_cost(g, e, strategy, rng) == _edge_cost_reference(g, e, strategy, ref_rng)
                disconnected += t.m < g.n - 1
    assert disconnected >= 12
