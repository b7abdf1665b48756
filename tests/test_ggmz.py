import itertools
import random

import pytest

import importlib

GZ = importlib.import_module("mbsp.ggmz")
from mbsp import graph as G
from mbsp import instances as I
from mbsp import spanning as SP

ALL_STRATEGIES = list(SP.TreeStrategy)


def max_stable_set_size(adj, n):
    best = 0
    for k in range(n, 0, -1):
        for sub in itertools.combinations(range(n), k):
            ss = set(sub)
            if all(not (adj[u] & ss) for u in ss):
                return k
    return best


def test_switch_set_makes_tree_positive():
    t = G.build(5, [(0, 1, "-"), (1, 2, "+"), (2, 3, "-"), (1, 4, "-")])
    w = GZ.switch_set_from_forest(t)
    assert not G.switch(t, w).e_minus


def test_switch_set_on_forest_with_isolated_vertices():
    t = G.build(6, [(0, 1, "-"), (3, 4, "-")])
    w = GZ.switch_set_from_forest(t)
    assert not G.switch(t, w).e_minus


def test_switch_set_rejects_cyclic_input():
    # a parallel pair is a cycle of two edges
    for edges in ([(0, 1, "+"), (1, 2, "+"), (0, 2, "+")], [(0, 1, "+"), (0, 1, "-")]):
        with pytest.raises(ValueError):
            GZ.switch_set_from_forest(G.build(3, edges))


def _switch_set_reference(t):
    """DFS labelling of each tree from its lowest vertex: a vertex joins W
    iff its parent's label XOR the edge being negative is 1."""
    label = [None] * t.n
    for root in range(t.n):
        if label[root] is not None:
            continue
        label[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, ss in t.signs[u].items():
                if label[v] is None:
                    label[v] = label[u] ^ (G.NEG in ss)
                    stack.append(v)
    return frozenset(v for v in range(t.n) if label[v] == 1)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_switch_set_matches_dfs_reference(strategy):
    for seed in range(8):
        for spec in (
            I.RandomSpec(12 + seed, 0.1 + 0.1 * seed, seed=seed, neg_ratio=1.0),
            I.RandomSpec(12 + seed, 0.1 + 0.1 * seed, seed=seed, parallel_frac=0.5),
        ):
            t = SP.spanning_forest(I.generate(spec), strategy, random.Random(seed))
            assert GZ.switch_set_from_forest(t) == _switch_set_reference(t)


@pytest.mark.parametrize("limit", [float("nan"), 0.0, -1.0])
def test_params_reject_a_time_limit_that_is_not_positive(limit):
    with pytest.raises(ValueError):
        GZ.StableSetParams(time_limit_seconds=limit)


def test_stable_set_grasp_is_stable_and_maximal():
    for seed in range(5):
        g = I.generate(I.RandomSpec(12, 0.5, seed=seed, neg_ratio=1.0))
        h = G.negative_part(g)
        s = GZ.stable_set_grasp(h, GZ.StableSetParams(seed=seed))
        pairs = {(u, v) for u, v, _ in h.edges}
        for u, v in itertools.combinations(sorted(s), 2):
            assert (u, v) not in pairs
        # maximal: every outside vertex sees the set
        adj = [set() for _ in range(h.n)]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        for v in range(h.n):
            if v not in s:
                assert adj[v] & s, f"{v} could be added"


def test_stable_set_grasp_finds_optimum_on_small_graphs():
    for seed in range(8):
        g = I.generate(I.RandomSpec(9, 0.6, seed=seed, neg_ratio=1.0))
        h = G.negative_part(g)
        adj = [set() for _ in range(h.n)]
        for u, v, _ in h.edges:
            adj[u].add(v)
            adj[v].add(u)
        opt = max_stable_set_size(adj, h.n)
        got = len(GZ.stable_set_grasp(h, GZ.StableSetParams(seed=seed)))
        assert got == opt


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_ggmz_output_is_feasible(strategy):
    for seed in range(4):
        for spec in (
            I.RandomSpec(14, 0.5, seed=seed, neg_ratio=1.0),
            I.RandomSpec(14, 0.5, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            p = GZ.ggmz(g, strategy, GZ.StableSetParams(seed=seed))
            assert G.is_feasible(g, p)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_ggmz_solves_balanced_instances_exactly(strategy):
    for seed in range(3):
        g = I.generate_balanced(25, 0.4, seed=seed)
        p = GZ.ggmz(g, strategy, GZ.StableSetParams(seed=seed))
        assert p.size() == g.n


def test_ggmz_deterministic_per_seed():
    g = I.generate(I.RandomSpec(16, 0.5, seed=3, neg_ratio=2.0))
    a = GZ.ggmz(g, SP.TreeStrategy.KRUSKAL_RANDOM, GZ.StableSetParams(seed=9))
    b = GZ.ggmz(g, SP.TreeStrategy.KRUSKAL_RANDOM, GZ.StableSetParams(seed=9))
    assert a == b


def _greedy_stable_set_reference(adj, n, rng, alpha):
    """Degree-greedy construction that recounts every live degree per pick."""
    alive = set(range(n))
    degree = {v: len(adj[v] & alive) for v in alive}
    chosen = []
    while alive:
        lo = min(degree[v] for v in alive)
        hi = max(degree[v] for v in alive)
        rcl = sorted(v for v in alive if degree[v] <= lo + alpha * (hi - lo))
        v = rng.choice(rcl)
        chosen.append(v)
        alive -= (adj[v] & alive) | {v}
        for u in alive:
            degree[u] = len(adj[u] & alive)
    return set(chosen)


def mask_adjacency(h):
    return [plus | minus for plus, minus in h.sign_masks]


def test_greedy_stable_set_matches_recounting_reference():
    for seed in range(20):
        g = I.generate(I.RandomSpec(30, 0.3, seed=seed, neg_ratio=1.0))
        h = G.negative_part(g)
        adj = [set(nbrs) for nbrs in h.signs]
        for draw in range(5):
            got = set(G.bits(GZ._greedy_stable_set(mask_adjacency(h), g.n, random.Random(draw))))
            want = _greedy_stable_set_reference(adj, g.n, random.Random(draw), 0.3)
            assert got == want


def _one_two_exchange_reference(adj, n, stable):
    """(1,2)-exchange on sets: the first exchange of the nested scan over
    members i, then free outsiders a < b, until none is left; then
    maximalize in ascending order."""
    stable = set(stable)
    improved = True
    while improved:
        improved = False
        outside = [v for v in range(n) if v not in stable]
        for i in sorted(stable):
            rest = stable - {i}
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
    for v in range(n):
        if v not in stable and not (adj[v] & stable):
            stable.add(v)
    return stable


def test_one_two_exchange_matches_set_reference():
    # about 40 graphs of both groups; starts from the greedy and from
    # non-maximal stable sets, where exchanges are plentiful
    for seed in range(20):
        for spec in (
            I.RandomSpec(16 + seed % 10, 0.2 + 0.1 * (seed % 5), seed=seed, neg_ratio=1.0),
            I.RandomSpec(16 + seed % 10, 0.2 + 0.1 * (seed % 5), seed=seed, parallel_frac=0.4),
        ):
            h = G.negative_part(I.generate(spec))
            adj = [set(nbrs) for nbrs in h.signs]
            masks = mask_adjacency(h)
            greedy = GZ._greedy_stable_set(masks, h.n, random.Random(seed))
            for start in (greedy, sum(1 << v for v in G.bits(greedy)[::2])):
                got = set(G.bits(GZ._one_two_exchange(masks, h.n, start)))
                assert got == _one_two_exchange_reference(adj, h.n, set(G.bits(start)))
