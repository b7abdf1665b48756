import importlib
import random

from mbsp import graph as G
from mbsp import instances as I

GR = importlib.import_module("mbsp.grasp")


def test_candidates_respect_signs():
    # 0-1 positive, 1-2 negative, 0-2 parallel
    g = G.build(3, [(0, 1, "+"), (1, 2, "-"), (0, 2, "+"), (0, 2, "-")])
    p = G.Bipartition(frozenset({0}), frozenset())
    side1 = GR.candidates(g, p, 1)
    side2 = GR.candidates(g, p, 2)
    assert 1 in side1 and 1 not in side2  # positive edge wants same side
    assert 2 not in side1 and 2 not in side2  # parallel pair excludes 2 entirely


def test_candidates_negative_edge_crosses():
    g = G.build(2, [(0, 1, "-")])
    p = G.Bipartition(frozenset({0}), frozenset())
    assert GR.candidates(g, p, 1) == set()
    assert GR.candidates(g, p, 2) == {1}


def test_construct_is_feasible_and_maximal():
    for seed in range(10):
        g = I.generate(I.RandomSpec(12, 0.5, seed=seed, neg_ratio=1.0))
        rng = random.Random(seed)
        p = GR.construct(g, rng)
        assert G.is_feasible(g, p)
        assert not GR.candidates(g, p, 1)
        assert not GR.candidates(g, p, 2)


def test_local_search_never_shrinks():
    for seed in range(10):
        g = I.generate(I.RandomSpec(12, 0.5, seed=seed, parallel_frac=0.4))
        p = GR.construct(g, random.Random(seed))
        q = GR.local_search(g, p)
        assert G.is_feasible(g, q)
        assert q.size() >= p.size()


def test_local_search_is_locally_optimal():
    # re-running local search from its own output finds nothing better
    for seed in range(6):
        g = I.generate(I.RandomSpec(11, 0.6, seed=seed, neg_ratio=2.0))
        q = GR.local_search(g, GR.construct(g, random.Random(seed)))
        assert GR.local_search(g, q).size() == q.size()


def test_grasp_feasible_and_deterministic():
    g = I.generate(I.RandomSpec(14, 0.5, seed=5, neg_ratio=1.0))
    params = GR.GraspParams(max_iterations=20, seed=123)
    a = GR.grasp(g, params)
    b = GR.grasp(g, GR.GraspParams(max_iterations=20, seed=123))
    assert G.is_feasible(g, a)
    assert a == b


def test_grasp_matches_brute_force_on_small_instances():
    for seed in range(6):
        for spec in (
            I.RandomSpec(9, 0.5, seed=seed, neg_ratio=1.0),
            I.RandomSpec(9, 0.5, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            opt, _ = I.brute_force(g)
            p = GR.grasp(g, GR.GraspParams(seed=seed))
            assert p.size() <= opt
            assert p.size() >= opt - 1  # heuristic quality floor on tiny instances


def test_grasp_on_balanced_graph_selects_everything():
    g = I.generate_balanced(15, 0.4, seed=2)
    p = GR.grasp(g, GR.GraspParams(max_iterations=30, seed=0))
    assert p.size() == g.n
