import importlib
import random
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsp import graph as G
from mbsp import instances as I

import adjacency as A

GR = importlib.import_module("mbsp.grasp")


def _open_sides(g, p):
    """GRASP's open vertices of solution p, as the sets (side 1, side 2)."""
    c1, c2 = GR._open(GR._state(g.sign_masks, p.v1, p.v2), (1 << g.n) - 1)
    return set(G.bits(c1)), set(G.bits(c2))


def _is_maximal(g, p):
    adj = A.signs(g)
    return not _candidates_reference(adj, p, 1) and not _candidates_reference(adj, p, 2)


def test_candidates_respect_signs():
    # 0-1 positive, 1-2 negative, 0-2 parallel
    g = G.build(3, [(0, 1, "+"), (1, 2, "-"), (0, 2, "+"), (0, 2, "-")])
    p = G.Bipartition(frozenset({0}), frozenset())
    side1, side2 = _open_sides(g, p)
    assert 1 in side1 and 1 not in side2  # positive edge wants same side
    assert 2 not in side1 and 2 not in side2  # parallel pair excludes 2 entirely


def test_candidates_negative_edge_crosses():
    g = G.build(2, [(0, 1, "-")])
    p = G.Bipartition(frozenset({0}), frozenset())
    assert _open_sides(g, p) == (set(), {1})


def test_construct_is_feasible_and_maximal():
    for seed in range(10):
        g = I.generate(I.RandomSpec(12, 0.5, seed=seed, neg_ratio=1.0))
        rng = random.Random(seed)
        p = GR.construct(g, rng)
        assert G.is_feasible(g, p)
        assert _is_maximal(g, p)


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


def test_local_search_takes_numpy_vertex_ids():
    # a numpy id becomes an int in the Bipartition, so bitmasks past bit 63 work
    g = I.generate(I.RandomSpec(100, 0.05, seed=1, neg_ratio=1.0))
    p = G.Bipartition({np.int64(70)}, set())
    assert [type(v) for v in p.v1] == [int]
    want = GR.local_search(g, G.Bipartition({70}, set()))
    assert GR.local_search(g, p) == want and G.is_feasible(g, want)


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


# ---------------------------------------------------------------------------
# set-based reference: the GRASP steps written on Bipartition sets, with one
# admissibility scan of adj = adjacency.signs(g) per candidate test


def _admissible_reference(adj, p, i, side):
    same, other = (p.v1, p.v2) if side == 1 else (p.v2, p.v1)
    for j, ss in adj[i].items():
        if (j in same and G.NEG in ss) or (j in other and G.POS in ss):
            return False
    return True


def _candidates_reference(adj, p, side):
    sel = p.selected
    return {i for i in range(len(adj)) if i not in sel and _admissible_reference(adj, p, i, side)}


def _maximalize_reference(adj, p):
    v1, v2 = set(p.v1), set(p.v2)
    current = G.Bipartition(frozenset(v1), frozenset(v2))
    while True:
        c1 = _candidates_reference(adj, current, 1)
        c2 = _candidates_reference(adj, current, 2)
        if not c1 and not c2:
            return current
        i = min(c1 | c2)
        (v1 if i in c1 else v2).add(i)
        current = G.Bipartition(frozenset(v1), frozenset(v2))


def _construct_reference(adj, rng):
    v1, v2 = set(), set()
    while True:
        p = G.Bipartition(frozenset(v1), frozenset(v2))
        c1 = _candidates_reference(adj, p, 1)
        c2 = _candidates_reference(adj, p, 2)
        sides = [w for w, c in ((1, c1), (2, c2)) if c]
        if not sides:
            return p
        w = rng.choice(sides)
        (v1 if w == 1 else v2).add(rng.choice(sorted(c1 if w == 1 else c2)))


def _neighbors_removing_reference(adj, p, removed, side):
    v1, v2 = set(p.v1), set(p.v2)
    (v1 if side == 1 else v2).difference_update(removed)
    base = G.Bipartition(frozenset(v1), frozenset(v2))
    c_same = _candidates_reference(adj, base, side)
    c_other = _candidates_reference(adj, base, 3 - side)
    out = []
    for j in sorted(c_same | c_other):
        w1, w2 = set(v1), set(v2)
        if j in c_same:
            (w1 if side == 1 else w2).add(j)
        else:
            (w2 if side == 1 else w1).add(j)
        out.append(_maximalize_reference(adj, G.Bipartition(frozenset(w1), frozenset(w2))))
    return out


def _local_search_reference(adj, p):
    current = _maximalize_reference(adj, p)
    while True:
        best = current
        for side in (1, 2):
            for i in sorted(current.v1 if side == 1 else current.v2):
                for q in _neighbors_removing_reference(adj, current, {i}, side):
                    if q.size() > best.size():
                        best = q
        if best.size() > current.size():
            current = best
            continue
        for side in (1, 2):
            members = sorted(current.v1 if side == 1 else current.v2)
            for a_idx in range(len(members)):
                for b in members[a_idx + 1 :]:
                    for q in _neighbors_removing_reference(adj, current, {members[a_idx], b}, side):
                        if q.size() > best.size():
                            best = q
        if best.size() > current.size():
            current = best
            continue
        return current


def _reference_graphs():
    for seed in range(20):
        n, d = 10 + seed % 8, 0.2 + 0.1 * (seed % 6)
        yield I.generate(I.RandomSpec(n, d, seed=seed, neg_ratio=0.5 + seed % 3))
        yield I.generate(I.RandomSpec(n, d, seed=seed, parallel_frac=0.2 + 0.1 * (seed % 5)))


def _larger_reference_graphs():
    # n = 25-40: sparse group 1, only parallel pairs, no negative edge (the
    # graph is balanced), and group 2 with some parallel pairs
    for seed in range(6):
        n = 25 + 3 * seed
        yield I.generate(I.RandomSpec(n, 0.1, seed=seed, neg_ratio=1.0))
        yield I.generate(I.RandomSpec(n, 0.15, seed=seed, parallel_frac=1.0))
        yield I.generate(I.RandomSpec(n, 0.3, seed=seed, neg_ratio=0.0))
        yield I.generate(I.RandomSpec(n, 0.3, seed=seed, parallel_frac=0.3))


def test_construct_and_local_search_match_set_reference():
    graphs = list(_reference_graphs())
    assert len(graphs) == 40 and sum(bool(A.parallel(g)) for g in graphs) >= 15
    larger = list(_larger_reference_graphs())
    assert max(g.n for g in larger) == 40
    for seed, g in enumerate(graphs + larger):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(2):
            p = GR.construct(g, got_rng)
            assert p == _construct_reference(A.signs(g), want_rng)
            assert GR.local_search(g, p) == _local_search_reference(A.signs(g), p)
        assert got_rng.random() == want_rng.random()  # same draws consumed
        # a non-maximal start exercises the initial maximalization
        start = G.Bipartition(frozenset(sorted(p.v1)[::2]), p.v2)
        assert GR.local_search(g, start) == _local_search_reference(A.signs(g), start)


def test_local_search_skips_completions_that_cannot_beat_the_best(monkeypatch):
    # without the skip every (removed set, first insertion) pair costs one
    # re-maximalization; count both, the result staying the reference's
    counts = {"pairs": 0, "maximalize": 0}
    bases, maximalize = GR._bases, GR._maximalize

    def counting_bases(masks, full, state, side, k):
        for base in bases(masks, full, state, side, k):
            c1, c2 = GR._open(base, full)
            counts["pairs"] += (c1 | c2).bit_count()
            yield base

    def counting_maximalize(*args):
        counts["maximalize"] += 1
        return maximalize(*args)

    monkeypatch.setattr(GR, "_bases", counting_bases)
    monkeypatch.setattr(GR, "_maximalize", counting_maximalize)
    for seed, g in enumerate(_larger_reference_graphs()):
        p = GR.construct(g, random.Random(seed))
        counts.update(pairs=0, maximalize=-1)  # not the start's maximalization
        assert GR.local_search(g, p) == _local_search_reference(A.signs(g), p)
        assert counts["pairs"] > 0 and counts["maximalize"] < counts["pairs"] / 2, counts


@st.composite
def feasible_solutions(draw):
    """A random signed graph of either group and a feasible (possibly empty)
    solution on it, grown in a random vertex order with random sides."""
    n = draw(st.integers(min_value=4, max_value=12))
    density = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    group = draw(st.sampled_from([{"neg_ratio": 1.0}, {"parallel_frac": 0.4}]))
    g = I.generate(I.RandomSpec(n, density, seed, **group))
    sides = (set(), set())
    for i in draw(st.permutations(range(g.n))):
        side = draw(st.sampled_from([0, 1, None]))
        if side is not None:
            sides[side].add(i)
            if not G.is_feasible(g, G.Bipartition(*sides)):
                sides[side].discard(i)
    return g, G.Bipartition(*sides)


@settings(max_examples=200, deadline=None)
@given(feasible_solutions(), st.sampled_from([1, 2]))
def test_candidates_are_the_feasible_insertions(gp, side):
    g, p = gp
    grown = lambda i: G.Bipartition(p.v1 | {i}, p.v2) if side == 1 else G.Bipartition(p.v1, p.v2 | {i})  # noqa: E731
    want = {i for i in range(g.n) if i not in p.selected and G.is_feasible(g, grown(i))}
    assert _open_sides(g, p)[side - 1] == want
    assert _candidates_reference(A.signs(g), p, side) == want


@settings(max_examples=200, deadline=None)
@given(feasible_solutions())
def test_bases_equal_states_rebuilt_without_each_removed_set(gp):
    g, p = gp
    masks, full = g.sign_masks, (1 << g.n) - 1
    state = GR._state(masks, p.v1, p.v2)
    for side in (1, 2):
        for k in (1, 2):
            want = []
            for removed in combinations(G.bits(state[side - 1]), k):
                drop = sum(1 << i for i in removed)
                want.append(GR._state(masks, G.bits(state[0] & ~drop), G.bits(state[1] & ~drop)))
            assert list(GR._bases(masks, full, state, side, k)) == want


@pytest.mark.parametrize(
    "params",
    [{"time_limit_seconds": float("nan")}, {"time_limit_seconds": 0.0}, {"max_iterations": 0}],
)
def test_params_reject_limits_that_are_not_positive(params):
    with pytest.raises(ValueError):
        GR.GraspParams(**params)


def test_params_take_an_integer_iteration_count():
    with pytest.raises(TypeError):
        GR.GraspParams(max_iterations=2.5)
    assert type(GR.GraspParams(max_iterations=np.int64(3)).max_iterations) is int


def test_local_search_at_passed_deadline_returns_maximal_feasible_solution():
    for seed in range(6):
        g = I.generate(I.RandomSpec(14, 0.4, seed=seed, parallel_frac=0.3))
        p = GR.construct(g, random.Random(seed))
        p = G.Bipartition(frozenset(sorted(p.v1)[1:]), p.v2)  # room to grow again
        q = GR.local_search(g, p, deadline=time.monotonic())
        assert G.is_feasible(g, q)
        assert q.size() >= p.size()
        assert _is_maximal(g, q)
        assert q == _maximalize_reference(A.signs(g), p)  # no neighborhood was scanned


def test_local_search_stops_at_the_deadline(monkeypatch):
    # a fake clock advancing one tick per reading from 0: with deadline k the
    # search reads 0, 1, ... before each removed set and scans only below k,
    # so at most k sets; the spy records the reading once the search has
    # scanned or skipped a set and asks for the next one
    clock = [-1]
    seen = []
    bases = GR._bases

    def monotonic():
        clock[0] += 1
        return clock[0]

    def recording(*args):
        for base in bases(*args):
            yield base
            seen.append(clock[0])

    monkeypatch.setattr(GR.time, "monotonic", monotonic)
    monkeypatch.setattr(GR, "_bases", recording)
    bound = 0
    for seed in range(4):
        g = I.generate(I.RandomSpec(14, 0.4, seed=seed, parallel_frac=0.3))
        p = GR.construct(g, random.Random(seed))
        p = G.Bipartition(frozenset(sorted(p.v1)[1:]), p.v2)
        seen[:] = []
        free_run = GR.local_search(g, p)
        scans = len(seen)
        for k in range(scans + 2):
            clock[0], seen[:] = -1, []
            q = GR.local_search(g, p, deadline=k)
            assert len(seen) <= k and all(t < k for t in seen)
            assert G.is_feasible(g, q) and q.size() >= p.size()
            assert _is_maximal(g, q)
            if len(seen) < k:  # the deadline did not bind
                assert q == free_run
            else:
                bound += 1
    assert bound > 20
