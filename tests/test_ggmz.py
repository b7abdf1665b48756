import inspect
import itertools
import math
import random
import sys

import numpy as np
import pytest

import importlib

GZ = importlib.import_module("mbsp.ggmz")
from mbsp import graph as G
from mbsp import instances as I
from mbsp import spanning as SP

import adjacency as A

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
    assert not A.pairs(G.switch(t, w), G.NEG)


def test_switch_set_on_forest_with_isolated_vertices():
    t = G.build(6, [(0, 1, "-"), (3, 4, "-")])
    w = GZ.switch_set_from_forest(t)
    assert not A.pairs(G.switch(t, w), G.NEG)


def test_switch_set_rejects_cyclic_input():
    # a parallel pair is a cycle of two edges
    for edges in ([(0, 1, "+"), (1, 2, "+"), (0, 2, "+")], [(0, 1, "+"), (0, 1, "-")]):
        with pytest.raises(ValueError):
            GZ.switch_set_from_forest(G.build(3, edges))


def _switch_set_reference(t):
    """DFS labelling of each tree from its lowest vertex: a vertex joins W
    iff its parent's label XOR the edge being negative is 1."""
    adj = A.signs(t)
    label = [None] * t.n
    for root in range(t.n):
        if label[root] is not None:
            continue
        label[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, ss in adj[u].items():
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
        s = GZ.stable_set_grasp(mask_adjacency(h), GZ.StableSetParams(seed=seed))
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
        got = len(GZ.stable_set_grasp(mask_adjacency(h), GZ.StableSetParams(seed=seed)))
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


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_ggmz_takes_the_strategy_value(strategy):
    g = I.generate(I.RandomSpec(30, 0.5, seed=1, neg_ratio=1.0))
    params = GZ.StableSetParams(seed=1)
    assert GZ.ggmz(g, strategy.value, params) == GZ.ggmz(g, strategy, params)
    with pytest.raises(ValueError):
        GZ.ggmz(g, strategy.name, params)  # the member name is not a value


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
        adj = [set(nbrs) for nbrs in A.signs(h)]
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
            adj = [set(nbrs) for nbrs in A.signs(h)]
            masks = mask_adjacency(h)
            greedy = GZ._greedy_stable_set(masks, h.n, random.Random(seed))
            for start in (greedy, sum(1 << v for v in G.bits(greedy)[::2])):
                got = set(G.bits(GZ._one_two_exchange(masks, h.n, start, math.inf)))
                assert got == _one_two_exchange_reference(adj, h.n, set(G.bits(start)))


def test_one_two_exchange_stops_at_the_deadline(monkeypatch):
    # a fake clock advancing one tick per reading from 0: each scan reads it
    # before each member and exchanges only below the deadline k, so at most
    # k times; the free run reads 0, ..., last, so the deadline binds exactly
    # when k <= last, and then the reading k is the last one
    clock = fake_clock(monkeypatch)
    made = []  # the last reading of each scan that made an exchange
    exchange = GZ._exchange

    def recording(*args):
        better = exchange(*args)
        if better is not None:
            made.append(clock[0])
        return better

    monkeypatch.setattr(GZ, "_exchange", recording)
    for seed in range(4):
        h = G.negative_part(I.generate(I.RandomSpec(24, 0.3, seed=seed, neg_ratio=1.0)))
        masks = mask_adjacency(h)
        greedy = GZ._greedy_stable_set(masks, h.n, random.Random(seed))
        start = sum(1 << v for v in G.bits(greedy)[::2])
        free_run = _one_two_exchange_reference([set(nbrs) for nbrs in A.signs(h)], h.n, set(G.bits(start)))
        clock[0], made[:] = -1, []
        assert set(G.bits(GZ._one_two_exchange(masks, h.n, start, math.inf))) == free_run
        last = clock[0]
        assert len(made) > 1, "no exchange ran"
        unbound = 0
        for k in range(last + 3):
            clock[0], made[:] = -1, []
            stable = GZ._one_two_exchange(masks, h.n, start, k)
            assert len(made) <= k and all(t < k for t in made)
            assert clock[0] == min(k, last)  # no reading after the one that reached k
            for u in G.bits(stable):
                assert not masks[u] & stable  # stable
            for v in range(h.n):
                assert stable >> v & 1 or masks[v] & stable  # maximal
            if k > last:  # the deadline did not bind
                assert set(G.bits(stable)) == free_run
                unbound += 1
        assert unbound == 2


def test_exchange_scan_stops_part_way_at_the_deadline(monkeypatch):
    # the only (1,2)-exchange drops the last member, 31, the middle of the
    # negative path 30-31-32, behind the 12 members of six negative 5-cycles
    # that no exchange improves; a scan reads the clock before each member,
    # so with deadline k <= 12 it reads 0, ..., k and stops before 31
    clock = fake_clock(monkeypatch)
    cycles = [(5 * c + i, 5 * c + (i + 1) % 5, "-") for c in range(6) for i in range(5)]
    h = G.build(33, cycles + [(30, 31, "-"), (31, 32, "-")])
    masks, full = mask_adjacency(h), (1 << h.n) - 1
    stable = sum(1 << 5 * c | 1 << 5 * c + 2 for c in range(6)) | 1 << 31
    exchanged = stable & ~(1 << 31) | 1 << 30 | 1 << 32
    clock[0] = -1
    assert GZ._exchange(masks, full, stable, math.inf) == exchanged
    assert clock[0] == 12  # one reading per member
    for k in range(13):
        clock[0] = -1
        assert GZ._exchange(masks, full, stable, k) is None
        assert clock[0] == k
    # the first scan reads 0, ..., 5 and stops: the exchange returns the set
    # it was given, which is maximal, where the free run exchanges
    clock[0] = -1
    assert GZ._one_two_exchange(masks, h.n, stable, 5) == stable and clock[0] == 5
    assert GZ._one_two_exchange(masks, h.n, stable, math.inf) == exchanged


def fake_clock(monkeypatch):
    """Replace GZ's time.monotonic by a clock that reads 0, 1, 2, ... and
    return its one-element list, which holds the last reading."""
    clock = [-1]

    def monotonic():
        clock[0] += 1
        return clock[0]

    monkeypatch.setattr(GZ.time, "monotonic", monotonic)
    return clock


def test_greedy_stable_set_stops_at_the_deadline(monkeypatch):
    # with deadline k the construction reads 0, 1, ... before each pick and
    # picks only below k: its picks are the first k of the run without one
    clock = fake_clock(monkeypatch)
    for seed in range(6):
        h = G.negative_part(I.generate(I.RandomSpec(30, 0.3, seed=seed, neg_ratio=1.0)))
        masks = mask_adjacency(h)
        free_run = GZ._greedy_stable_set(masks, h.n, random.Random(seed))
        picks = free_run.bit_count()
        assert picks > 3
        for k in range(picks + 2):
            clock[0] = -1
            got = GZ._greedy_stable_set(masks, h.n, random.Random(seed), k)
            assert clock[0] <= k  # no reading after the one that reached k
            assert got & ~free_run == 0 and got.bit_count() == min(k, picks)


def test_stable_set_grasp_is_maximal_when_the_deadline_cuts_the_construction(monkeypatch):
    # the deadline is the first reading plus the limit, so small limits stop
    # the first construction after a few picks; the exchange step then makes
    # the set maximal
    fake_clock(monkeypatch)
    h = negative_five_cycles(40)
    adj = mask_adjacency(h)
    for limit in (1, 2, 5, 20):
        s = GZ.stable_set_grasp(adj, GZ.StableSetParams(time_limit_seconds=limit, seed=limit))
        mask = sum(1 << v for v in s)
        for v in range(h.n):
            assert not (v in s and adj[v] & mask)  # stable
            assert v in s or adj[v] & mask  # maximal


def test_stable_set_bound_is_an_upper_bound():
    for seed in range(12):
        for d in (0.1, 0.3, 0.5, 0.7, 0.9):
            for spec in (
                I.RandomSpec(8 + seed % 5, d, seed=seed, neg_ratio=1.0),
                I.RandomSpec(8 + seed % 5, d, seed=seed, parallel_frac=0.5),
            ):
                g = I.generate(spec)
                adj = [set(nbrs) for nbrs in A.signs(g)]
                assert GZ._stable_set_bound(mask_adjacency(g), g.n) >= max_stable_set_size(adj, g.n)


def random_forest(n, seed):
    rng = random.Random(seed)
    return G.build(n, [(rng.randrange(v), v, "-") for v in range(1, n) if rng.random() < 0.8])


def test_stable_set_bound_is_exact_on_forests():
    for seed in range(40):
        t = random_forest(1 + seed % 12, seed)
        adj = [set(nbrs) for nbrs in A.signs(t)]
        assert GZ._stable_set_bound(mask_adjacency(t), t.n) == max_stable_set_size(adj, t.n)


def test_stable_set_grasp_stops_at_the_bound_on_a_forest(monkeypatch):
    calls = []
    greedy = GZ._greedy_stable_set
    monkeypatch.setattr(GZ, "_greedy_stable_set", lambda *a: calls.append(a) or greedy(*a))
    for seed in range(5):
        calls.clear()
        GZ.stable_set_grasp(mask_adjacency(random_forest(40, seed)), GZ.StableSetParams(seed=seed))
        assert len(calls) == 1


def _stable_set_grasp_reference(h, params):
    """The loop without the bound: it stops after MAX_STALL_ITERATIONS
    constructions without improvement, or once the set holds every vertex."""
    adj = mask_adjacency(h)
    rng = random.Random(params.seed)
    best = stall = 0
    while stall < GZ.MAX_STALL_ITERATIONS:
        cand = GZ._one_two_exchange(adj, h.n, GZ._greedy_stable_set(adj, h.n, rng), math.inf)
        if cand.bit_count() > best.bit_count():
            best = cand
            stall = 0
        else:
            stall += 1
        if best.bit_count() == h.n:
            break
    return set(G.bits(best))


def test_stable_set_grasp_matches_the_loop_without_the_bound():
    stops = set()
    for seed in range(6):
        for d in (0.08, 0.5):
            for spec in (
                I.RandomSpec(30, d, seed=seed, neg_ratio=1.0),
                I.RandomSpec(30, d, seed=seed, parallel_frac=0.5),
            ):
                h = G.negative_part(I.generate(spec))
                params = GZ.StableSetParams(seed=seed)
                got = GZ.stable_set_grasp(mask_adjacency(h), params)
                assert got == _stable_set_grasp_reference(h, params)
                stops.add(len(got) == GZ._stable_set_bound(mask_adjacency(h), h.n))
    assert stops == {True, False}  # both the bound's stop and the stall stop ran


def random_adjacency(n, d, rng):
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < d:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _peel_and_cover_reference(adj, n):
    """The bound without the search: vertices of degree <= 1 taken with
    their neighbours deleted, then one per clique of a greedy cover of the
    rest, each clique grown from its lowest vertex by the lowest common
    neighbour."""
    alive = (1 << n) - 1
    bound = 0
    taken = True
    while taken:
        taken = False
        for v in G.bits(alive):
            if alive >> v & 1 and (adj[v] & alive).bit_count() <= 1:
                alive &= ~(adj[v] | 1 << v)
                bound += 1
                taken = True
    while alive:
        clique = alive & -alive
        rest = adj[clique.bit_length() - 1] & alive
        while rest:
            u = rest & -rest
            clique |= u
            rest &= adj[u.bit_length() - 1]
        alive &= ~clique
        bound += 1
    return bound


def test_stable_set_bound_is_the_stability_number():
    rng = random.Random(13)
    cases = 0
    for _ in range(120):
        n = rng.randint(1, 13)
        adj = random_adjacency(n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)
        alpha = max_stable_set_size([set(G.bits(a)) for a in adj], n)
        for lower in range(alpha + 1):
            assert GZ._stable_set_bound(adj, n, lower) == alpha, (adj, lower)
            cases += 1
    assert cases >= 400


def test_stable_set_bound_without_search_nodes_is_peel_and_cover(monkeypatch):
    rng = random.Random(5)
    graphs = []
    for _ in range(200):
        n = rng.randint(1, 30)
        graphs.append((n, random_adjacency(n, rng.choice((0.05, 0.2, 0.5, 0.8)), rng)))
    searched = [GZ._stable_set_bound(adj, n) for n, adj in graphs]
    monkeypatch.setattr(GZ, "ALPHA_SEARCH_NODES", 0)
    loose = 0
    for (n, adj), alpha in zip(graphs, searched):
        want = _peel_and_cover_reference(adj, n)
        assert GZ._stable_set_bound(adj, n) == want
        loose += want > alpha
    assert loose > 50  # the search proves a tighter bound on these


def negative_five_cycles(count):
    return G.build(5 * count, [(5 * c + i, 5 * c + (i + 1) % 5, "-") for c in range(count) for i in range(5)])


def test_stable_set_grasp_on_many_disjoint_five_cycles():
    # no vertex peels, the clique cover counts 3 per cycle and alpha is 2
    h = negative_five_cycles(700)
    adj = mask_adjacency(h)
    assert _peel_and_cover_reference(adj, h.n) == 2100
    s = GZ.stable_set_grasp(adj, GZ.StableSetParams(time_limit_seconds=2, seed=1))
    mask = sum(1 << v for v in s)
    for v in range(h.n):
        assert not (v in s and adj[v] & mask)  # stable
        assert v in s or adj[v] & mask  # maximal


def test_stable_set_bound_search_is_not_recursive():
    # pruned against alpha = 400 and taking one vertex per level, the search
    # runs hundreds of levels deep, under a recursion limit 100 frames above
    # this one
    h = negative_five_cycles(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        got = GZ._stable_set_bound(mask_adjacency(h), h.n, 400)
    finally:
        sys.setrecursionlimit(limit)
    assert got == 600  # the budget runs out: proving alpha takes 2^200 nodes


def test_stable_set_bound_stops_at_the_deadline(monkeypatch):
    # a fake clock advancing one tick per reading from 0: with deadline k the
    # search reads the clock once per node and stops at the reading k
    clock = [-1]

    def monotonic():
        clock[0] += 1
        return clock[0]

    monkeypatch.setattr(GZ.time, "monotonic", monotonic)
    stops = 0
    for seed in range(6):
        h = G.negative_part(I.generate(I.RandomSpec(40, 0.5, seed=seed, neg_ratio=1.0)))
        adj = mask_adjacency(h)
        cover = _peel_and_cover_reference(adj, h.n)
        clock[0] = -1
        alpha = GZ._stable_set_bound(adj, h.n, 0, math.inf)
        nodes = clock[0] + 1
        assert alpha < cover and nodes > 10
        for k in range(nodes + 2):
            clock[0] = -1
            got = GZ._stable_set_bound(adj, h.n, 0, k)
            assert clock[0] <= k  # no reading after the one that reached k
            if k < nodes:
                assert got == cover
                stops += 1
            else:
                assert got == alpha
    assert stops > 60


def _ggmz_reference(g, strategy, params):
    """GGMZ through the switched graph: switch(g, W), its negative part, and
    the stable set of that part's neighbour bitmasks."""
    t = SP.spanning_forest(g, strategy, random.Random(params.seed))
    w = GZ.switch_set_from_forest(t)
    stable = GZ.stable_set_grasp(mask_adjacency(G.negative_part(G.switch(g, w))), params)
    return G.Bipartition(frozenset(stable - w), frozenset(stable & w))


def test_switched_negative_masks_match_the_switched_graph():
    for seed in range(10):
        for spec in (
            I.RandomSpec(20 + seed, 0.1 + 0.08 * seed, seed=seed, neg_ratio=0.5 + seed % 3),
            I.RandomSpec(20 + seed, 0.1 + 0.08 * seed, seed=seed, parallel_frac=0.25 + 0.25 * (seed % 3)),
        ):
            g = I.generate(spec)
            rng = random.Random(seed)
            for w in (
                frozenset(),
                frozenset(range(g.n)),
                frozenset(v for v in range(g.n) if rng.random() < 0.5),
                GZ.switch_set_from_forest(SP.spanning_forest(g, SP.TreeStrategy.BFS)),
            ):
                want = mask_adjacency(G.negative_part(G.switch(g, w)))
                assert GZ.switched_negative_masks(g, w) == want


def test_switched_negative_masks_take_numpy_vertex_ids():
    g = I.generate(I.RandomSpec(100, 0.05, seed=1, neg_ratio=1.0))
    w = {3, 70, 99}
    assert GZ.switched_negative_masks(g, {np.int64(v) for v in w}) == GZ.switched_negative_masks(g, w)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_ggmz_matches_the_switched_graph_pipeline(strategy):
    for seed in range(4):
        for spec in (
            I.RandomSpec(30, 0.2 + 0.1 * seed, seed=seed, neg_ratio=0.5 + seed % 3),
            I.RandomSpec(30, 0.2 + 0.1 * seed, seed=seed, parallel_frac=0.25 + 0.25 * (seed % 3)),
        ):
            g = I.generate(spec)
            params = GZ.StableSetParams(seed=seed)
            assert GZ.ggmz(g, strategy, params) == _ggmz_reference(g, strategy, params)


def test_ggmz_deadline_counts_from_entry(monkeypatch):
    # the fake clock reads 0 when ggmz is entered, so the deadline is the
    # limit; a forest that takes a million ticks passes it before the GRASP
    # starts, whose construction then picks nothing and whose exchange step
    # makes the empty set maximal in ascending order
    clock = fake_clock(monkeypatch)
    forest = GZ.spanning_forest

    def slow_forest(*args):
        clock[0] += 10**6
        return forest(*args)

    monkeypatch.setattr(GZ, "spanning_forest", slow_forest)
    for seed in range(3):
        g = I.generate(I.RandomSpec(30, 0.3, seed=seed, parallel_frac=0.5))
        for strategy in ALL_STRATEGIES:
            clock[0] = -1
            p = GZ.ggmz(g, strategy, GZ.StableSetParams(time_limit_seconds=1000, seed=seed))
            assert G.is_feasible(g, p)
            w = GZ.switch_set_from_forest(forest(g, strategy, random.Random(seed)))
            adj = mask_adjacency(G.negative_part(G.switch(g, w)))
            lowest_first = 0
            for v in range(g.n):
                if not adj[v] & lowest_first:
                    lowest_first |= 1 << v
            assert p.selected == set(G.bits(lowest_first))  # stable and maximal
            assert (p.v1, p.v2) == (p.selected - w, p.selected & w)
