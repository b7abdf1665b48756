import collections
import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbsp import cuts as C
from mbsp import graph as G
from mbsp import instances as I

import adjacency as A


def balanced_incidence_vectors(g):
    """0/1 vectors of every balanced subset of g — the integer feasible set."""
    out = []
    for k in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            sg, _ = G.induced(g, sub)
            if G.is_balanced(sg) is not None:
                y = [0.0] * g.n
                for v in sub:
                    y[v] = 1.0
                out.append(y)
    return out


def all_simple_cycles(g):
    """Every simple cycle (length >= 2 counting a parallel pair) with signs."""
    adj = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    cycles = set()
    found = []

    def dfs(start, v, path, signs):
        for w, s in adj[v]:
            if w == start and len(path) >= 2:
                if len(path) == 2 and signs[0] == s:
                    continue  # same physical edge reused
                key = C._canonical_cycle(path)
                if key not in cycles:
                    cycles.add(key)
                    found.append((list(path), signs + [s]))
            elif w > start and w not in path:
                dfs(start, w, path + [w], signs + [s])

    for start in range(g.n):
        dfs(start, start, [start], [])
    return found


def violated_odd_neg_cycles(g, y, tol=C.VIOLATION_TOL):
    out = []
    for cycle, signs in all_simple_cycles(g):
        if sum(1 for s in signs if s == "-") % 2 == 1:
            viol = sum(y[v] for v in cycle) - (len(cycle) - 1)
            if viol > tol:
                out.append((cycle, viol))
    return out


def random_fractional_point(n, rng):
    return [rng.random() for _ in range(n)]


def test_cut_arithmetic():
    cut = C.Cut.make({1: 1.0, 3: 1.0}, 1.0, C.PARALLEL_EDGE)
    y = [0.0, 0.9, 0.0, 0.8]
    assert abs(cut.lhs(y) - 1.7) < 1e-12
    assert abs(cut.violation(y) - 0.7) < 1e-12


def test_cut_pool_dedup():
    pool = C.CutPool(4)
    a = C.Cut.make({0: 1.0, 1: 1.0}, 1.0, C.PARALLEL_EDGE)
    b = C.Cut.make({1: 1.0, 2: 1.0}, 1.0, C.PARALLEL_EDGE)
    assert pool.add(a) == 0 and pool.add(a) == 0
    assert pool.add(b) == 1
    assert len(pool) == 2 and pool[0] is a and pool[1] is b
    mat, rhs = pool.dense([1, 0])
    assert mat.tolist() == [[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    assert rhs.tolist() == [1.0, 1.0]
    assert pool.violations([1, 0], [0.5, 0.25, 1.0, 0.0]).tolist() == [0.25, -0.25]


def test_cut_pool_names_a_key_by_its_first_row():
    pool = C.CutPool(4)
    pool.add(C.Cut.make({2: 1.0, 3: 1.0}, 1.0, C.PARALLEL_EDGE))
    clique = C.Cut.make({0: 1.0, 1: 1.0, 2: 1.0}, 1.0, C.CLIQUE)
    hole = C.Cut.make({0: 1.0, 1: 1.0, 2: 1.0}, 1.0, C.LIFTED_ODD_HOLE, support_cycle=(0, 1, 2))
    assert hole.key == clique.key and hole != clique
    # a cut of another kind with the same key is the stored cut's row
    assert pool.add(clique) == 1 and pool.add(hole) == 1
    assert len(pool) == 2 and pool[1] is clique
    got = C.scan_pool(pool, [0.5, 0.5, 0.5, 0.75])
    assert type(got) is list and all(type(i) is int for i in got)
    assert got == [1, 0]


def test_scan_pool_orders_by_violation():
    pool = C.CutPool(4)
    small = pool.add(C.Cut.make({0: 1.0, 1: 1.0}, 1.0, C.PARALLEL_EDGE))
    big = pool.add(C.Cut.make({2: 1.0, 3: 1.0}, 1.0, C.PARALLEL_EDGE))
    y = [0.6, 0.6, 1.0, 1.0]
    assert C.scan_pool(pool, y) == [big, small]
    assert C.scan_pool(pool, [0.0] * 4) == []


def test_scan_pool_breaks_ties_by_age():
    pool = C.CutPool(5)
    cuts = [C.Cut.make({v: 1.0, v + 1: 1.0}, 1.0, C.PARALLEL_EDGE) for v in range(4)]
    y = [0.6, 0.6, 0.6, 0.8, 0.8]
    for cut in cuts[:3]:
        pool.add(cut)
    # violations 0.2, 0.2, 0.4: the larger first, then the older
    assert C.scan_pool(pool, y) == [2, 0, 1]
    assert C.scan_pool(pool, y, limit=2) == [2, 0]
    assert pool.add(cuts[3]) == 3  # appended to the matrix of the last scan
    assert C.scan_pool(pool, y) == [3, 2, 0, 1]


def test_cut_pool_keeps_rows_and_order_past_growth():
    n = 12
    pairs = list(itertools.combinations(range(n), 2))  # 66 cuts
    cuts = [C.Cut.make({u: 1.0, v: 1.0}, 1.0, C.PARALLEL_EDGE) for u, v in pairs]
    pool = C.CutPool(n)
    pool.add(cuts[0])
    first = pool.dense([0])[0].copy()
    for i, cut in enumerate(cuts[1:], 1):
        assert pool.add(cut) == i
    assert len(pool) == len(cuts) > 64
    assert np.array_equal(pool.dense([0])[0], first)
    mat, rhs = pool.dense(slice(len(pool)))
    assert mat.tolist() == [[dict(cut.coeffs).get(v, 0.0) for v in range(n)] for cut in cuts]
    assert rhs.tolist() == [1.0] * len(cuts)
    # every pair is violated by 0.5, and the pairs with vertex 11, the last
    # added among them, by 0.75: those first, then the rest, each by age
    y = [0.75] * (n - 1) + [1.0]
    expect = [i for i, c in enumerate(cuts) if 11 in dict(c.coeffs)]
    expect += [i for i, c in enumerate(cuts) if 11 not in dict(c.coeffs)]
    assert C.scan_pool(pool, y, limit=len(cuts)) == expect
    # the product sums in another order than Cut.violation, the reference
    rng = random.Random(5)
    z = [rng.random() for _ in range(n)]
    rows = list(range(len(cuts)))[::-3]
    want = [cuts[i].violation(z) for i in rows]
    assert np.allclose(pool.violations(rows, z), want, rtol=0.0, atol=1e-12)


def test_conflict_graph():
    # the conflict graph, plus & minus of the sign masks, joins the ends of
    # each parallel pair
    g = G.build(3, [(0, 1, "+"), (0, 1, "-"), (1, 2, "-")])
    assert [plus & minus for plus, minus in g.sign_masks] == [0b010, 0b001, 0]


def test_initial_formulation_covers_parallel_pairs():
    g = I.generate(I.RandomSpec(10, 0.6, seed=4, parallel_frac=0.5))
    cuts = initial = C.initial_formulation(g)
    covered = set()
    for cut in initial:
        if cut.kind in (C.PARALLEL_EDGE, C.CLIQUE):
            sup = sorted(j for j, _ in cut.coeffs)
            for u, v in itertools.combinations(sup, 2):
                covered.add((u, v))
    assert A.parallel(g) <= covered
    del cuts


def test_initial_formulation_cuts_are_valid():
    for seed in range(4):
        for spec in (
            I.RandomSpec(8, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(8, 0.6, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            vecs = balanced_incidence_vectors(g)
            for cut in C.initial_formulation(g):
                for y in vecs:
                    assert cut.violation(y) <= 1e-9


def reference_clique_cover(adj, min_size):
    """_greedy_clique_cover on neighbour sets: for each edge uv (u < v, v
    ascending) not yet covered, the clique grown from it by the lowest common
    neighbour, kept when it has min_size vertices."""
    covered = set()
    cliques = []
    for u in range(len(adj)):
        for v in sorted(adj[u]):
            if u > v or (u, v) in covered:
                continue
            clique = {u, v}
            common = (adj[u] & adj[v]) - clique
            while common:
                w = min(common)
                clique.add(w)
                common &= adj[w]
            if len(clique) >= min_size:
                cliques.append(clique)
                covered.update(itertools.combinations(sorted(clique), 2))
    return cliques


def reference_initial_formulation(g):
    """initial_formulation as it was before one dict took over its dedupe:
    an emitted-key set, the odd-walk search from every vertex, a set of
    canonical cycles and a cap of 2n cycle rows; unit-weight arcs from the
    edge list, each neighbour at its first edge, the positive arc of a
    parallel pair first."""
    cuts = []
    emitted = set()

    def push(cut):
        if cut.key not in emitted:
            emitted.add(cut.key)
            cuts.append(cut)

    for clique in reference_clique_cover(A.conflicts(g), min_size=2):
        members = sorted(clique)
        if len(members) == 2:
            u, v = members
            push(C.Cut.make({u: 1.0, v: 1.0}, 1.0, C.PARALLEL_EDGE))
        else:
            push(C.Cut.make({v: 1.0 for v in members}, 1.0, C.CLIQUE))

    cycle_rows = 0
    seen_cycles = set()
    arcs = [[(v, int(s == G.NEG), 1.0) for v, ss in nbrs.items() for s in sorted(ss)] for nbrs in A.signs(g)]
    for v in range(g.n):
        if cycle_rows >= 2 * g.n:
            break
        walk = C._dijkstra_odd_walk(g.n, arcs, v, math.inf)
        if walk is None:
            continue
        cycle = C._simple_odd_cycle(walk)
        if len(cycle) < 3:
            continue
        key = C._canonical_cycle(cycle)
        if key in seen_cycles:
            continue
        seen_cycles.add(key)
        push(C._cycle_cut(key))
        cycle_rows += 1

    neg_adj = [{v for v, ss in nbrs.items() if G.NEG in ss} for nbrs in A.signs(g)]
    for clique in reference_clique_cover(neg_adj, min_size=3):
        push(C.Cut.make({v: 1.0 for v in sorted(clique)}, 2.0, C.NEG_CLIQUE))
    return cuts


def test_initial_formulation_matches_the_reference():
    # 420 random graphs of both groups, among them all-parallel
    # (parallel_frac 1) and all-positive (neg_ratio 0) ones; Cut equality
    # compares coeffs, rhs, kind and support cycle, list equality the order
    rng = random.Random(16)
    kinds = collections.Counter()
    for seed in range(420):
        n = rng.randint(3, 45)
        d = rng.uniform(max(0.05, 2.0 / (n * (n - 1))), 1.0)
        spec = (
            I.RandomSpec(n, d, seed=seed, neg_ratio=rng.choice([0.0, 0.5, 1.0, 2.0, 8.0]))
            if seed % 2
            else I.RandomSpec(n, d, seed=seed, parallel_frac=rng.choice([0.05, 0.2, 0.5, 1.0]))
        )
        g = I.generate(spec)
        got = C.initial_formulation(g)
        assert got == reference_initial_formulation(g), spec
        kinds.update(cut.kind for cut in got)
    assert all(kinds[k] > 20 for k in (C.PARALLEL_EDGE, C.CLIQUE, C.ODD_NEG_CYCLE, C.NEG_CLIQUE)), kinds


def test_initial_odd_walk_search_skips_vertices_with_a_parallel_pair(monkeypatch):
    # such a vertex's shortest odd closed walk is its parallel pair, which the
    # clique cover already covers
    g = I.generate(I.RandomSpec(30, 0.3, seed=1, parallel_frac=0.1))
    starts = []
    search = C._dijkstra_odd_walk

    def recording(n, arcs, start, *args):
        starts.append(start)
        return search(n, arcs, start, *args)

    monkeypatch.setattr(C, "_dijkstra_odd_walk", recording)
    cuts = C.initial_formulation(g)
    free = [v for v in range(g.n) if not A.conflicts(g)[v]]
    assert starts == free and 0 < len(free) < g.n
    assert any(cut.kind == C.ODD_NEG_CYCLE for cut in cuts)


def test_odd_walk_cuts_do_not_depend_on_the_order_of_the_edges():
    # the initial formulation, and the exact separation at LP-like points
    rng = random.Random(23)
    for seed in range(40):
        g = I.generate(
            I.RandomSpec(20, 0.5, seed=seed, neg_ratio=1.0)
            if seed % 2
            else I.RandomSpec(20, 0.5, seed=seed, parallel_frac=0.25)
        )
        edges = list(g.edges)
        rng.shuffle(edges)
        h = G.SignedGraph(g.n, tuple(edges))
        assert C.initial_formulation(h) == C.initial_formulation(g)
        y = [rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in range(g.n)]
        assert C.separate_odd_negative_cycle(h, y) == C.separate_odd_negative_cycle(g, y)


def test_exact_separation_completeness():
    rng = random.Random(5)
    for seed in range(10):
        spec = (
            I.RandomSpec(8, 0.6, seed=seed, neg_ratio=1.0)
            if seed % 2
            else I.RandomSpec(8, 0.6, seed=seed, parallel_frac=0.5)
        )
        g = I.generate(spec)
        for _ in range(10):
            y = random_fractional_point(g.n, rng)
            enumerated = violated_odd_neg_cycles(g, y)
            got = C.separate_odd_negative_cycle(g, y)
            assert bool(got) == bool(enumerated)
            if enumerated:
                best = max(v for _, v in enumerated)
                assert got[0].violation(y) >= best - 1e-6


def test_separated_cycle_cuts_are_valid():
    rng = random.Random(6)
    for seed in range(5):
        g = I.generate(I.RandomSpec(8, 0.7, seed=seed, parallel_frac=0.25))
        vecs = balanced_incidence_vectors(g)
        y = random_fractional_point(g.n, rng)
        for cut in C.separate_odd_negative_cycle(g, y):
            for v in vecs:
                assert cut.violation(v) <= 1e-9


def reference_separate_clique(g, y):
    """separate_clique on neighbour sets: from each vertex with a parallel
    pair, the clique grown by the common neighbour of highest y, then lowest
    index."""
    conf = A.conflicts(g)
    cliques = set()
    for v in range(g.n):
        clique, common = {v}, set(conf[v])
        while common:
            w = min(common, key=lambda u: (-y[u], u))
            clique.add(w)
            common &= conf[w]
        cliques.add(frozenset(clique))
    cuts = (C.Cut.make(dict.fromkeys(clique, 1.0), 1.0, C.CLIQUE) for clique in cliques if len(clique) > 1)
    return C._most_violated(cuts, y, 100)


def test_clique_cuts_are_valid():
    rng = random.Random(7)
    for seed in range(5):
        g = I.generate(I.RandomSpec(9, 0.7, seed=seed, parallel_frac=0.75))
        vecs = balanced_incidence_vectors(g)
        for _ in range(4):
            y = random_fractional_point(g.n, rng)
            cuts = C.separate_clique(g, y)
            assert cuts == reference_separate_clique(g, y)
            for cut in cuts:
                assert cut.kind == C.CLIQUE
                for v in vecs:
                    assert cut.violation(v) <= 1e-9


def test_lifted_odd_hole_cuts_are_valid():
    rng = random.Random(8)
    for seed in range(5):
        g = I.generate(I.RandomSpec(9, 0.7, seed=seed, parallel_frac=0.75))
        vecs = balanced_incidence_vectors(g)
        for _ in range(4):
            y = random_fractional_point(g.n, rng)
            for cut in C.separate_lifted_odd_hole(g, y):
                for v in vecs:
                    assert cut.violation(v) <= 1e-9


def test_shortcut_chords_takes_the_lowest_chord_end():
    # the first cycle vertex, 0, has chords to 9 and 8: the chord to its
    # lowest end, 8, leaves the triangle 8-4-0 (the one to 9 would leave the
    # 5-hole 0-1-2-3-9)
    cycle = [0, 1, 2, 3, 9, 8, 4]
    conf = [set() for _ in range(10)]
    for u, v in list(zip(cycle, cycle[1:] + cycle[:1])) + [(0, 9), (0, 8)]:
        conf[u].add(v)
        conf[v].add(u)
    assert C._shortcut_chords(A.masks(conf), cycle) == [8, 4, 0]


def test_lifted_odd_hole_separation_returns_each_cut_once():
    # two distinct odd holes of the conflict graph lift to one cut at this point
    g = I.generate(I.RandomSpec(14, 0.5, seed=32, parallel_frac=0.5))
    y = random_fractional_point(g.n, random.Random(108))
    cuts = C.separate_lifted_odd_hole(g, y)
    assert cuts
    assert len({c.key for c in cuts}) == len(cuts)


def test_lifting_preserves_validity_and_strengthens():
    for seed in range(6):
        g = I.generate(I.RandomSpec(9, 0.6, seed=seed, neg_ratio=2.0))
        vecs = balanced_incidence_vectors(g)
        y = [0.9] * g.n
        for cut in C.separate_odd_negative_cycle(g, y):
            lifted = C.lift_odd_negative_cycle(g, cut)
            assert lifted.rhs == cut.rhs
            base = dict(cut.coeffs)
            lift_map = dict(lifted.coeffs)
            for j, a in base.items():
                assert lift_map[j] == a
            extra = set(lift_map) - set(base)
            for v in vecs:
                assert lifted.violation(v) <= 1e-9
            if extra:
                assert lifted.kind == C.LIFTED_CYCLE


def test_lifting_candidates_need_two_support_neighbors(monkeypatch):
    # odd negative triangle 0-1-2; vertex 3 meets only vertex 0, by a
    # parallel pair (two edges, one neighbor); vertex 4 meets 0 and 1
    g = G.build(
        5,
        [(0, 1, "-"), (1, 2, "-"), (0, 2, "-"), (0, 3, "+"), (0, 3, "-"),
         (0, 4, "+"), (1, 4, "-")],
    )
    tried = set()
    attach = C.attach

    def spy(masks, v, *state):
        # the lift attaches only support vertices and the candidates
        if v not in (0, 1, 2):
            tried.add(v)
        return attach(masks, v, *state)

    monkeypatch.setattr(C, "attach", spy)
    lifted = C.lift_odd_negative_cycle(g, C._cycle_cut((0, 1, 2)))
    assert tried == {4}
    assert 3 not in dict(lifted.coeffs)


def test_max_weight_balanced_subset_against_enumeration():
    for seed in range(6):
        g = I.generate(I.RandomSpec(7, 0.7, seed=seed, parallel_frac=0.25))
        vertices = list(range(g.n))
        rng = random.Random(seed)
        weights = {v: rng.randint(0, 3) for v in vertices}
        best, exhausted = C._max_weight_balanced_subset(
            g.sign_masks, vertices, weights, required=0, budget=C.LIFT_BUDGET
        )
        assert not exhausted
        expect = float("-inf")
        for k in range(g.n + 1):
            for sub in itertools.combinations(vertices, k):
                if 0 not in sub:
                    continue
                sg, _ = G.induced(g, sub)
                if G.is_balanced(sg) is not None:
                    expect = max(expect, sum(weights[v] for v in sub))
        assert best == expect


def reference_balanced_subset(g, vertices, weights, required, budget):
    """The lifting search of _max_weight_balanced_subset (same order, bound
    and budget counter) with each include step checked by is_balanced."""
    order = [required] + sorted(
        (v for v in vertices if v != required), key=lambda v: -weights.get(v, 0.0)
    )
    suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(weights.get(order[i], 0.0), 0.0)
    best = float("-inf")
    calls = 0

    def dfs(i, selected, total):
        nonlocal best, calls
        calls += 1
        if calls > budget:
            return False
        if total + suffix[i] <= best:
            return True
        if i == len(order):
            best = max(best, total)
            return True
        v = order[i]
        if G.is_balanced(g, selected + [v]) is not None:
            if not dfs(i + 1, selected + [v], total + weights.get(v, 0.0)):
                return False
        if i == 0:
            return True
        return dfs(i + 1, selected, total)

    completed = dfs(0, [], 0.0)
    return best, not completed


def test_max_weight_balanced_subset_matches_reference_search():
    # as in lifting: the weights omit the required vertex; ties and zeros
    # come from quarter steps; the small budgets run out before, after and
    # without a first leaf
    for seed in range(8):
        spec = (
            I.RandomSpec(16, 0.5, seed=seed, neg_ratio=1.0)
            if seed % 2
            else I.RandomSpec(16, 0.5, seed=seed, parallel_frac=0.25)
        )
        g = I.generate(spec)
        rng = random.Random(seed)
        vertices = set(rng.sample(range(g.n), rng.randint(4, g.n)))
        required = rng.choice(sorted(vertices))
        weights = {v: rng.randint(0, 4) / 4 for v in vertices if v != required}
        for budget in (1, 7, 60, C.LIFT_BUDGET):
            got = C._max_weight_balanced_subset(g.sign_masks, vertices, weights, required, budget)
            assert got == reference_balanced_subset(g, vertices, weights, required, budget)


def test_rounding_heuristic_feasible_on_fractional_points():
    rng = random.Random(9)
    for seed in range(8):
        spec = (
            I.RandomSpec(10, 0.6, seed=seed, neg_ratio=1.0)
            if seed % 2
            else I.RandomSpec(10, 0.6, seed=seed, parallel_frac=0.5)
        )
        g = I.generate(spec)
        for _ in range(5):
            y = random_fractional_point(g.n, rng)
            p = C.rounding_heuristic(g, y)
            assert G.is_feasible(g, p)


def test_rounding_heuristic_recovers_balanced_integral_points():
    for seed in range(6):
        g = I.generate(I.RandomSpec(8, 0.6, seed=seed, parallel_frac=0.25))
        _, opt_p = I.brute_force(g)
        y = [1.0 if v in opt_p.selected else 0.0 for v in range(g.n)]
        p = C.rounding_heuristic(g, y)
        assert p.selected == opt_p.selected


def test_rounding_heuristic_orients_like_is_balanced_on_maximal_balanced_points():
    # on the point of a maximal balanced set, rounding keeps exactly that set,
    # with each component's lowest vertex on side 1 as is_balanced orients it
    for seed in range(8):
        g = I.generate(I.RandomSpec(12, 0.4, seed=seed, parallel_frac=0.25))
        rng = random.Random(seed)
        for _ in range(5):
            kept = []
            for v in rng.sample(range(g.n), g.n):
                if G.is_balanced(g, kept + [v]) is not None:
                    kept.append(v)
            y = [1.0 if v in kept else 0.0 for v in range(g.n)]
            w = G.is_balanced(g, kept)
            assert C.rounding_heuristic(g, y) == G.Bipartition(frozenset(kept) - w, w)


# ---------------------------------------------------------------------------
# the Floyd–Warshall start filter of the odd-walk searches


@st.composite
def double_covers(draw):
    """(n, arcs) in the form _dijkstra_odd_walk takes: each edge listed at
    both ends; zero weights, a pair joined by both parities and a pair
    joined twice by one parity all occur."""
    n = draw(st.integers(min_value=1, max_value=7))
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0)
    arcs = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        for bit in draw(st.sampled_from([(), (0,), (1,), (0, 1), (1, 1)])):
            w = draw(weight)
            arcs[u].append((v, bit, w))
            arcs[v].append((u, bit, w))
    return n, [sorted(lst) for lst in arcs]


def walk_weight(arcs, walk):
    return sum(
        min(w for v, bit, w in arcs[a // 2] if v == b // 2 and bit == (a ^ b) & 1)
        for a, b in zip(walk, walk[1:])
    )


# the only odd cycle is the triangle 1-2-3, so the odd walk through 0 goes
# 0-1-2-3-1-0 and passes vertex 1 twice
@example((4, [[(1, 0, 0.5)], [(0, 0, 0.5), (2, 1, 0.0), (3, 0, 0.25)], [(1, 1, 0.0), (3, 0, 0.0)],
             [(1, 0, 0.25), (2, 0, 0.0)]]))
@given(double_covers())
@settings(max_examples=200, deadline=None)
def test_odd_walk_bounds_are_the_shortest_odd_closed_walks(cover):
    n, arcs = cover
    dist = C._odd_walk_bounds(n, arcs, list(range(n)))
    for v in range(n):
        walk = C._dijkstra_odd_walk(n, arcs, v, math.inf)
        if walk is None:
            assert dist[2 * v, 2 * v + 1] == math.inf
        else:
            assert walk[0] == 2 * v and walk[-1] == 2 * v + 1
            assert dist[2 * v, 2 * v + 1] == pytest.approx(walk_weight(arcs, walk), abs=1e-9)


def edge_point(n, rng):
    """A point that mixes uniform values with the edge cases of the filter:
    values just over 1, as the LP returns, and values next to VIOLATION_TOL."""
    special = [0.0, 1.0, 1.0 + 1e-7, 1.0 + rng.random() * 1e-7, 1.0 - rng.random() * 1e-3,
               C.VIOLATION_TOL - 1e-8, C.VIOLATION_TOL + 1e-8,
               C.VIOLATION_TOL + (rng.random() - 0.5) * 2e-8]
    return [rng.choice(special) if rng.random() < 0.6 else rng.random() for _ in range(n)]


def reference_odd_cycle_separation(g, y, family):
    """Either odd-walk separator without the start filter: Dijkstra from
    every start, each cycle once, then the violated cuts, most violated
    first, one per key."""
    if family == "cycle":
        arcs = [[] for _ in range(g.n)]
        for u, v, s in g.edges:
            w = max(0.0, (2.0 - y[u] - y[v]) / 2.0)
            arcs[u].append((v, int(s == G.NEG), w))
            arcs[v].append((u, int(s == G.NEG), w))
        arcs = [sorted(lst) for lst in arcs]
        starts = [v for v in range(g.n) if y[v] > C.VIOLATION_TOL]
        simplify, make = (lambda cycle: cycle), C._cycle_cut
    else:
        conf = A.conflicts(g)
        arcs = [[(v, 1, max(0.0, 1.0 - y[u] - y[v])) for v in sorted(conf[u])] for u in range(g.n)]
        starts = [v for v in range(g.n) if conf[v]]
        simplify = lambda cycle: C._shortcut_chords(A.masks(conf), cycle)  # noqa: E731

        def make(hole):
            base = C.Cut.make({u: 1.0 for u in hole}, (len(hole) - 1) / 2.0, C.LIFTED_ODD_HOLE)
            return reference_sequential_lift(g, base, C.LIFTED_ODD_HOLE)

    seen, violated = set(), {}
    for v in starts:
        walk = C._dijkstra_odd_walk(g.n, arcs, v, 1.0 - C.VIOLATION_TOL)
        if walk is None:
            continue
        key = C._canonical_cycle(simplify(C._simple_odd_cycle(walk)))
        if key in seen:
            continue
        seen.add(key)
        cut = make(key)
        if cut.key not in violated and cut.violation(y) > C.VIOLATION_TOL:
            violated[cut.key] = cut
    return sorted(violated.values(), key=lambda c: (-c.violation(y), c.coeffs))[:100]


def test_start_filter_keeps_every_cut_of_a_search_from_every_start():
    rng = random.Random(11)
    cases = []
    for seed in range(16):
        n, d = rng.randint(6, 14), rng.uniform(0.2, 0.8)
        spec = (
            I.RandomSpec(n, d, seed=seed, neg_ratio=rng.choice([0.5, 1.0, 2.0]))
            if seed % 2
            else I.RandomSpec(n, d, seed=seed, parallel_frac=rng.choice([0.25, 0.5, 0.75]))
        )
        g = I.generate(spec)
        cases += [(g, edge_point(g.n, rng)) for _ in range(8)]
    found = 0
    for g, y in cases:
        cycles = C.separate_odd_negative_cycle(g, y)
        holes = C.separate_lifted_odd_hole(g, y)
        assert cycles == reference_odd_cycle_separation(g, y, "cycle")
        assert holes == reference_odd_cycle_separation(g, y, "hole")
        found += bool(cycles) + bool(holes)
    assert found > len(cases) // 2


def test_cycle_search_passes_vertices_below_the_start_threshold():
    # vertex 0 is no start (y_0 <= VIOLATION_TOL) but lies on the violated
    # triangle: the walk from 1 weighs 1 - y_0 - e, e = 1e-7 the excess over 1
    g = G.build(3, [(0, 1, "-"), (1, 2, "-"), (0, 2, "-")])
    y = [C.VIOLATION_TOL - 1e-8, 1.0 + 1e-7, 1.0 + 1e-7]
    (cut,) = C.separate_odd_negative_cycle(g, y)
    assert dict(cut.coeffs) == {0: 1.0, 1: 1.0, 2: 1.0} and cut.rhs == 2.0


# ---------------------------------------------------------------------------
# the lifting stop


def test_capped_balanced_subset_search_stops_at_the_cap():
    for seed in range(12):
        spec = (
            I.RandomSpec(14, 0.5, seed=seed, neg_ratio=1.0)
            if seed % 2
            else I.RandomSpec(14, 0.5, seed=seed, parallel_frac=0.25)
        )
        g = I.generate(spec)
        rng = random.Random(seed)
        for _ in range(6):
            vertices = set(rng.sample(range(g.n), rng.randint(3, g.n)))
            required = rng.choice(sorted(vertices))
            weights = {v: rng.randint(0, 8) / 4 for v in vertices if v != required}
            args = (g.sign_masks, vertices, weights, required)
            for budget in (7, 60, C.LIFT_BUDGET):
                free = C._max_weight_balanced_subset(*args, budget)
                total = sum(weights.values())
                for cap in (free[0] - 0.25, free[0], free[0] + 0.25, rng.uniform(0, total), -math.inf):
                    got = C._max_weight_balanced_subset(*args, budget, cap)
                    if free[0] < cap:
                        assert got == free
                    else:
                        assert got[0] >= cap and not got[1]


def test_lifting_stop_keeps_every_lifted_cut(monkeypatch):
    rng = random.Random(12)
    cases = []
    for seed in range(24):
        spec = (
            I.RandomSpec(14, 0.5, seed=seed, neg_ratio=rng.choice([0.5, 2.0]))
            if seed % 2
            else I.RandomSpec(14, 0.6, seed=seed, parallel_frac=rng.choice([0.25, 0.5, 0.75]))
        )
        g = I.generate(spec)
        cases += [(g, random_fractional_point(g.n, rng)) for _ in range(4)]

    def lifts():
        out = []
        for g, y in cases:
            out.append([C.lift_odd_negative_cycle(g, cut) for cut in C.separate_odd_negative_cycle(g, y)])
            out.append(C.separate_lifted_odd_hole(g, y))
        return out

    capped = lifts()
    search = C._max_weight_balanced_subset
    searches = []

    def uncapped(masks, vertices, weights, required, budget=C.LIFT_BUDGET, cap=None):
        searches.append(required)
        return search(masks, vertices, weights, required, budget)

    monkeypatch.setattr(C, "_max_weight_balanced_subset", uncapped)
    assert capped == lifts()
    assert len(searches) > 100
    kinds = {cut.kind for cuts in capped for cut in cuts}
    assert {C.LIFTED_CYCLE, C.LIFTED_ODD_HOLE} <= kinds


# ---------------------------------------------------------------------------
# lifting witnesses


def reference_sequential_lift(g, cut, lifted_kind):
    """_sequential_lift without witnesses: a capped search for every
    candidate."""
    support = {v for v, _ in cut.coeffs}
    adj = A.signs(g)
    neighbor_count = collections.Counter(v for s in support for v in adj[s] if v not in support)
    candidates = sorted((v for v, c in neighbor_count.items() if c >= 2), key=lambda v: (-neighbor_count[v], v))
    coeffs = dict(cut.coeffs)
    for v in candidates:
        z_star, exhausted = C._max_weight_balanced_subset(
            g.sign_masks, set(coeffs) | {v}, coeffs, v, cap=cut.rhs - 1e-9
        )
        if exhausted:
            continue
        alpha = cut.rhs - (z_star if z_star > float("-inf") else 0.0)
        if alpha > 1e-9:
            coeffs[v] = alpha
    if len(coeffs) == len(cut.coeffs):
        return cut
    return C.Cut.make(coeffs, cut.rhs, lifted_kind, support_cycle=cut.support_cycle)


def has_chord(g, cycle):
    k = len(cycle)
    adj = A.signs(g)
    return any(
        cycle[j] in adj[cycle[i]] for i in range(k) for j in range(i + 2, k) if (i, j) != (0, k - 1)
    )


def test_lifting_witnesses_match_the_search_without_them():
    # base cuts of both kinds at fractional points of both groups: the odd
    # cycles the separator finds, every odd negative cycle of small graphs
    # (many with chords), and the odd holes of the conflict graph
    rng = random.Random(13)
    chorded = lifted = 0
    for seed in range(24):
        n = rng.randint(7, 14)
        spec = (
            I.RandomSpec(n, rng.uniform(0.3, 0.8), seed=seed, neg_ratio=rng.choice([0.5, 1.0, 2.0]))
            if seed % 2
            else I.RandomSpec(n, rng.uniform(0.3, 0.8), seed=seed, parallel_frac=rng.choice([0.25, 0.5, 0.75]))
        )
        g = I.generate(spec)
        bases = []
        for _ in range(3):
            y = random_fractional_point(g.n, rng)
            bases += [(c, c.support_cycle, C.LIFTED_CYCLE) for c in C.separate_odd_negative_cycle(g, y)]
            conf = A.conflicts(g)
            arcs = [[(v, 1, max(0.0, 1.0 - y[u] - y[v])) for v in sorted(conf[u])] for u in range(g.n)]
            for v in range(g.n):
                walk = C._dijkstra_odd_walk(g.n, arcs, v, 1.0 - C.VIOLATION_TOL)
                if walk is not None:
                    hole = C._canonical_cycle(C._shortcut_chords(A.masks(conf), C._simple_odd_cycle(walk)))
                    base = C.Cut.make({u: 1.0 for u in hole}, (len(hole) - 1) / 2.0, C.LIFTED_ODD_HOLE)
                    bases.append((base, hole, C.LIFTED_ODD_HOLE))
        if g.n <= 9:
            for cycle, signs in all_simple_cycles(g):
                if len(cycle) >= 3 and signs.count("-") % 2:
                    cut = C._cycle_cut(C._canonical_cycle(cycle))
                    bases.append((cut, cut.support_cycle, C.LIFTED_CYCLE))
        for base, cycle, kind in bases:
            got = C._sequential_lift(g, base, kind, cycle)
            assert got == reference_sequential_lift(g, base, kind)
            chorded += has_chord(g, cycle)
            lifted += got is not base
    assert chorded >= 50 and lifted >= 50


# ---------------------------------------------------------------------------
# the Floyd–Warshall pruning of the odd-walk searches


def reference_dijkstra_odd_walk(n, arcs, start, cutoff):
    """_dijkstra_odd_walk without pruning: every node under the cutoff is
    pushed."""
    source, target = start * 2, start * 2 + 1
    dist = [math.inf] * (2 * n)
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
            if nd < dist[nxt] - 1e-15:
                dist[nxt] = nd
                prev[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    if dist[target] == math.inf:
        return None
    return C._trace_back(prev, target)


def separation_searches(g, y):
    """(arcs, vertices) of both odd-walk separators at y, as they build them."""
    arcs = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        w = max(0.0, (2.0 - y[u] - y[v]) / 2.0)
        arcs[u].append((v, int(s == G.NEG), w))
        arcs[v].append((u, int(s == G.NEG), w))
    arcs = [sorted(lst) for lst in arcs]
    e = max(0.0, max(y) - 1.0)
    yield arcs, [u for u in range(g.n) if y[u] > C.VIOLATION_TOL - e - 1e-9]
    conf = A.conflicts(g)
    yield [[(v, 1, max(0.0, 1.0 - y[u] - y[v])) for v in sorted(conf[u])] for u in range(g.n)], [
        v for v in range(g.n) if conf[v]
    ]


def test_pruned_odd_walk_search_matches_the_unpruned_search():
    # every start of both separators, at uniform points and at the edge
    # points of the start filter
    rng = random.Random(17)
    cutoff = 1.0 - C.VIOLATION_TOL
    found = 0
    for seed in range(20):
        n, d = rng.randint(6, 16), rng.uniform(0.2, 0.8)
        spec = (
            I.RandomSpec(n, d, seed=seed, neg_ratio=rng.choice([0.5, 1.0, 2.0]))
            if seed % 2
            else I.RandomSpec(n, d, seed=seed, parallel_frac=rng.choice([0.25, 0.5, 0.75]))
        )
        g = I.generate(spec)
        for y in [random_fractional_point(g.n, rng) for _ in range(3)] + [edge_point(g.n, rng) for _ in range(3)]:
            for arcs, vertices in separation_searches(g, y):
                dist = C._odd_walk_bounds(g.n, arcs, vertices)
                for v in vertices:
                    walk = C._dijkstra_odd_walk(g.n, arcs, v, cutoff, dist[:, 2 * v + 1].tolist())
                    assert walk == reference_dijkstra_odd_walk(g.n, arcs, v, cutoff)
                    found += walk is not None
    assert found > 500


@given(double_covers(), st.sampled_from([math.inf, 1.0 - C.VIOLATION_TOL, 0.6, 1.7]))
@settings(max_examples=200, deadline=None)
def test_pruned_odd_walk_search_matches_on_double_covers(cover, cutoff):
    n, arcs = cover
    dist = C._odd_walk_bounds(n, arcs, list(range(n)))
    for v in range(n):
        walk = C._dijkstra_odd_walk(n, arcs, v, cutoff, dist[:, 2 * v + 1].tolist())
        assert walk == reference_dijkstra_odd_walk(n, arcs, v, cutoff)
