import importlib
import itertools
import random
import shutil
import sys
from pathlib import Path

import pytest

from mbsp import cuts as C
from mbsp import graph as G
from mbsp import instances as I
from mbsp import lp as LP
from mbsp import solver as S
from mbsp.ggmz import StableSetParams, ggmz
from mbsp.grasp import GraspParams, grasp
from mbsp.spanning import TreeStrategy


def integral_feasible_sets(g, fixings, extra_rows):
    """All balanced subsets satisfying the fixings and extra rows."""
    out = set()
    for k in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            ss = set(sub)
            if any((v in ss) != bool(val) for v, val in fixings.items()):
                continue
            ok = True
            for coeffs, rel, rhs in extra_rows:
                lhs = sum(a for j, a in coeffs.items() if j in ss)
                if rel == "<=" and lhs > rhs + 1e-9:
                    ok = False
                    break
            if not ok:
                continue
            sg, _ = G.induced(g, ss)
            if G.is_balanced(sg) is not None:
                out.add(frozenset(ss))
    return out


def test_empty_graph():
    r = S.solve(G.build(0, []))
    assert r.status == "optimal" and r.lower_bound == 0


def test_edgeless_graph_selects_everything():
    r = S.solve(G.build(5, []))
    assert r.lower_bound == 5
    assert r.best.selected == frozenset(range(5))


def test_balanced_graph_selects_everything():
    g = I.generate_balanced(12, 0.5, seed=0)
    r = S.solve(g)
    assert r.lower_bound == 12
    # the root LP's point is integral and the rounding closes the gap on it,
    # with each component's lowest vertex on side 1 as is_balanced orients it
    assert r.stats["nodes"] == 1
    w = G.is_balanced(g)
    assert r.best == G.Bipartition(frozenset(range(g.n)) - w, w)


def test_single_parallel_pair():
    g = G.build(2, [(0, 1, "+"), (0, 1, "-")])
    r = S.solve(g)
    assert r.lower_bound == 1


def test_reports_feasible_certificate():
    for seed in range(4):
        g = I.generate(I.RandomSpec(10, 0.6, seed=seed, parallel_frac=0.5))
        r = S.solve(g)
        assert G.is_feasible(g, r.best)
        assert r.best.size() == r.lower_bound
        assert r.upper_bound == pytest.approx(r.lower_bound)


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_matches_brute_force(mode):
    for seed in range(5):
        for spec in (
            I.RandomSpec(9, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(9, 0.6, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            opt, _ = I.brute_force(g)
            r = S.solve(g, S.SolveParams(branching=mode))
            assert r.status == "optimal"
            assert r.lower_bound == opt


def test_branching_modes_agree():
    for seed in range(4):
        g = I.generate(I.RandomSpec(11, 0.5, seed=seed, neg_ratio=2.0))
        a = S.solve(g, S.SolveParams(branching="cycle"))
        b = S.solve(g, S.SolveParams(branching="standard"))
        assert a.lower_bound == b.lower_bound


def test_rejects_unknown_branching():
    with pytest.raises(ValueError):
        S.SolveParams(branching="dive")


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_rejects_a_negative_or_nan_time_limit(limit):
    with pytest.raises(ValueError):
        S.SolveParams(time_limit_seconds=limit)


def test_solves_with_the_smallest_cut_limits(monkeypatch):
    # one cut per round and no fractional cut rounds still end optimal: an
    # unbalanced integral point is always separated
    monkeypatch.setattr(S, "MAX_CUT_ROUNDS", 0)
    monkeypatch.setattr(S, "MAX_CUTS_PER_ROUND", 1)
    g = I.generate(I.RandomSpec(10, 0.6, seed=4, parallel_frac=0.5))
    opt, _ = I.brute_force(g)
    r = S.solve(g)
    assert r.status == "optimal" and r.lower_bound == opt


def test_time_limit_status():
    g = I.generate(I.RandomSpec(40, 0.75, seed=0, parallel_frac=0.25))
    r = S.solve(g, S.SolveParams(time_limit_seconds=0.05))
    assert r.status in ("optimal", "time_limit")
    if r.status == "time_limit":
        assert r.upper_bound >= r.lower_bound
        assert G.is_feasible(g, r.best)


class CountingClock:
    """Stands in for the solver's `time`: each reading is one tick later."""

    def __init__(self):
        self.ticks = -1

    def monotonic(self):
        self.ticks += 1
        return float(self.ticks)


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_stop_at_every_deadline_keeps_valid_bounds(monkeypatch, mode):
    # a time limit of k ticks stops the search at the k-th clock reading
    # after the start, wherever that falls: between nodes or in a cut loop
    stops = 0
    for seed in range(4):
        for spec in (
            I.RandomSpec(10, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(10, 0.6, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            opt, _ = I.brute_force(g)
            for k in itertools.count():
                monkeypatch.setattr(S, "time", CountingClock())
                r = S.solve(g, S.SolveParams(branching=mode, time_limit_seconds=k))
                assert r.lower_bound <= opt <= r.upper_bound, (spec, k)
                assert G.is_feasible(g, r.best) and r.best.size() == r.lower_bound
                if r.status == "optimal":
                    assert r.upper_bound == r.lower_bound == opt
                    break
                assert r.status == "time_limit"
                stops += 1
    assert stops >= 20


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_numerical_error_stops_with_valid_bounds(monkeypatch, mode):
    # LP.solve raises on its k-th call, warm or cold, for every k the solve
    # reaches: the search stops there with the failing node open
    lp_solve = LP.solve
    stops = 0
    for seed in range(4):
        for spec in (
            I.RandomSpec(10, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(10, 0.6, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            opt, _ = I.brute_force(g)
            for k in itertools.count(1):
                calls = [0]

                def failing(*args):
                    calls[0] += 1
                    if calls[0] == k:
                        raise LP.NumericalError("injected")
                    return lp_solve(*args)

                monkeypatch.setattr(LP, "solve", failing)
                r = S.solve(g, S.SolveParams(branching=mode))
                assert r.lower_bound <= opt <= r.upper_bound, (spec, k)
                assert G.is_feasible(g, r.best) and r.best.size() == r.lower_bound
                if calls[0] < k:  # the solve ended before the k-th LP
                    assert r.status == "optimal" and r.upper_bound == opt
                    break
                assert r.status == "numerical_error" and calls[0] == k
                assert r.stats["lp_solves"] == k - 1
                stops += 1
    assert stops >= 10


def test_standard_branching_partitions_region():
    for seed in range(6):
        g = I.generate(I.RandomSpec(8, 0.6, seed=seed, neg_ratio=1.0))
        node = S.SearchNode({0: 1}, [], float(g.n), ())
        y = [0.5] * g.n
        y[0] = 1.0
        children = S.branch(node, y, [], "standard")
        assert len(children) == 2
        parent_sets = integral_feasible_sets(g, node.fixings, node.extra_rows)
        union = set()
        for child in children:
            cs = integral_feasible_sets(g, child.fixings, child.extra_rows)
            assert not (union & cs)  # pairwise disjoint
            union |= cs
        assert union == parent_sets


def test_cycle_branching_partitions_region():
    checked = 0
    for seed in range(10):
        g = I.generate(I.RandomSpec(8, 0.7, seed=seed, neg_ratio=2.0))
        probe = C.separate_odd_negative_cycle(g, [0.9] * g.n)
        cycles = [c.support_cycle for c in probe if c.support_cycle]
        if not cycles:
            continue
        cyc = cycles[0]
        # make that cycle's cut binding with every cycle vertex fractional
        y = [0.0] * g.n
        for v in cyc:
            y[v] = (len(cyc) - 1) / len(cyc)
        binding = [
            c
            for c in probe
            if c.support_cycle and abs(c.violation(y)) <= S.BINDING_TOL
        ]
        if not binding:
            continue
        node = S.SearchNode({}, [], float(g.n), ())
        children = S.branch(node, y, binding, "cycle")
        assert len(children) in (2, 3)
        parent_sets = integral_feasible_sets(g, node.fixings, node.extra_rows)
        union = set()
        for child in children:
            cs = integral_feasible_sets(g, child.fixings, child.extra_rows)
            assert not (union & cs)
            union |= cs
        assert union == parent_sets
        checked += 1
    assert checked >= 1


def test_cycle_branching_adds_no_duplicate_row():
    checked = 0
    for seed in range(10):
        g = I.generate(I.RandomSpec(8, 0.7, seed=seed, neg_ratio=2.0))
        probe = C.separate_odd_negative_cycle(g, [0.9] * g.n)
        cycles = [c.support_cycle for c in probe if c.support_cycle]
        if not cycles:
            continue
        y = [0.0] * g.n
        for v in cycles[0]:
            y[v] = (len(cycles[0]) - 1) / len(cycles[0])
        binding = [c for c in probe if c.support_cycle and abs(c.violation(y)) <= S.BINDING_TOL]
        if not binding:
            continue
        # a node that already carries the row of the cycle it branches on,
        # as after branching on another cycle with the same C2
        (row,) = S.branch(S.SearchNode({}, [], float(g.n), ()), y, binding, "cycle")[-1].extra_rows
        node = S.SearchNode({}, [row], float(g.n), ())
        children = S.branch(node, y, binding, "cycle")
        for child in children:
            assert child.extra_rows == [row]
        parent_sets = integral_feasible_sets(g, node.fixings, node.extra_rows)
        union = set()
        for child in children:
            cs = integral_feasible_sets(g, child.fixings, child.extra_rows)
            assert not (union & cs)
            union |= cs
        assert union == parent_sets
        checked += 1
    assert checked >= 1


def test_stats_are_populated():
    g = I.generate(I.RandomSpec(10, 0.6, seed=1, parallel_frac=0.5))
    r = S.solve(g)
    assert r.stats["nodes"] >= 1
    assert r.stats["lp_solves"] >= 1
    assert r.stats["wall_time"] >= 0.0
    assert r.stats["lp_cold_starts"] == 1
    assert r.stats["lp_pivots"] >= 1
    # with branching, every LP after the root's first starts warm from the
    # last basis of its cut loop or of its parent
    r = S.solve(I.generate(I.RandomSpec(20, 0.5, seed=1, neg_ratio=1.0)))
    assert r.stats["nodes"] > 1
    assert r.stats["lp_cold_starts"] == 1
    assert r.stats["lp_pivots"] >= 1
    phases = r.stats["time_by_phase"]
    assert set(phases) == {"lp", "pool_scan", "sep_cycle", "lift", "sep_clique", "sep_hole", "rounding", "branch"}
    assert all(t >= 0.0 for t in phases.values()) and phases["lp"] > 0.0 and phases["branch"] > 0.0
    assert sum(phases.values()) <= r.stats["wall_time"]


def test_conflict_graph_separators_run_only_with_a_parallel_pair(monkeypatch):
    # both search the conflict graph of the parallel pairs, empty on group 1
    calls = []
    for name in ("separate_clique", "separate_lifted_odd_hole"):
        sep = getattr(C, name)
        monkeypatch.setattr(C, name, lambda g, y, limit, name=name, sep=sep: calls.append(name) or sep(g, y, limit))
    r = S.solve(I.generate(I.RandomSpec(20, 0.5, seed=2, neg_ratio=1.0)))
    assert r.stats["time_by_phase"]["sep_cycle"] > 0.0 and not calls
    r = S.solve(I.generate(I.RandomSpec(20, 0.5, seed=2, parallel_frac=0.5)))
    assert {"separate_clique", "separate_lifted_odd_hole"} <= set(calls)
    assert r.stats["cuts_by_kind"][C.LIFTED_ODD_HOLE] > 0


def test_deterministic_across_runs():
    g = I.generate(I.RandomSpec(12, 0.5, seed=3, parallel_frac=0.5))
    a = S.solve(g)
    b = S.solve(g)
    assert (a.lower_bound, a.stats["nodes"], a.best) == (b.lower_bound, b.stats["nodes"], b.best)


def signature(r):
    """Everything a solve reports but its times."""
    stats = r.stats
    counts = (stats["nodes"], stats["lp_solves"], stats["lp_pivots"], stats["lp_cold_starts"], stats["cuts_by_kind"])
    return r.status, r.lower_bound, r.upper_bound, counts, r.best


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_solve_does_not_depend_on_the_order_of_the_edges(mode):
    # the same graph with its edges shuffled, and sorted as instance files
    # list them, gets the same search
    params = S.SolveParams(branching=mode)
    for seed in range(1, 6):
        for spec in (I.RandomSpec(20, 0.5, seed=seed, neg_ratio=1.0), I.RandomSpec(20, 0.5, seed=seed, parallel_frac=0.25)):
            g = I.generate(spec)
            edges = list(g.edges)
            random.Random(seed).shuffle(edges)
            expected = signature(S.solve(g, params))
            for order in (edges, sorted(edges)):
                assert signature(S.solve(G.SignedGraph(g.n, tuple(order)), params)) == expected, spec


NOISE_SPECS = [I.RandomSpec(30, 0.75, seed=1, parallel_frac=0.25)] + [
    I.RandomSpec(25, d, seed=seed, neg_ratio=r) for seed in (1, 2) for d in (0.25, 0.5, 0.75) for r in (0.5, 1.0, 2.0)
]


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_slack_thresholds_ignore_the_last_bit_of_a_violation(monkeypatch, mode):
    # slacks at LP vertices sit on the drop and inheritance thresholds; a
    # shift of one or two ulps in every violation must move no decision
    params = S.SolveParams(branching=mode)
    violations = C.CutPool.violations
    for spec in NOISE_SPECS:
        g = I.generate(spec)
        expected = signature(S.solve(g, params))
        for eps in (4e-16, -4e-16):
            monkeypatch.setattr(C.CutPool, "violations", lambda pool, rows, y, eps=eps: violations(pool, rows, y) + eps)
            assert signature(S.solve(g, params)) == expected, (spec, eps)
            monkeypatch.setattr(C.CutPool, "violations", violations)


def test_package_loads_under_another_name(tmp_path, monkeypatch):
    # a second tree of the package, imported beside the first, solves alike:
    # the package imports itself only by relative imports
    shutil.copytree(Path(S.__file__).parent, tmp_path / "mbsp_copy", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        copy = importlib.import_module("mbsp_copy.solver")
        graph = importlib.import_module("mbsp_copy.graph")
        assert Path(copy.__file__).parent == tmp_path / "mbsp_copy"
        assert (copy.C.__name__, copy.LP.__name__) == ("mbsp_copy.cuts", "mbsp_copy.lp")
        spec = I.RandomSpec(14, 0.5, seed=3, parallel_frac=0.5)
        for mode in ("cycle", "standard"):
            a = S.solve(I.generate(spec), S.SolveParams(branching=mode))
            b = copy.solve(graph.build(14, I.generate(spec).edges), copy.SolveParams(branching=mode))
            assert (b.status, b.lower_bound, b.upper_bound) == (a.status, a.lower_bound, a.upper_bound)
            assert (b.stats["nodes"], b.best.v1, b.best.v2) == (a.stats["nodes"], a.best.v1, a.best.v2)
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "mbsp_copy"]:
            del sys.modules[name]


# ---------------------------------------------------------------------------
# metamorphic relations of the exact optimum


def small_graphs(rng, lo, hi, count=6):
    """count graphs of each group with lo <= n <= hi."""
    out = []
    for seed in range(count):
        d = rng.uniform(0.3, 0.8)
        out.append(I.generate(I.RandomSpec(rng.randint(lo, hi), d, seed=seed, neg_ratio=rng.choice([0.5, 1.0, 2.0]))))
        out.append(I.generate(I.RandomSpec(rng.randint(lo, hi), d, seed=seed, parallel_frac=rng.choice([0.25, 0.5]))))
    return out


def optimum(g, mode):
    """The certified optimum of an exact solve."""
    r = S.solve(g, S.SolveParams(branching=mode))
    assert r.status == "optimal" and float(r.lower_bound) == r.upper_bound
    assert G.is_feasible(g, r.best) and r.best.size() == r.lower_bound
    return r.lower_bound


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_optimum_is_kept_by_switching_and_relabeling_and_grows_by_an_isolated_vertex(mode):
    rng = random.Random(41)
    for g in small_graphs(rng, 6, 11):
        opt = optimum(g, mode)
        w = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        assert optimum(G.switch(g, w), mode) == opt
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert optimum(G.build(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges]), mode) == opt
        assert optimum(G.build(g.n + 1, g.edges), mode) == opt + 1


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_optimum_of_a_disjoint_union_is_the_sum_of_the_parts(mode):
    rng = random.Random(43)
    parts = small_graphs(rng, 4, 6)
    for a, b in zip(parts, parts[1:] + parts[:1]):
        union = G.build(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n, s) for u, v, s in b.edges])
        assert optimum(union, mode) == optimum(a, mode) + optimum(b, mode)


@pytest.mark.parametrize("mode", ["cycle", "standard"])
def test_heuristics_lie_below_the_optimum_and_the_root_bound_above(mode):
    rng = random.Random(47)
    for g in small_graphs(rng, 8, 12):
        opt = optimum(g, mode)
        root = LP.solve(LP.LinearProgram([1.0] * g.n, [(dict(cut.coeffs), "<=", cut.rhs) for cut in C.initial_formulation(g)]))
        assert opt <= root.objective_value + 1e-6
        assert grasp(g, GraspParams(max_iterations=5)).size() <= opt
        for strategy in (TreeStrategy.BFS, TreeStrategy.KRUSKAL_ADAPTIVE):
            assert ggmz(g, strategy, StableSetParams()).size() <= opt
