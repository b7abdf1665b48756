"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS line with the
measured quantities when it succeeds.  Criteria 8 and 9 share the n = 50
suite and are the long poles; the whole module is designed to run unattended.
"""

import importlib
import itertools
import random
import time

import pytest

from mbsp import cli
from mbsp import cuts as C
from mbsp import graph as G
from mbsp import instances as I
from mbsp import solver as S
from mbsp.grasp import GraspParams, grasp, local_search
from mbsp.spanning import TreeStrategy

GZ = importlib.import_module("mbsp.ggmz")

DENSITIES = (0.25, 0.5, 0.75)
NEG_RATIOS = (0.5, 1.0, 2.0)
PARALLEL_FRACS = (0.25, 0.5, 0.75)


def oracle_specs():
    """>= 200 instances over n = 8..14, both groups, the full density grid."""
    specs = []
    for n in range(8, 15):
        seeds = (1, 2) if n <= 13 else (1,)
        for seed in seeds:
            for d in DENSITIES:
                for r in NEG_RATIOS:
                    specs.append(I.RandomSpec(n, d, seed=seed, neg_ratio=r))
                for f in PARALLEL_FRACS:
                    specs.append(I.RandomSpec(n, d, seed=seed, parallel_frac=f))
    return specs


def test_criterion_1_oracle_equivalence():
    specs = oracle_specs()
    assert len(specs) >= 200
    t0 = time.monotonic()
    for spec in specs:
        g = I.generate(spec)
        opt, _ = I.brute_force(g)
        for mode in ("cycle", "standard"):
            r = S.solve(g, S.SolveParams(branching=mode))
            assert r.status == "optimal", (spec, mode)
            assert r.lower_bound == opt, (spec, mode, r.lower_bound, opt)
            assert G.is_feasible(g, r.best)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"\n[PASS] criterion 1: {len(specs)} instances x 2 branching modes "
        f"match brute force ({elapsed:.0f}s)"
    )


def test_criterion_2_ggmz_balanced_optimality():
    rng = random.Random(20)
    count = 0
    for _ in range(50):
        n = rng.randint(10, 60)
        d = rng.choice(DENSITIES)
        g = I.generate_balanced(n, d, seed=rng.randint(0, 10_000))
        for strategy in TreeStrategy:
            p = GZ.ggmz(g, strategy, GZ.StableSetParams(seed=count))
            assert p.size() == g.n, (n, d, strategy)
            assert G.is_feasible(g, p)
        count += 1
    print(f"\n[PASS] criterion 2: GGMZ optimal on {count} balanced instances x 7 strategies")


def test_criterion_3_heuristic_soundness():
    rng = random.Random(30)
    strategies = list(TreeStrategy)
    checked = 0
    for i in range(500):
        n = rng.randint(5, 16)
        d = rng.uniform(0.2, 0.9)
        if d * n * (n - 1) / 2 < 1:
            d = 0.9
        if i % 2:
            spec = I.RandomSpec(n, d, seed=i, neg_ratio=rng.choice(NEG_RATIOS))
        else:
            spec = I.RandomSpec(n, d, seed=i, parallel_frac=rng.choice(PARALLEL_FRACS))
        g = I.generate(spec)
        if i % 3 == 0:
            p = GZ.ggmz(g, strategies[i % len(strategies)], GZ.StableSetParams(seed=i))
        else:
            p = grasp(g, GraspParams(max_iterations=5, seed=i))
            # local optimality: a fresh scan of both neighborhoods finds nothing
            assert local_search(g, p).size() == p.size(), spec
        assert G.is_feasible(g, p), spec
        if n <= 10:
            opt, _ = I.brute_force(g)
            assert p.size() <= opt, spec
        checked += 1
    assert checked == 500
    print("\n[PASS] criterion 3: 500 fuzzed heuristic outputs feasible, bounded, locally optimal")


def all_simple_cycles(g):
    adj = [[] for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    seen = set()
    found = []

    def dfs(start, v, path, signs):
        for w, s in adj[v]:
            if w == start and len(path) >= 2:
                if len(path) == 2 and signs[0] == s:
                    continue
                key = C._canonical_cycle(path)
                if key not in seen:
                    seen.add(key)
                    found.append((list(path), signs + [s]))
            elif w > start and w not in path:
                dfs(start, w, path + [w], signs + [s])

    for start in range(g.n):
        dfs(start, start, [start], [])
    return found


def test_criterion_4_separation_exactness():
    rng = random.Random(40)
    points = 0
    for i in range(50):
        if i % 2:
            spec = I.RandomSpec(rng.randint(6, 10), 0.6, seed=i, neg_ratio=rng.choice(NEG_RATIOS))
        else:
            spec = I.RandomSpec(rng.randint(6, 10), 0.6, seed=i, parallel_frac=rng.choice(PARALLEL_FRACS))
        g = I.generate(spec)
        cycles = all_simple_cycles(g)
        odd_neg = [
            c for c, signs in cycles if sum(1 for s in signs if s == "-") % 2 == 1
        ]
        for _ in range(20):
            y = [rng.random() for _ in range(g.n)]
            violations = [
                sum(y[v] for v in c) - (len(c) - 1)
                for c in odd_neg
            ]
            violated = [v for v in violations if v > C.VIOLATION_TOL]
            got = C.separate_odd_negative_cycle(g, y)
            assert bool(got) == bool(violated), (spec, y)
            if violated:
                assert got[0].violation(y) >= max(violated) - 1e-6, (spec, y)
            points += 1
    assert points == 1000
    print(f"\n[PASS] criterion 4: exact separation agrees with cycle enumeration on {points} points")


def balanced_incidence_vectors(g):
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


def test_criterion_5_cut_validity(monkeypatch):
    emitted = []
    original = C.CutPool.add

    def recording_add(self, cut):
        emitted.append(cut)
        return original(self, cut)

    monkeypatch.setattr(C.CutPool, "add", recording_add)
    checked_cuts = 0
    for seed in (1, 2):
        for spec in (
            I.RandomSpec(10, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(10, 0.6, seed=seed, parallel_frac=0.5),
            I.RandomSpec(12, 0.5, seed=seed, neg_ratio=2.0),
            I.RandomSpec(12, 0.5, seed=seed, parallel_frac=0.25),
        ):
            g = I.generate(spec)
            emitted.clear()
            for mode in ("cycle", "standard"):
                S.solve(g, S.SolveParams(branching=mode))
            vecs = balanced_incidence_vectors(g)
            for cut in emitted:
                for y in vecs:
                    assert cut.violation(y) <= 1e-9, (spec, cut)
                checked_cuts += 1
    print(f"\n[PASS] criterion 5: all {checked_cuts} cuts emitted on the small suite are valid")


def integral_feasible_sets(g, fixings, extra_rows):
    out = set()
    for k in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            ss = set(sub)
            if any((v in ss) != bool(val) for v, val in fixings.items()):
                continue
            if any(
                sum(a for j, a in coeffs.items() if j in ss) > rhs + 1e-9
                for coeffs, rel, rhs in extra_rows
            ):
                continue
            sg, _ = G.induced(g, ss)
            if G.is_balanced(sg) is not None:
                out.add(frozenset(ss))
    return out


def check_partition(g, node, children):
    parent = integral_feasible_sets(g, node.fixings, node.extra_rows)
    union = set()
    for child in children:
        cs = integral_feasible_sets(g, child.fixings, child.extra_rows)
        assert not (union & cs), "children overlap"
        union |= cs
    assert union == parent, "children do not cover the parent"


def test_criterion_6_branching_soundness():
    rng = random.Random(60)
    standard_checked = 0
    cycle_checked = 0
    for seed in range(12):
        spec = (
            I.RandomSpec(8, 0.7, seed=seed, neg_ratio=2.0)
            if seed % 2
            else I.RandomSpec(8, 0.7, seed=seed, parallel_frac=0.5)
        )
        g = I.generate(spec)
        # standard branching from a random fractional point
        y = [rng.choice([0.3, 0.5, 0.7]) for _ in range(g.n)]
        node = S.SearchNode({}, [], float(g.n), ())
        check_partition(g, node, S.branch(node, y, [], "standard"))
        standard_checked += 1
        # cycle branching from a point that makes some cycle cut binding
        probe = C.separate_odd_negative_cycle(g, [0.9] * g.n)
        cycles = [c for c in probe if c.support_cycle]
        if not cycles:
            continue
        cyc = cycles[0].support_cycle
        y = [0.0] * g.n
        for v in cyc:
            y[v] = (len(cyc) - 1) / len(cyc)
        binding = [
            c for c in probe if c.support_cycle and abs(c.violation(y)) <= S.BINDING_TOL
        ]
        if not binding:
            continue
        children = S.branch(node, y, binding, "cycle")
        assert len(children) in (2, 3)
        check_partition(g, node, children)
        cycle_checked += 1
    assert standard_checked >= 10 and cycle_checked >= 3
    print(
        f"\n[PASS] criterion 6: branching partitions verified "
        f"({standard_checked} standard, {cycle_checked} cycle)"
    )


def test_criterion_7_lp_engine():
    _tl = importlib.import_module("test_lp")
    enumerate_vertices, feasible, random_lp = _tl.enumerate_vertices, _tl.feasible, _tl.random_lp
    from mbsp import lp as LP

    rng = random.Random(70)
    checked = 0
    while checked < 100:
        lp = random_lp(rng, max_n=6, max_m=6)
        sol = LP.solve(lp)
        opt = enumerate_vertices(lp)
        if opt is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert abs(sol.objective_value - opt) <= 1e-6
            assert feasible(lp, sol.values)
            n = lp.n
            ks = rng.sample(range(n), rng.randint(1, n))
            new = [({j: float(rng.randint(-3, 3)) for j in ks}, LP.LE, float(rng.randint(-4, 6)))]
            warm = LP.add_rows_and_resolve(lp, sol, new)
            cold = LP.solve(LP.LinearProgram(list(lp.objective), list(lp.rows) + new, list(lp.bounds)))
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert abs(warm.objective_value - cold.objective_value) <= 1e-7
        checked += 1
    print(f"\n[PASS] criterion 7: simplex matches vertex enumeration on {checked} LPs")


def group2_n50_suite():
    specs = []
    for d in DENSITIES:
        for f in PARALLEL_FRACS:
            for seed in (1, 2, 3):
                specs.append(I.RandomSpec(50, d, seed=seed, parallel_frac=f))
    return specs


@pytest.fixture(scope="module")
def n50_results():
    results = []
    for spec in group2_n50_suite():
        g = I.generate(spec)
        t0 = time.monotonic()
        rc = S.solve(g, S.SolveParams(branching="cycle", time_limit_seconds=120))
        tc = time.monotonic() - t0
        rs = S.solve(g, S.SolveParams(branching="standard", time_limit_seconds=600))
        results.append((spec, rc, tc, rs))
    return results


@pytest.mark.slow
def test_criterion_8_group2_n50_scale(n50_results):
    worst = 0.0
    for spec, rc, tc, _ in n50_results:
        assert rc.status == "optimal", (spec, rc.status)
        assert tc < 60.0, (spec, tc)
        worst = max(worst, tc)
    print(
        f"\n[PASS] criterion 8: all {len(n50_results)} group-2 n=50 instances optimal, "
        f"worst {worst:.1f}s < 60s"
    )


@pytest.mark.slow
def test_criterion_9_branching_rule_effect(n50_results):
    cycle_nodes = []
    standard_nodes = []
    for spec, rc, _, rs in n50_results:
        assert rs.status == "optimal", (spec, rs.status)
        assert rc.lower_bound == rs.lower_bound, spec
        cycle_nodes.append(rc.stats["nodes"])
        standard_nodes.append(rs.stats["nodes"])
    mc = sum(cycle_nodes) / len(cycle_nodes)
    ms = sum(standard_nodes) / len(standard_nodes)
    print(
        f"\n[PASS] criterion 9: optima agree on all {len(cycle_nodes)} instances; "
        f"mean nodes cycle={mc:.1f} standard={ms:.1f}"
    )


def test_criterion_10_determinism(tmp_path, capsys):
    d = tmp_path / "suite"
    d.mkdir()
    for seed in (1, 2, 3):
        I.write(I.generate(I.RandomSpec(10, 0.5, seed=seed, neg_ratio=1.0)), d / f"a{seed}.mbsp")
        I.write(I.generate(I.RandomSpec(10, 0.5, seed=seed, parallel_frac=0.5)), d / f"b{seed}.mbsp")
    args = [
        "bench", "--dir", str(d), "--method", "bc", "--method", "grasp",
        "--method", "ggmz", "--seed", "7", "--omit-times",
    ]
    assert cli.run(args) == 0
    first = capsys.readouterr().out
    assert cli.run(args) == 0
    second = capsys.readouterr().out
    assert first and first == second
    print("\n[PASS] criterion 10: bench CSV byte-identical across runs under a fixed seed")
