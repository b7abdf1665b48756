import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsp import lp as LP


def enumerate_vertices(lp):
    """Brute-force polytope optimum: intersect all n-subsets of tight planes.

    Planes: every row as equality plus every bound as equality.  Feasible
    intersection points include all vertices, so the max over them equals the
    LP optimum whenever the feasible set is a bounded nonempty polytope.
    """
    n = lp.n
    planes = []
    for coeffs, _, rhs in lp.rows:
        planes.append(([coeffs.get(j, 0.0) for j in range(n)], rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        e = [0.0] * n
        e[j] = 1.0
        planes.append((e, lo))
        if hi != lo:
            planes.append((e, hi))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        if feasible(lp, x):
            val = float(np.dot(lp.objective, x))
            if best is None or val > best:
                best = val
    return best


def feasible(lp, x, tol=1e-7):
    for j, (lo, hi) in enumerate(lp.bounds):
        if not (lo - tol <= x[j] <= hi + tol):
            return False
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(a * x[j] for j, a in coeffs.items())
        if rel == LP.LE and lhs > rhs + tol:
            return False
        if rel == LP.GE and lhs < rhs - tol:
            return False
        if rel == LP.EQ and abs(lhs - rhs) > tol:
            return False
    return True


def random_lp(rng, max_n=4, max_m=4):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    c = [float(rng.randint(-5, 5)) for _ in range(n)]
    bounds = []
    for _ in range(n):
        lo = rng.randint(-3, 3)
        bounds.append((float(lo), float(lo + rng.randint(0, 4))))
    rows = []
    for _ in range(m):
        ks = rng.sample(range(n), rng.randint(1, n))
        coeffs = {j: float(rng.randint(-4, 4)) for j in ks}
        rows.append((coeffs, rng.choice([LP.LE, LP.GE, LP.EQ]), float(rng.randint(-6, 6))))
    return LP.LinearProgram(c, rows, bounds)


def test_unconstrained_box():
    lp = LP.LinearProgram([1.0, -2.0], [], [(0.0, 3.0), (-1.0, 5.0)])
    sol = LP.solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0 + 2.0)
    assert sol.values == pytest.approx([3.0, -1.0])


def test_simple_le_row():
    lp = LP.LinearProgram([1.0, 1.0], [({0: 1.0, 1: 1.0}, LP.LE, 1.0)], [(0.0, 1.0)] * 2)
    sol = LP.solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0)


def test_equality_row():
    lp = LP.LinearProgram([2.0, 1.0], [({0: 1.0, 1: 1.0}, LP.EQ, 1.5)], [(0.0, 1.0)] * 2)
    sol = LP.solve(lp)
    assert sol.objective_value == pytest.approx(2.0 + 0.5)


def test_infeasible_rows():
    lp = LP.LinearProgram(
        [1.0],
        [({0: 1.0}, LP.GE, 2.0), ({0: 1.0}, LP.LE, 1.0)],
        [(0.0, 5.0)],
    )
    assert LP.solve(lp).status == "infeasible"


def test_infeasible_against_bounds():
    lp = LP.LinearProgram([1.0], [({0: 1.0}, LP.GE, 2.0)], [(0.0, 1.0)])
    assert LP.solve(lp).status == "infeasible"


def test_fixed_variable_bounds():
    lp = LP.LinearProgram(
        [1.0, 1.0], [({0: 1.0, 1: 1.0}, LP.LE, 1.0)], [(1.0, 1.0), (0.0, 1.0)]
    )
    sol = LP.solve(lp)
    assert sol.values[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_rejects_infinite_bounds():
    with pytest.raises(ValueError):
        LP.LinearProgram([1.0], [], [(0.0, float("inf"))])


@pytest.mark.parametrize("bounds", [(float("-inf"), 0.0), (float("nan"), 1.0), (1.0, 0.0)])
def test_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError):
        LP.LinearProgram([1.0, 1.0], [], [(0.0, 1.0), bounds])


@pytest.mark.parametrize(
    "row",
    [({0: float("inf"), 1: 1.0}, LP.LE, 1.0), ({0: float("nan")}, LP.GE, 0.0), ({0: 1.0}, LP.LE, float("inf"))],
)
def test_rejects_rows_that_are_not_finite(row):
    with pytest.raises(ValueError):
        LP.solve(LP.LinearProgram([1.0, 1.0], [row]))


def test_empty_program_has_valid_bounds():
    assert LP.LinearProgram([]).bounds == []
    assert LP.LinearProgram([], [], []).n == 0


def test_degenerate_lp_terminates():
    # many redundant rows through one vertex
    rows = [({0: 1.0, 1: 1.0}, LP.LE, 1.0) for _ in range(6)]
    rows += [({0: 1.0}, LP.LE, 1.0), ({1: 1.0}, LP.LE, 1.0)]
    lp = LP.LinearProgram([1.0, 1.0], rows, [(0.0, 1.0)] * 2)
    assert LP.solve(lp).objective_value == pytest.approx(1.0)


def test_matches_vertex_enumeration_on_random_lps():
    rng = random.Random(42)
    checked = 0
    while checked < 120:
        lp = random_lp(rng)
        sol = LP.solve(lp)
        opt = enumerate_vertices(lp)
        if opt is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(opt, abs=1e-6)
            assert feasible(lp, sol.values)
        checked += 1


def test_add_rows_and_resolve_matches_cold_solve():
    rng = random.Random(7)
    for _ in range(60):
        lp = random_lp(rng, max_n=4, max_m=3)
        sol = LP.solve(lp)
        n = lp.n
        ks = rng.sample(range(n), rng.randint(1, n))
        new = [({j: float(rng.randint(-3, 3)) for j in ks}, LP.LE, float(rng.randint(-4, 6)))]
        warm = LP.add_rows_and_resolve(lp, sol, new)
        cold = LP.solve(
            LP.LinearProgram(list(lp.objective), list(lp.rows) + new, list(lp.bounds))
        )
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-7)


def _changed(rng, lp, sol, how):
    """lp after one change a child node or a cut round makes, and the start
    that carries sol's basis over to it."""
    rows, bounds, row_status = list(lp.rows), list(lp.bounds), list(sol.basis.rows)
    if how == "add rows":
        for _ in range(rng.randint(1, 3)):
            ks = rng.sample(range(lp.n), rng.randint(1, lp.n))
            coeffs = {j: float(rng.randint(-3, 3)) for j in ks}
            rows.append((coeffs, rng.choice([LP.LE, LP.GE, LP.EQ]), float(rng.randint(-4, 6))))
            row_status.append(None)
    elif how == "fix bounds":
        for j in rng.sample(range(lp.n), rng.randint(1, lp.n)):
            lo, hi = bounds[j]
            if rng.random() < 0.5:
                bounds[j] = (float(rng.randint(int(lo), int(hi))),) * 2
            else:
                bounds[j] = (lo + (hi - lo) * rng.random() / 2, hi)
    else:  # drop some rows whose slack is basic
        keep = [i for i, s in enumerate(row_status) if s != LP.BASIC or rng.random() < 0.5]
        rows = [rows[i] for i in keep]
        row_status = [row_status[i] for i in keep]
    changed = LP.LinearProgram(list(lp.objective), rows, bounds)
    return changed, LP.Basis(sol.basis.cols, tuple(row_status))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["add rows", "fix bounds", "drop rows"]))
def test_warm_start_matches_cold_solve_and_enumeration(seed, how):
    rng = random.Random(seed)
    lp = random_lp(rng, max_n=5, max_m=4)
    sol = LP.solve(lp)
    if sol.status != "optimal":
        return
    changed, start = _changed(rng, lp, sol, how)
    warm = LP.solve(changed, start)
    cold = LP.solve(changed)
    assert not warm.cold_start
    assert warm.status == cold.status
    opt = enumerate_vertices(changed)
    if opt is None:
        assert warm.status == "infeasible"
    else:
        assert warm.objective_value == pytest.approx(opt, abs=1e-6)
        assert cold.objective_value == pytest.approx(opt, abs=1e-6)
        assert feasible(changed, warm.values)


def test_warm_start_reports_infeasible_after_fixing():
    lp = LP.LinearProgram([1.0, 1.0], [({0: 1.0, 1: 1.0}, LP.GE, 1.5)], [(0.0, 1.0)] * 2)
    sol = LP.solve(lp)
    assert sol.objective_value == pytest.approx(2.0)
    fixed = LP.LinearProgram(list(lp.objective), list(lp.rows), [(0.0, 1.0), (0.0, 0.0)])
    warm = LP.solve(fixed, sol.basis)
    assert not warm.cold_start
    assert warm.status == "infeasible"


def test_warm_start_moves_structurals_to_their_favoured_bound():
    # every structural starts at the bound its objective coefficient does
    # not favour, so the start is dual infeasible until they move
    rng = random.Random(5)
    for _ in range(50):
        lp = random_lp(rng, max_n=4, max_m=3)
        cols = tuple(LP.UPPER if c <= 0 else LP.LOWER for c in lp.objective)
        sol = LP.solve(lp, LP.Basis(cols, (None,) * len(lp.rows)))
        assert not sol.cold_start
        cold = LP.solve(lp)
        assert sol.status == cold.status
        if cold.status == "optimal":
            assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-7)


@pytest.mark.parametrize(
    "start",
    [
        LP.Basis((LP.LOWER,), (None, None)),  # wrong length
        LP.Basis((LP.BASIC, LP.BASIC, LP.LOWER), (None, None)),  # m + 1 basic
        LP.Basis((LP.BASIC, LP.BASIC, LP.LOWER), (LP.LOWER, LP.LOWER)),  # singular basis
    ],
    ids=["wrong-length", "wrong-count", "singular"],
)
def test_corrupt_start_falls_back_to_cold_solve(start):
    rows = [({0: 1.0, 1: 1.0}, LP.LE, 1.0), ({0: 2.0, 1: 2.0}, LP.LE, 3.0)]
    lp = LP.LinearProgram([1.0, 2.0, 1.0], rows, [(0.0, 1.0)] * 3)
    cold = LP.solve(lp)
    sol = LP.solve(lp, start)
    assert sol.cold_start
    assert (sol.status, sol.objective_value) == (cold.status, cold.objective_value)
    assert sol.values == pytest.approx(cold.values)
    assert sol.objective_value == pytest.approx(enumerate_vertices(lp))


def test_start_with_dual_infeasible_slack_falls_back_to_cold_solve():
    # the row's slack is nonbasic, but lowering y0 below the row pays
    lp = LP.LinearProgram([-1.0], [({0: 1.0}, LP.LE, 0.5)], [(0.0, 1.0)])
    sol = LP.solve(lp, LP.Basis((LP.BASIC,), (LP.LOWER,)))
    assert sol.cold_start
    assert sol.objective_value == pytest.approx(0.0)


def test_add_rows_and_resolve_starts_warm():
    lp = LP.LinearProgram([1.0, 1.0], [], [(0.0, 1.0)] * 2)
    sol = LP.solve(lp)
    warm = LP.add_rows_and_resolve(lp, sol, [({0: 1.0, 1: 1.0}, LP.LE, 1.0)])
    assert not warm.cold_start
    assert warm.pivots == 1
    assert warm.objective_value == pytest.approx(1.0)
