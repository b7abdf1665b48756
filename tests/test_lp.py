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
        planes.append((list(coeffs), rhs))
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
        lhs = sum(a * x[j] for j, a in enumerate(coeffs))
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


# ---------------------------------------------------------------------------
# the dense-row tableau fill and the pivot loop against the dict-row loop


def reference_dual_simplex(lp, start):
    """_dual_simplex filling the tableau from dict rows, one coefficient at
    a time, with the pivot loop indexing the bounds of the basis and masking
    the entering candidates on every pivot."""
    n, m = lp.n, len(lp.rows)
    rows = [({j: a for j, a in enumerate(coeffs.tolist()) if a}, rel, rhs) for coeffs, rel, rhs in lp.rows]
    ncols = n + m
    tab = np.zeros((m + 1, ncols + 1))
    A, b = tab[:m, :ncols], tab[:m, -1]
    lo = np.zeros(ncols)
    hi = np.zeros(ncols)
    lo[:n] = [bb[0] for bb in lp.bounds]
    hi[:n] = [bb[1] for bb in lp.bounds]
    for i, (coeffs, rel, rhs) in enumerate(rows):
        for j, a in coeffs.items():
            A[i, j] += a
        b[i] = rhs
        A[i, n + i] = 1.0
        if rel == LP.LE:
            hi[n + i] = np.inf
        elif rel == LP.GE:
            lo[n + i] = -np.inf
    c = np.zeros(ncols)
    c[:n] = lp.objective
    cold = start is None
    if cold:
        start = LP.Basis(tuple(np.where(c[:n] > 0, LP.UPPER, LP.LOWER)), (None,) * m)
    if len(start.cols) != n or len(start.rows) != m:
        return None
    status = np.array(list(start.cols) + [LP.BASIC if s is None else s for s in start.rows])
    basis = np.nonzero(status == LP.BASIC)[0]
    if basis.size != m:
        return None
    at_upper = status == LP.UPPER
    at_upper[n:] = np.isinf(lo[n:])
    movable = (status != LP.BASIC) & (hi > lo)
    try:
        tab[:m] = np.linalg.solve(A[:, basis], tab[:m])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(tab).all() or np.abs(tab[:m, basis] - np.eye(m)).max(initial=0.0) > 1e-9:
        return None
    tab[m, :ncols] = c - c[basis] @ tab[:m, :ncols]
    tab[m, basis] = 0.0
    d = tab[m, :ncols]
    wrong = movable & np.where(at_upper, d < -LP.OPT_TOL, d > LP.OPT_TOL)
    if wrong[n:].any():
        return None
    at_upper[wrong] = ~at_upper[wrong]
    x = np.where(at_upper, hi, lo)
    x[basis] = 0.0
    tab[:m, -1] -= tab[:m, :ncols] @ x
    max_pivots = max(200, 50 * (m + ncols))
    bland_after = 3 * max(1, ncols)
    pivots = degenerate = 0
    while True:
        xb = tab[:m, -1]
        infeas = np.maximum(lo[basis] - xb, xb - hi[basis])
        rows_ = np.nonzero(infeas > LP.FEAS_TOL)[0]
        if rows_.size == 0:
            break
        bland = degenerate >= bland_after
        r = int(rows_[np.argmin(basis[rows_])] if bland else rows_[np.argmax(infeas[rows_])])
        leave = basis[r]
        raise_leaving = xb[r] < lo[leave]
        alpha = tab[r, :ncols] if raise_leaving else -tab[r, :ncols]
        cand = np.nonzero(movable & np.where(at_upper, alpha > LP.PIVOT_TOL, alpha < -LP.PIVOT_TOL))[0]
        if cand.size == 0:
            return LP.LpSolution(status="infeasible", pivots=pivots, cold_start=cold)
        ratios = np.maximum(tab[m, cand] / alpha[cand], 0.0)
        t = ratios.min()
        ties = cand[ratios <= t + 1e-12]
        q = int(ties[0] if bland else ties[np.argmax(np.abs(alpha[ties]))])
        degenerate = degenerate + 1 if t <= 1e-12 else 0
        pivots += 1
        if pivots > max_pivots:
            raise LP.NumericalError("simplex iteration cap exceeded")
        x_enter = hi[q] if at_upper[q] else lo[q]
        col = tab[:, q].copy()
        tab[r] /= col[r]
        col[r] = 0.0
        tab -= np.outer(col, tab[r])
        x_leave = lo[leave] if raise_leaving else hi[leave]
        tab[:m, -1] -= tab[:m, leave] * x_leave
        tab[r, -1] += x_enter
        at_upper[leave] = not raise_leaving
        basis[r] = q
        movable[leave], movable[q] = hi[leave] > lo[leave], False
    d = c - c[basis] @ tab[:m, :ncols]
    if (movable & np.where(at_upper, d < -LP.OPT_TOL, d > LP.OPT_TOL)).any():
        raise LP.NumericalError("reduced costs lost dual feasibility")
    x = np.where(at_upper, hi, lo)
    x[basis] = tab[:m, -1]
    status = np.where(at_upper, LP.UPPER, LP.LOWER)
    status[basis] = LP.BASIC
    values = x[:n]
    return LP.LpSolution(
        status="optimal",
        values=values,
        objective_value=float(c[:n] @ values),
        basis=LP.Basis(tuple(status[:n].tolist()), tuple(status[n:].tolist())),
        pivots=pivots,
        cold_start=cold,
    )


def same_solution(a, b):
    if a is None or b is None:
        return a is b
    same_values = (a.values is None and b.values is None) or a.values.tobytes() == b.values.tobytes()
    return same_values and (a.status, a.objective_value, a.basis, a.pivots, a.cold_start) == (
        b.status, b.objective_value, b.basis, b.pivots, b.cold_start
    )


def test_dual_simplex_matches_the_dict_row_reference_bitwise():
    rng = random.Random(23)
    warm_checked = 0
    for i in range(1500):
        lp = random_lp(rng, max_n=6, max_m=6)
        cold = LP._dual_simplex(lp, None)
        assert same_solution(cold, reference_dual_simplex(lp, None))
        if cold.status != "optimal":
            continue
        changed, start = _changed(rng, lp, cold, ("add rows", "fix bounds", "drop rows")[i % 3])
        assert same_solution(LP._dual_simplex(changed, start), reference_dual_simplex(changed, start))
        warm_checked += 1
    assert warm_checked > 400
