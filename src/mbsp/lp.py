"""Bounded dual simplex for the solver's LP relaxations.

One dense-tableau dual simplex, maximizing.  Every structural is box-bounded,
so a cold start is always dual feasible, and no phase 1 is needed: the slack
basis with each structural at the bound its objective coefficient favours.

A warm start takes the statuses of an earlier optimal basis
(`LpSolution.basis`).  Adding rows whose slacks start basic, deleting rows
whose slacks are basic, and tightening or fixing bounds all leave that basis
dual feasible, so the dual simplex only has to repair primal infeasibility.
The tableau is factored once per solve from the original columns, so no
drift carries over from earlier solves.  An unusable start falls back to a
cold solve.

Pricing is dual Dantzig (most infeasible row, then the ratio test broken by
the largest pivot), with Bland's rule after a run of degenerate pivots; see
Koberstein (2005), *The dual simplex method, techniques for a fast and stable
implementation*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-7  # row / bound feasibility
OPT_TOL = 1e-9  # reduced-cost optimality
PIVOT_TOL = 1e-9  # smallest usable pivot
_INF = float("inf")

LE, EQ, GE = "<=", "=", ">="
LOWER, UPPER, BASIC = 0, 1, 2  # variable statuses


class NumericalError(RuntimeError):
    """Simplex iteration cap exceeded or dual feasibility lost; distinct from
    infeasibility."""


@dataclass
class LinearProgram:
    """max c.y subject to rows (a, rel, b) and box bounds per variable.

    A row's coefficients a are a float array of length n; a dict
    {var: coef} is converted to one on construction.
    """

    objective: list
    rows: list = field(default_factory=list)  # (coeffs, rel, rhs)
    bounds: list = None  # (lo, hi) per variable

    def __post_init__(self):
        if self.bounds is None:
            self.bounds = [(0.0, 1.0)] * len(self.objective)
        box = np.asarray(self.bounds, dtype=float).reshape(-1, 2)
        if not (np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
            raise ValueError("variable bounds must be finite with lo <= hi")
        self.rows = [
            (_dense(a, self.n), rel, rhs) if isinstance(a, dict) else (a, rel, rhs)
            for a, rel, rhs in self.rows
        ]

    @property
    def n(self) -> int:
        return len(self.objective)


def _dense(coeffs, n):
    row = np.zeros(n)
    for j, a in coeffs.items():
        row[j] += a
    return row


class Basis(NamedTuple):
    """Statuses (LOWER, UPPER or BASIC) of a basis, for a warm start."""

    cols: tuple  # one per structural
    rows: tuple  # one per row's slack; None marks a new row, whose slack starts basic


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible"
    values: np.ndarray = None
    objective_value: float = None
    basis: Basis = None  # final statuses when optimal
    pivots: int = 0
    cold_start: bool = True


def solve(lp: LinearProgram, start: Basis = None) -> LpSolution:
    """Solve lp, warm from `start` when it is a usable basis, else cold."""
    if start is not None:
        try:
            sol = _dual_simplex(lp, start)
        except NumericalError:
            sol = None
        if sol is not None:
            return sol
    return _dual_simplex(lp, None)


def add_rows_and_resolve(lp: LinearProgram, sol: LpSolution, new_rows) -> LpSolution:
    """Solve lp extended with new_rows, warm from sol's basis.

    The new rows' slacks join the basis, so the previous optimal basis stays
    dual feasible and only the rows it violates need pivots.
    """
    extended = LinearProgram(list(lp.objective), list(lp.rows) + list(new_rows), list(lp.bounds))
    start = None
    if sol.basis is not None:
        start = Basis(sol.basis.cols, tuple(sol.basis.rows) + (None,) * len(new_rows))
    return solve(extended, start)


def _dual_simplex(lp: LinearProgram, start):
    """Run the dual simplex from start, or from the slack basis when start is
    None; None if start is unusable."""
    n, m = lp.n, len(lp.rows)
    ncols = n + m
    # the tableau [B^-1 A | x_B] over [reduced costs | -], first filled with
    # [A | b]; columns: structurals | slacks, with a.y + s = b
    tab = np.zeros((m + 1, ncols + 1))
    A, b = tab[:m, :ncols], tab[:m, -1]
    lo = np.zeros(ncols)
    hi = np.zeros(ncols)
    lo[:n] = [bb[0] for bb in lp.bounds]
    hi[:n] = [bb[1] for bb in lp.bounds]
    if m:
        A[:, :n] = [a for a, _, _ in lp.rows]
        b[:] = [rhs for _, _, rhs in lp.rows]
        np.fill_diagonal(A[:, n:], 1.0)
    for i, (_, rel, _) in enumerate(lp.rows):
        if rel == LE:
            hi[n + i] = _INF
        elif rel == GE:
            lo[n + i] = -_INF
        elif rel != EQ:
            raise ValueError(f"bad relation {rel!r}")
    if not np.isfinite(tab).all():
        raise ValueError("row coefficients and right-hand sides must be finite")
    c = np.zeros(ncols)
    c[:n] = lp.objective

    cold = start is None
    if cold:
        # B = I factors exactly, so the tableau below is [A | b] over c
        start = Basis(tuple(np.where(c[:n] > 0, UPPER, LOWER)), (None,) * m)
    if len(start.cols) != n or len(start.rows) != m:
        return None
    status = np.array(list(start.cols) + [BASIC if s is None else s for s in start.rows])
    basis = np.nonzero(status == BASIC)[0]
    if basis.size != m:
        return None
    # a nonbasic slack sits at its one finite bound, 0
    at_upper = status == UPPER
    at_upper[n:] = np.isinf(lo[n:])
    movable = (status != BASIC) & (hi > lo)

    try:
        tab[:m] = np.linalg.solve(A[:, basis], tab[:m])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(tab).all() or np.abs(tab[:m, basis] - np.eye(m)).max(initial=0.0) > 1e-9:
        return None
    tab[m, :ncols] = c - c[basis] @ tab[:m, :ncols]
    tab[m, basis] = 0.0
    # a structural whose reduced cost favours its other bound moves there;
    # a slack cannot, so that start is unusable
    d = tab[m, :ncols]
    wrong = movable & np.where(at_upper, d < -OPT_TOL, d > OPT_TOL)
    if wrong[n:].any():
        return None
    at_upper[wrong] = ~at_upper[wrong]
    x = np.where(at_upper, hi, lo)
    x[basis] = 0.0
    tab[:m, -1] -= tab[:m, :ncols] @ x

    max_pivots = max(200, 50 * (m + ncols))
    bland_after = 3 * max(1, ncols)
    pivots = degenerate = 0
    lo_b, hi_b = lo[basis], hi[basis]  # the bounds of the basic variables
    # the direction an entering variable may move: down (+1) from its upper
    # bound, up (-1) from its lower one, 0 when it cannot enter
    sign = np.where(movable, np.where(at_upper, 1.0, -1.0), 0.0)
    while True:
        xb = tab[:m, -1]
        infeas = np.maximum(lo_b - xb, xb - hi_b)
        rows = (infeas > FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            break
        bland = degenerate >= bland_after
        r = int(rows[basis[rows].argmin()] if bland else rows[infeas[rows].argmax()])
        leave = basis[r]
        raise_leaving = xb[r] < lo_b[r]
        alpha = tab[r, :ncols] if raise_leaving else -tab[r, :ncols]
        # entering candidates move the leaving variable towards its bound
        cand = (alpha * sign > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return LpSolution(status="infeasible", pivots=pivots, cold_start=cold)
        ratios = np.maximum(tab[m, cand] / alpha[cand], 0.0)
        t = ratios.min()
        ties = cand[ratios <= t + 1e-12]
        q = int(ties[0] if bland else ties[np.abs(alpha[ties]).argmax()])
        degenerate = degenerate + 1 if t <= 1e-12 else 0

        pivots += 1
        if pivots > max_pivots:
            raise NumericalError("simplex iteration cap exceeded")
        x_enter = hi[q] if at_upper[q] else lo[q]
        col = tab[:, q].copy()
        tab[r] /= col[r]
        col[r] = 0.0
        tab -= col[:, None] * tab[r]
        # x_B was B^-1 (b - A_N x_N) for the old nonbasic set
        x_leave = lo_b[r] if raise_leaving else hi_b[r]
        tab[:m, -1] -= tab[:m, leave] * x_leave
        tab[r, -1] += x_enter
        at_upper[leave] = not raise_leaving
        sign[leave] = (-1.0 if raise_leaving else 1.0) if hi[leave] > lo[leave] else 0.0
        sign[q] = 0.0
        basis[r] = q
        lo_b[r], hi_b[r] = lo[q], hi[q]

    d = c - c[basis] @ tab[:m, :ncols]
    if (d * sign < -OPT_TOL).any():
        raise NumericalError("reduced costs lost dual feasibility")
    x = np.where(at_upper, hi, lo)
    x[basis] = tab[:m, -1]
    status = np.where(at_upper, UPPER, LOWER)
    status[basis] = BASIC
    values = x[:n]
    return LpSolution(
        status="optimal",
        values=values,
        objective_value=float(c[:n] @ values),
        basis=Basis(tuple(status[:n].tolist()), tuple(status[n:].tolist())),
        pivots=pivots,
        cold_start=cold,
    )
