"""Exact MBSP solver: best-bound-first branch-and-cut with cycle branching."""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from time import perf_counter

from . import cuts as C
from . import lp as LP
from .graph import Bipartition, SignedGraph

INT_TOL = 1e-6
BINDING_TOL = 1e-6
MAX_CUT_ROUNDS = 10  # cut rounds at a node before it branches on a fractional point
MAX_CUTS_PER_ROUND = 100  # rows one round may add, from the pool or the separators
# a row whose slack exceeds DROP_SLACK leaves the node's LP, and a child
# inherits the rows within INHERIT_SLACK; slacks at LP vertices often sit
# exactly on 0.1 or 0.01, and the margin keeps such a row whatever the last
# bit of its product
DROP_SLACK = 0.1 + 1e-9
INHERIT_SLACK = 0.01 + 1e-9

CYCLE = "cycle"
STANDARD = "standard"

# the keys of SolveResult.stats["time_by_phase"]; sep_hole includes the
# lifting of odd holes, lift is the lifting of odd negative cycles
PHASES = ("lp", "pool_scan", "sep_cycle", "lift", "sep_clique", "sep_hole", "rounding", "branch")


@dataclass
class SolveParams:
    time_limit_seconds: float = 3600.0
    branching: str = CYCLE  # "cycle" | "standard"

    def __post_init__(self):
        if not self.time_limit_seconds >= 0:  # also rejects NaN
            raise ValueError(f"time_limit_seconds must be non-negative, got {self.time_limit_seconds}")
        if self.branching not in (CYCLE, STANDARD):
            raise ValueError(f"unknown branching mode {self.branching!r}")


@dataclass
class SearchNode:
    fixings: dict  # var -> 0 or 1
    extra_rows: list  # branching rows (coeffs, rel, rhs); a child's extends its parent's
    bound: float
    cuts: tuple  # pool rows the cut loop starts from: the initial formulation at the root, else inherited
    basis: tuple = None  # (column statuses, {row name: status} of nonbasic rows); _build_lp names rows


@dataclass
class SolveResult:
    best: Bipartition
    lower_bound: int
    upper_bound: float
    status: str  # "optimal" | "time_limit" | "numerical_error"
    stats: dict = field(default_factory=dict)


def _is_integral(y):
    return all(v <= INT_TOL or v >= 1.0 - INT_TOL for v in y)


def branch(node: SearchNode, y, binding_cuts, mode: str):
    """Create 2 or 3 children partitioning the node's integral region; cycle
    branching picks among the support cycles of the binding_cuts at y."""
    frac = [i for i, v in enumerate(y) if INT_TOL < v < 1.0 - INT_TOL]
    if not frac:
        raise ValueError("branch() requires a fractional point")

    cycle = None
    if mode == CYCLE:
        candidates = []
        for cut in binding_cuts:
            if cut.support_cycle is None:
                continue
            if not any(INT_TOL < y[v] < 1.0 - INT_TOL for v in cut.support_cycle):
                continue
            candidates.append(tuple(sorted(cut.support_cycle)))
        if candidates:
            cycle = min(candidates, key=lambda c: (len(c), c))

    def child(fixings, rows):
        # children inherit the node's bound, cuts and basis
        return replace(node, fixings=fixings, extra_rows=list(rows))

    children = []
    if cycle is None:
        i = min(frac, key=lambda v: (abs(y[v] - 0.5), v))
        for val in (0, 1):
            children.append(child({**node.fixings, i: val}, node.extra_rows))
        return children

    frac_in_cycle = [v for v in cycle if INT_TOL < y[v] < 1.0 - INT_TOL]
    i_star = min(frac_in_cycle, key=lambda v: (abs(y[v] - 0.5), v))
    c2 = [v for v in cycle if v != i_star]
    row = ({v: 1.0 for v in c2}, "<=", float(len(c2) - 1))
    # two cycles sharing C2 give the same row; the node may already have it
    rows = list(node.extra_rows)
    if row not in rows:
        rows.append(row)

    # (i) i* out, all of C2 in
    if not any(node.fixings.get(v) == 0 for v in c2):
        children.append(child({**node.fixings, i_star: 0, **{v: 1 for v in c2}}, node.extra_rows))
    # (ii) i* in, C2 not all in
    children.append(child({**node.fixings, i_star: 1}, rows))
    # (iii) i* out, C2 not all in
    children.append(child({**node.fixings, i_star: 0}, rows))
    return children


def _build_lp(g, active, node: SearchNode, pool):
    """The node's LP over the pool rows active and its branching rows, and
    a name per row: a cut's pool row, or ~k for the k-th branching row.

    A cut's row is the pool's array; a branching row goes in as a dict.
    """
    bounds = [(0.0, 1.0)] * g.n
    for i, fx in node.fixings.items():
        bounds[i] = (float(fx), float(fx))
    mat, rhs = pool.dense(active)
    rows = [(a, LP.LE, b) for a, b in zip(mat, rhs)] + node.extra_rows
    names = [*active, *(~k for k in range(len(node.extra_rows)))]
    return LP.LinearProgram([1.0] * g.n, rows, bounds), names


def solve(g: SignedGraph, params: SolveParams = None) -> SolveResult:
    """Best-bound-first branch-and-cut over formulation relaxations."""
    if params is None:
        params = SolveParams()
    start = time.monotonic()
    deadline = start + params.time_limit_seconds

    # seconds per phase of the cut loop and branching, from perf_counter:
    # never from the clock the deadline reads, so timing moves no stop
    phase = dict.fromkeys(PHASES, 0.0)
    stats = {
        "nodes": 0, "lp_solves": 0, "lp_pivots": 0, "lp_cold_starts": 0,
        "cuts_by_kind": {}, "wall_time": 0.0, "time_by_phase": phase,
    }

    def timed(name, fn, *args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            phase[name] += perf_counter() - t

    # the clique and odd-hole separators search the conflict graph of the
    # parallel pairs; without a parallel pair they are not called
    parallel = any(plus & minus for plus, minus in g.sign_masks)
    pool = C.CutPool(g.n)
    initial = tuple(pool.add(cut) for cut in C.initial_formulation(g))

    best = Bipartition()
    lb = 0

    def note_cut(cut):
        stats["cuts_by_kind"][cut.kind] = stats["cuts_by_kind"].get(cut.kind, 0) + 1

    root = SearchNode({}, [], float(g.n), initial)
    counter = 0
    heap = [(-root.bound, counter, root)]
    status = "optimal"

    while heap and status == "optimal":
        if time.monotonic() >= deadline:
            status = "time_limit"
            break
        _, _, node = heapq.heappop(heap)
        if node.bound <= lb + 1 - INT_TOL:
            continue
        stats["nodes"] += 1

        # cut loop from the rows that were tight at the parent (the root's
        # are the full formulation); the pool re-supplies anything that
        # becomes violated again
        active = list(node.cuts)
        rounds = 0
        prev_bound = None
        prune = False
        # every LP starts from the last optimal basis, the parent's at first;
        # rows the basis does not name are new or had basic slacks
        basis = node.basis
        while True:
            lp_, names = _build_lp(g, active, node, pool)
            warm = None
            if basis is not None:
                cols, nonbasic_rows = basis
                warm = LP.Basis(cols, tuple(nonbasic_rows.get(k) for k in names))
            try:
                sol = timed("lp", LP.solve, lp_, warm)
            except LP.NumericalError:
                # the node goes back open at its own bound, which is valid,
                # and the search stops as at a deadline
                counter += 1
                heapq.heappush(heap, (-node.bound, counter, node))
                status = "numerical_error"
                prune = True
                break
            stats["lp_solves"] += 1
            stats["lp_pivots"] += sol.pivots
            stats["lp_cold_starts"] += sol.cold_start
            if sol.status != "optimal":
                prune = True
                break
            basis = (
                sol.basis.cols,
                {k: s for k, s in zip(names, sol.basis.rows) if s != LP.BASIC},
            )
            bound = sol.objective_value
            y = sol.values.tolist()
            if bound <= lb + 1 - INT_TOL:
                prune = True
                break
            # every incumbent comes from the rounding; on a balanced integral
            # point it keeps that point's whole set, so the node is pruned
            p = timed("rounding", C.rounding_heuristic, g, y)
            if p.size() > lb:
                best, lb = p, p.size()
                if bound <= lb + 1 - INT_TOL:
                    prune = True
                    break
            # an integral point left open is unbalanced: separation must cut it off
            integral = _is_integral(y)
            stalled = prev_bound is not None and prev_bound - bound < 0.005
            if (rounds >= MAX_CUT_ROUNDS or stalled) and not integral:
                break
            prev_bound = bound
            if time.monotonic() >= deadline:
                # the node goes back open at its LP bound, and the deadline
                # check of the search loop stops the search
                counter += 1
                heapq.heappush(heap, (-bound, counter, node))
                prune = True
                break
            # the pool scan is a matrix product, so it takes the array
            new_rows = timed("pool_scan", C.scan_pool, pool, sol.values, MAX_CUTS_PER_ROUND)
            if not new_rows:
                cycles = timed("sep_cycle", C.separate_odd_negative_cycle, g, y, MAX_CUTS_PER_ROUND)
                new_cuts = [timed("lift", C.lift_odd_negative_cycle, g, cut) for cut in cycles]
                if parallel and len(new_cuts) < MAX_CUTS_PER_ROUND:
                    limit = MAX_CUTS_PER_ROUND - len(new_cuts)
                    new_cuts += timed("sep_clique", C.separate_clique, g, y, limit=limit)
                if parallel and len(new_cuts) < MAX_CUTS_PER_ROUND:
                    limit = MAX_CUTS_PER_ROUND - len(new_cuts)
                    new_cuts += timed("sep_hole", C.separate_lifted_odd_hole, g, y, limit=limit)
                new_rows = [pool.add(cut) for cut in new_cuts]
            if not new_rows:
                break
            if not integral:
                # rows gone slack at the current point only pad the tableau;
                # the pool re-supplies any that become violated again
                viol = pool.violations(active, sol.values).tolist()
                active = [i for i, v in zip(active, viol) if v >= -DROP_SLACK]
            in_active = set(active)
            fresh = [i for i in dict.fromkeys(new_rows) if i not in in_active]
            if not fresh:
                break
            active += fresh
            for i in fresh:
                note_cut(pool[i])
            rounds += 1

        if prune:
            continue
        if integral:
            # unbalanced integral point survived the cut loop: branch cannot
            # help, but exact separation guarantees this is unreachable
            raise AssertionError("integral infeasible point not separated")

        # children inherit only the cuts still doing work at this node's point;
        # anything dropped stays in the pool and can return via scan_pool
        viol = pool.violations(active, sol.values).tolist()
        tight = tuple(i for i, v in zip(active, viol) if v >= -INHERIT_SLACK)
        binding = [pool[i] for i, v in zip(active, viol) if abs(v) <= BINDING_TOL]
        node = SearchNode(node.fixings, node.extra_rows, bound, tight, basis)
        for child in timed("branch", branch, node, y, binding, params.branching):
            counter += 1
            heapq.heappush(heap, (-bound, counter, child))

    stats["wall_time"] = time.monotonic() - start
    # at a stop, the best open node bounds every unexplored region
    ub = float(lb) if status == "optimal" else float(max(lb, -heap[0][0]))
    return SolveResult(best, lb, ub, status, stats)
