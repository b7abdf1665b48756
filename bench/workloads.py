"""Benchmark workloads: seeded instance draws, set-up, and the timed pass.

A workload is a closed loop: one caller makes every call in turn, and each
call starts only after the previous one has returned.  The program sees only
the `SignedGraph`s generated here.

Instances come from a pinned suite: each grid cell holds the instances with
generator seeds 1..per_cell.  The workload seed relabels the vertices of
every instance by a seeded random permutation, so each seed gives the
program different (isomorphic) inputs with the same optima, and the checks
catch a solver that depends on labels.  Drawing different instances per seed
would spread the summed times far more: within one cell, solve times vary
with a coefficient of variation of 0.4 to 0.8, against about 0.25 for a
relabeling of one instance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import os
import random
import time
from pathlib import Path

I = importlib.import_module("mbsp.instances")
S = importlib.import_module("mbsp.solver")
G = importlib.import_module("mbsp.graph")
# `mbsp.ggmz` and `mbsp.grasp` are shadowed by functions of the same name in
# the package namespace, so the modules are reached through sys.modules.
GGMZ = importlib.import_module("mbsp.ggmz")
GRASP = importlib.import_module("mbsp.grasp")
SPANNING = importlib.import_module("mbsp.spanning")

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DENSITIES = (0.25, 0.5, 0.75)
PARALLEL_FRACS = (0.25, 0.5, 0.75)  # group 2: |E- and E+| / |E|
NEG_RATIOS = (0.5, 1.0, 2.0)  # group 1: |E-| / |E+|

MODES = (S.CYCLE, S.STANDARD)
STRATEGIES = tuple(SPANNING.TreeStrategy)
GRASP_ITERATIONS = 5
NEVER = 1e9  # a time limit that never binds
BC_TIME_LIMIT = 120.0  # hitting it counts as a failed call
TAIL = 10  # bc_tail_mean_s averages the TAIL slowest exact solves


@dataclasses.dataclass(frozen=True)
class Part:
    """One family slice of a workload: exact solves or heuristic runs."""

    kind: str  # "exact" or "heur"
    group: int
    n: int
    densities: tuple
    params: tuple  # parallel fractions (group 2) or negative ratios (group 1)
    per_cell: int  # generator seeds 1..per_cell in every cell


# Every workload runs all four call kinds, so every end-to-end metric is
# measured on each.  Exact solves use the largest n whose whole grid fits in
# one run; the heuristics use larger graphs, where Kruskal forests (dense)
# and GRASP local search (sparse) dominate.
WORKLOADS = {
    "group2": (
        Part("exact", 2, 30, DENSITIES, PARALLEL_FRACS, 5),
        Part("heur", 2, 60, (0.5,), PARALLEL_FRACS, 1),
    ),
    "group1": (
        Part("exact", 1, 25, DENSITIES, NEG_RATIOS, 4),
        Part("heur", 1, 60, (0.5,), NEG_RATIOS, 1),
        Part("heur", 1, 40, (0.1,), NEG_RATIOS, 1),
    ),
}


@dataclasses.dataclass(frozen=True)
class Instance:
    id: str
    kind: str
    spec: object  # mbsp.instances.RandomSpec
    perm: tuple = None  # vertex relabeling; None keeps the generator's labels


def pool(part):
    """Every instance of a part's grid, one round of all cells per seed."""
    tag, key = ("f", "parallel_frac") if part.group == 2 else ("r", "neg_ratio")
    return [
        Instance(
            f"g{part.group}-n{part.n}-d{d}-{tag}{x}-s{s}",
            part.kind,
            I.RandomSpec(part.n, d, seed=s, **{key: x}),
        )
        for s in range(1, part.per_cell + 1)
        for d in part.densities
        for x in part.params
    ]


def draw(workload, seed):
    """The workload's instances for a seed: the pinned suite, each instance
    with its own seeded vertex relabeling.

    The parts are interleaved evenly, and pool() spreads each cell over the
    pass, so every metric samples the whole run: the machine's speed drifts
    over tens of seconds, and a call kind timed in one block of the run
    spread twice as much between runs as the run's total time.
    """
    rng = random.Random(seed)
    keyed = []
    for j, part in enumerate(WORKLOADS[workload]):
        insts = pool(part)
        for i, inst in enumerate(insts):
            perm = list(range(part.n))
            rng.shuffle(perm)
            keyed.append(((i + 0.5) / len(insts), j, dataclasses.replace(inst, perm=tuple(perm))))
    return [inst for _, _, inst in sorted(keyed, key=lambda t: t[:2])]


def graph(inst):
    """Generate an instance's graph and apply its relabeling."""
    g = I.generate(inst.spec)
    if inst.perm is None:
        return g
    p = inst.perm
    return G.build(g.n, [(p[u], p[v], s) for u, v, s in g.edges])


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up


WARMUP_SPEC = I.RandomSpec(14, 0.5, seed=1, parallel_frac=0.25)


def load(instances, workdir):
    """Generate the graphs and round-trip each through the text format.
    Returns (graphs, ids whose round trip changed the graph)."""
    graphs = [graph(inst) for inst in instances]
    workdir.mkdir(parents=True, exist_ok=True)
    bad = []
    for inst, g in zip(instances, graphs):
        path = workdir / f"{inst.id}.txt"
        I.write(g, path)
        back = I.read(path)
        os.remove(path)
        if back.n != g.n or sorted(back.edges) != sorted(g.edges):
            bad.append(inst.id)
    return graphs, bad


def warm_up():
    """Make each call kind once on a small graph before anything is timed."""
    warm = I.generate(WARMUP_SPEC)
    for mode in MODES:
        S.solve(warm, S.SolveParams(branching=mode))
    GGMZ.ggmz(warm, SPANNING.TreeStrategy.KRUSKAL_ADAPTIVE, GGMZ.StableSetParams(time_limit_seconds=NEVER))
    GRASP.grasp(warm, GRASP.GraspParams(max_iterations=1, time_limit_seconds=NEVER))


# ---------------------------------------------------------------------------
# the timed pass


def _check_exact(g, res, optimum):
    """Row fields and error (None if correct) of one exact solve."""
    stats = res.stats
    row = {
        "value": res.lower_bound,
        "nodes": stats["nodes"],
        "lp_solves": stats["lp_solves"],
        "cuts_by_kind": dict(sorted(stats["cuts_by_kind"].items())),
    }
    error = None
    if res.status != "optimal":
        error = f"status {res.status}"
    elif not G.is_feasible(g, res.best) or res.best.size() != res.lower_bound:
        error = "certificate is not a feasible bipartition of the claimed size"
    elif float(res.lower_bound) != res.upper_bound:
        error = f"bounds differ: {res.lower_bound} < {res.upper_bound}"
    elif optimum is None:
        error = "no reference optimum"
    elif res.lower_bound != optimum:
        error = f"value {res.lower_bound} != reference {optimum}"
    return row, error


def _check_heur(g, p, optimum):
    error = None
    if not G.is_feasible(g, p):
        error = "infeasible bipartition"
    elif optimum is not None and p.size() > optimum:
        error = f"value {p.size()} above reference optimum {optimum}"
    return {"value": p.size()}, error


def _calls(inst, g, optimum):
    """(name, run, check) for every call the pass makes on one instance:
    both exact modes on exact instances, all GGMZ trees on heuristic ones,
    and GRASP on both."""
    heur_check = lambda p: _check_heur(g, p, optimum)  # noqa: E731
    if inst.kind == "exact":
        calls = [
            (
                f"bc.{mode}",
                lambda p=S.SolveParams(branching=mode, time_limit_seconds=BC_TIME_LIMIT): S.solve(g, p),
                lambda res: _check_exact(g, res, optimum),
            )
            for mode in MODES
        ]
    else:
        calls = [
            (
                f"ggmz.{s.value}",
                lambda s=s, p=GGMZ.StableSetParams(time_limit_seconds=NEVER): GGMZ.ggmz(g, s, p),
                heur_check,
            )
            for s in STRATEGIES
        ]
    params = GRASP.GraspParams(max_iterations=GRASP_ITERATIONS, time_limit_seconds=NEVER)
    calls.append(("grasp", lambda: GRASP.grasp(g, params), heur_check))
    return calls


def run_pass(instances, graphs, reference, span=None):
    """Make every call of the workload once, in order, and check each result.

    `span(name, trace_id)` returns a context manager wrapped around each
    call (not around its check); the traced run passes its tracer's root
    span here.  Returns one row per call.  A call that raises or fails a
    check is recorded in its row, and the pass goes on.
    """
    if span is None:
        span = lambda name, trace_id: contextlib.nullcontext()  # noqa: E731
    rows = []
    for inst, g in zip(instances, graphs):
        for name, run, check in _calls(inst, g, reference.get(inst.id)):
            t0, dt = time.perf_counter(), None
            try:
                with span(name, f"{inst.id}/{name}"):
                    t0 = time.perf_counter()
                    out = run()
                    dt = time.perf_counter() - t0
                row, error = check(out)
            except Exception as exc:  # a raising call is a failed call, not a crash
                if dt is None:
                    dt = time.perf_counter() - t0
                row, error = {"value": None}, f"{type(exc).__name__}: {exc}"
            rows.append({"id": inst.id, "call": name, "s": dt, **row, "error": error})
    return rows


def signature(row):
    """The parts of a row that must repeat exactly between runs."""
    return {k: v for k, v in row.items() if k not in ("s", "error")}


def pass_metrics(rows):
    """End-to-end metrics of one pass (setup and memory are added by the caller)."""

    def total(prefix, key):
        return sum(r[key] or 0 for r in rows if r["call"].startswith(prefix))

    # the mean beyond the highest percentile that has TAIL solves beyond it;
    # steadier between seeds than that percentile or the maximum
    tail = sorted((r["s"] for r in rows if r["call"].startswith("bc.")), reverse=True)[:TAIL]
    return {
        "bc_cycle_s": total("bc.cycle", "s"),
        "bc_standard_s": total("bc.standard", "s"),
        "bc_tail_mean_s": sum(tail) / len(tail) if tail else 0.0,
        "ggmz_s": total("ggmz.", "s"),
        "grasp_s": total("grasp", "s"),
        "ggmz_value_sum": total("ggmz.", "value"),
        "grasp_value_sum": total("grasp", "value"),
    }
