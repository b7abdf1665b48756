"""Per-layer metrics of a traced pass.

`.s` metrics are self times: a span's duration minus the time its child
spans cover.  The root spans are the benchmark's calls (`bc.*`, `ggmz.*`,
`grasp`), so `solver.self_s`, `ggmz.self_s` and `grasp.self_s` are the time
those entry points spend outside every traced function, and all self times
of a pass add up to its traced call time.  Solver counts come from
`SolveResult.stats` of the traced pass.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

import tracing
import workloads as W

C = importlib.import_module("mbsp.cuts")

CUT_STEPS = ("initial", "pool_scan", "sep_cycle", "lift", "sep_clique", "sep_hole", "rounding")
SEPARATORS = ("sep_cycle", "sep_clique", "sep_hole")
CUT_KINDS = (C.PARALLEL_EDGE, C.ODD_NEG_CYCLE, C.CLIQUE, C.NEG_CLIQUE, C.LIFTED_ODD_HOLE, C.LIFTED_CYCLE)
GRAPH_FUNCS = ("is_balanced", "induced", "switch", "negative_part", "is_feasible")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, plain_rows, traced_rows):
    """Every per-layer metric, keyed by its BENCHMARK.json name."""
    selfs = tracing.self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    notes = defaultdict(list)
    strategy_s = defaultdict(float)
    for sp, own in zip(spans, selfs):
        calls[sp.name] += 1
        busy[sp.name] += own
        if sp.note is not None:
            notes[sp.name].append(sp.note)
        if sp.name == "spanning.forest":
            strategy_s[sp.note["strategy"]] += own
    roots = [(sp, own) for sp, own in zip(spans, selfs) if sp.parent < 0 and sp.name != "setup"]

    def root_self(prefix):
        return sum(own for sp, own in roots if sp.name.startswith(prefix))

    def note_sum(name, key):
        return sum(n[key] for n in notes[name])

    m = {}
    n_lp = calls["lp.solve"]
    m["lp.solve.calls"] = n_lp
    m["lp.solve.s"] = busy["lp.solve"]
    m["lp.solve.ms_mean"] = 1000.0 * _ratio(busy["lp.solve"], n_lp)
    m["lp.rows_mean"] = _ratio(note_sum("lp.solve", "rows"), n_lp)
    m["lp.infeasible_frac"] = _ratio(note_sum("lp.solve", "infeasible"), n_lp)

    for step in CUT_STEPS:
        m[f"cuts.{step}.calls"] = calls[f"cuts.{step}"]
        m[f"cuts.{step}.s"] = busy[f"cuts.{step}"]
    for step in SEPARATORS:
        m[f"cuts.{step}.found"] = note_sum(f"cuts.{step}", "found")
    m["cuts.lift.lifted_frac"] = _ratio(note_sum("cuts.lift", "lifted"), calls["cuts.lift"])
    m["cuts.pool_scan.hit_frac"] = _ratio(note_sum("cuts.pool_scan", "hit"), calls["cuts.pool_scan"])

    exact = [r for r in traced_rows if r["call"].startswith("bc.") and r["value"] is not None]
    m["solver.nodes"] = sum(r["nodes"] for r in exact)
    for mode in W.MODES:
        m[f"solver.nodes.{mode}"] = sum(r["nodes"] for r in exact if r["call"] == f"bc.{mode}")
    m["solver.lp_solves"] = sum(r["lp_solves"] for r in exact)
    m["solver.cuts_added"] = sum(sum(r["cuts_by_kind"].values()) for r in exact)
    for kind in CUT_KINDS:
        m[f"solver.cuts_added.{kind}"] = sum(r["cuts_by_kind"].get(kind, 0) for r in exact)
    m["solver.branch.calls"] = calls["solver.branch"]
    m["solver.branch.s"] = busy["solver.branch"]
    m["solver.children_mean"] = _ratio(note_sum("solver.branch", "children"), calls["solver.branch"])
    m["solver.self_s"] = root_self("bc.")

    for fn in GRAPH_FUNCS:
        m[f"graph.{fn}.calls"] = calls[f"graph.{fn}"]
        m[f"graph.{fn}.s"] = busy[f"graph.{fn}"]

    m["spanning.forest.s"] = busy["spanning.forest"]
    for strategy in W.STRATEGIES:
        m[f"spanning.forest.{strategy.value}.s"] = strategy_s[strategy.value]

    m["ggmz.switch_set.s"] = busy["ggmz.switch_set"]
    m["ggmz.stable_set.s"] = busy["ggmz.stable_set"]
    m["ggmz.self_s"] = root_self("ggmz.")

    m["grasp.construct.calls"] = calls["grasp.construct"]
    m["grasp.construct.s"] = busy["grasp.construct"]
    m["grasp.local_search.calls"] = calls["grasp.local_search"]
    m["grasp.local_search.s"] = busy["grasp.local_search"]
    m["grasp.improve_frac"] = _ratio(note_sum("grasp.local_search", "improved"), calls["grasp.local_search"])
    m["grasp.self_s"] = root_self("grasp")

    m["instances.generate.s"] = busy["instances.generate"]
    m["instances.io.s"] = busy["instances.io"]

    plain_s = sum(r["s"] for r in plain_rows)
    traced_s = sum(r["s"] for r in traced_rows)
    m["trace.spans"] = len(spans)
    m["trace.overhead_frac"] = _ratio(traced_s - plain_s, plain_s)
    # all self times of the traced calls over the untraced call time:
    # 1 + overhead_frac when the layers account for all of it
    m["trace.accounted_frac"] = _ratio(
        sum(own for sp, own in zip(spans, selfs) if sp.trace != "setup"), plain_s
    )
    return m
