"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Counts and values must repeat exactly between runs and between traced and
untraced runs (tracing must never change results), and the tracer must
restore every function it wrapped.
"""

import importlib
import json

import env

env.check_source()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _small_instances():
    """Both families, both call kinds, small enough for the brute-force oracle."""
    exact2 = W.Part("exact", 2, 12, (0.5,), (0.25,), 1)
    exact1 = W.Part("exact", 1, 12, (0.5,), (1.0,), 1)
    heur = W.Part("heur", 1, 14, (0.3,), (1.0,), 1)
    return [W.pool(part)[0] for part in (exact2, exact1, heur)]


def _run(instances, graphs, reference, tracer=None):
    span = tracer.root if tracer is not None else None
    return W.run_pass(instances, graphs, reference, span=span)


def test_counts_repeat_and_tracing_changes_nothing(tmp_path):
    instances = _small_instances()
    graphs, bad = W.load(instances, tmp_path)
    assert bad == []
    reference = {inst.id: W.I.brute_force(g)[0] for inst, g in zip(instances, graphs)}

    first = _run(instances, graphs, reference)
    second = _run(instances, graphs, reference)
    with tracing.Tracer() as tracer:
        traced = _run(instances, graphs, reference, tracer)

    assert [r["error"] for r in first] == [None] * len(first)
    assert [W.signature(r) for r in second] == [W.signature(r) for r in first]
    assert [W.signature(r) for r in traced] == [W.signature(r) for r in first]
    assert W.pass_metrics(traced)["ggmz_value_sum"] == W.pass_metrics(first)["ggmz_value_sum"]

    # every wrapped binding is the original again, and no wrapper is left
    assert tracer.patched
    for mod, key, original in tracer.patched:
        assert getattr(mod, key) is original
    for mod in tracing.mbsp_modules():
        assert not [k for k, v in vars(mod).items() if getattr(v, "__traced__", False)]

    m = layers.layer_metrics(tracer.spans, first, traced)
    assert m["lp.solve.calls"] == m["solver.lp_solves"] > 0
    assert m["solver.nodes"] == sum(r.get("nodes", 0) for r in first)
    assert m["spanning.forest.s"] > 0 and m["grasp.local_search.calls"] > 0
    assert abs(m["trace.accounted_frac"] - 1.0 - m["trace.overhead_frac"]) < 0.05


def test_tracer_wraps_names_where_callers_look_them_up():
    G = importlib.import_module("mbsp.ggmz")
    S = importlib.import_module("mbsp.solver")
    with tracing.Tracer():
        assert getattr(G.spanning_forest, "__traced__", False)
        assert getattr(S.is_balanced, "__traced__", False)
        assert getattr(G.switch, "__traced__", False)
    assert not hasattr(G.spanning_forest, "__traced__")


def test_draw_is_seeded_and_covered_by_references():
    reference = W.load_reference()
    for name in W.WORKLOADS:
        a, b = W.draw(name, 7), W.draw(name, 7)
        assert a == b
        assert a != W.draw(name, 8)
        assert all(inst.id in reference for inst in a if inst.kind == "exact")


def test_metric_names_match_benchmark_json():
    e2e = set(W.pass_metrics([])) | {"setup_s", "peak_rss_mb"}
    assert e2e == {m["name"] for m in SPEC["end_to_end"]}
    assert list(layers.layer_metrics([], [], [])) == [m["name"] for m in SPEC["per_layer"]]
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)
