"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload group2 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; it measures the `src/mbsp` beside it.

--trace 0 makes timed passes over the seeded draw until the next pass would
overrun --seconds (at least one), and reports the end-to-end metrics of
BENCHMARK.json: median over passes for times, exact repeats required for
counts and values.  --trace 1 makes one untraced and one traced pass and
reports the per-layer metrics, with the tracing overhead between the two.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Per-call rows, provenance
and (for --trace 1) the spans go to bench/out/.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

env.check_source()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START
SETUP_REPEATS = 5
OUT = env.ROOT / "bench" / "out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def provenance(seed):
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads": env.BLAS_THREADS,
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def _git_sha():
    head = env.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = env.ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def timed_setup(instances, workdir):
    """Set up SETUP_REPEATS times.  Returns the graphs, the ids whose file
    round trip changed the graph, and the time of each set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graphs, bad = W.load(instances, workdir)
        W.warm_up()
        times.append(time.perf_counter() - t0)
    return graphs, bad, times


def timed_passes(instances, graphs, reference, seconds):
    """Passes until the next one would overrun `seconds`; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(W.run_pass(instances, graphs, reference))
        if time.perf_counter() - t0 + (time.perf_counter() - p0) > seconds:
            return passes


def end_to_end(passes, setup_times):
    per_pass = [W.pass_metrics(rows) for rows in passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = IMPORT_S + statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args.seed)
    instances = W.draw(args.workload, args.seed)
    reference = W.load_reference()
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        graphs, bad, setup_times = timed_setup(instances, workdir)
        tracer = None
        if args.trace:
            # one untraced pass, then the same pass traced
            passes = [W.run_pass(instances, graphs, reference)]
            with tracing.Tracer() as tracer:
                with tracer.root("setup", "setup"):
                    W.load(instances, workdir)
                passes.append(W.run_pass(instances, graphs, reference, span=tracer.root))
            metrics = layers.layer_metrics(tracer.spans, passes[0], passes[1])
        else:
            passes = timed_passes(instances, graphs, reference, args.seconds)
            metrics = end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    errors = [f"{i}: file round trip changed the graph" for i in bad]
    for k, rows in enumerate(passes):
        errors += [f"pass {k}: {r['id']} {r['call']}: {r['error']}" for r in rows if r["error"]]
        errors += [
            f"pass {k}: {r['id']} {r['call']}: counts or value differ from pass 0"
            for a, r in zip(passes[0], rows)
            if W.signature(a) != W.signature(r)
        ]
    if tracer is not None:
        errors += [f"{m.__name__}.{key} not restored" for m, key, fn in tracer.patched if getattr(m, key) is not fn]
    # attempted: one file round trip per instance, then every call of every pass
    attempted = len(instances) + sum(len(rows) for rows in passes)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = str(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {
        "workload": args.workload,
        "provenance": prov,
        "setup": {"import_s": IMPORT_S, "repeats_s": setup_times},
        "failed_frac": len(errors) / attempted,
        "errors": errors,
        "passes": passes,
        **result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for i, sp in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, **vars(sp)}) + "\n")
    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
