"""Command-line entry point: generate, check, heuristic, solve, bench."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import instances as INST
from . import solver as BC
from .ggmz import StableSetParams, ggmz
from .grasp import GraspParams, grasp
from .graph import is_balanced
from .spanning import TreeStrategy


def _checked(kind, ok, what):
    """argparse type: a number of the given kind for which ok holds."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}: {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _positive(kind):
    return _checked(kind, lambda x: x > 0, "positive")


def _nonnegative(kind):
    return _checked(kind, lambda x: x >= 0, "non-negative")


class InputError(Exception):
    """An input or a path a command cannot use; run() prints it as one line."""


@contextlib.contextmanager
def _about(path):
    """Report a failure to read or write path as an InputError naming it."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: malformed or undecodable text
        # an OSError's str repeats the path, its strerror does not
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise InputError(f"{path}: {reason}") from None


def _read(path):
    with _about(path):
        return INST.read(path)


def _output(path):
    """The stream a command writes to: the file at path, else stdout."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    with _about(path):
        return open(path, "w")


# the option each group requires, and the RandomSpec field it sets
GROUP_OPTIONS = {1: ("ratio", "neg_ratio"), 2: ("parallel", "parallel_frac")}


def cmd_generate(args):
    (option, field), (other, _) = GROUP_OPTIONS[args.group], GROUP_OPTIONS[3 - args.group]
    if getattr(args, other) is not None:
        args.usage_error(f"argument --{other}: not used by group {args.group}")
    if getattr(args, option) is None:
        args.usage_error(f"group {args.group} requires --{option}")
    try:
        spec = INST.RandomSpec(args.n, args.d, args.seed, **{field: getattr(args, option)})
    except ValueError as exc:  # such as an n and d that leave no edge
        raise InputError(exc) from None
    g = INST.generate(spec)
    with _output(args.out) as out:
        out.write(INST.format_instance(g))
    return 0


def cmd_check(args):
    g = _read(args.instance)
    w = is_balanced(g)
    if w is None:
        print("unbalanced")
        return 1
    print("balanced W={%s}" % ",".join(str(v + 1) for v in sorted(w)))
    return 0


def _heuristic(g, method, args):
    """Run the heuristic method ("ggmz" or "grasp") on g with the options in args."""
    if method == "ggmz":
        return ggmz(g, args.tree, StableSetParams(time_limit_seconds=args.time_limit, seed=args.seed))
    return grasp(g, GraspParams(max_iterations=args.iterations, time_limit_seconds=args.time_limit, seed=args.seed))


def _gap_pct(res):
    """The percent gap of a stopped solve; None when optimal or lb is 0."""
    lb = res.lower_bound
    if res.status == "optimal" or lb <= 0:
        return None
    return 100.0 * (res.upper_bound - lb) / lb


def cmd_heuristic(args):
    g = _read(args.instance)
    t0 = time.monotonic()
    p = _heuristic(g, args.method, args)
    elapsed = time.monotonic() - t0
    print(
        json.dumps(
            {
                "method": args.method,
                "value": p.size(),
                "v1": sorted(v + 1 for v in p.v1),
                "v2": sorted(v + 1 for v in p.v2),
                "time_s": round(elapsed, 3),
            }
        )
    )
    return 0


def _result_json(res, elapsed):
    return {
        "lb": res.lower_bound,
        "ub": res.upper_bound,
        "gap_pct": _gap_pct(res),
        "status": res.status,
        "nodes": res.stats["nodes"],
        "time_s": round(elapsed, 3),
        "cuts": res.stats["cuts_by_kind"],
    }


def cmd_solve(args):
    g = _read(args.instance)
    params = BC.SolveParams(time_limit_seconds=args.time_limit, branching=args.branching)
    t0 = time.monotonic()
    res = BC.solve(g, params)
    print(json.dumps(_result_json(res, time.monotonic() - t0)))
    return 0


# ---------------------------------------------------------------------------
# bench harness

CSV_HEADER = "instance,n,m,m_minus,m_plus,m_parallel,method,time_s,status,lb,ub,gap_pct,nodes"


def _bench_one(name, g, method, args):
    # pairs with a negative edge and parallel pairs, each counted from both ends
    n_minus = sum(minus.bit_count() for _, minus in g.sign_masks) // 2
    n_par = sum((plus & minus).bit_count() for plus, minus in g.sign_masks) // 2
    base = {
        "instance": name,
        "n": g.n,
        "m": g.m,
        "m_minus": n_minus - n_par,
        "m_plus": g.m - n_minus - n_par,
        "m_parallel": n_par,
        "method": method,
        "group": 2 if n_par else 1,
    }
    t0 = time.monotonic()
    if method != "bc":
        p = _heuristic(g, method, args)
        base.update(status="heuristic", lb=p.size(), ub="", gap_pct="", nodes="")
    else:
        try:
            res = BC.solve(g, BC.SolveParams(time_limit_seconds=args.time_limit, branching=args.branching))
        except Exception as exc:  # a solver fault becomes an error row, and the bench goes on
            base.update(status=f"error:{type(exc).__name__}", lb="", ub="", gap_pct="", nodes="")
            base["time_s"] = time.monotonic() - t0
            return base
        gap = _gap_pct(res)
        gap = "" if gap is None else f"{gap:.2f}"
        ub = f"{res.upper_bound:.4f}".rstrip("0").rstrip(".")
        base.update(status=res.status, lb=res.lower_bound, ub=ub, gap_pct=gap, nodes=res.stats["nodes"])
    base["time_s"] = time.monotonic() - t0
    return base


def _aggregate(rows, omit_times=False):
    """Per-(group, n, method) cells: avg time over solved '(k)', avg gap over
    unsolved, '-' when nothing solved."""
    cells = {}
    for r in rows:
        key = (r["group"], r["n"], r["method"])
        cells.setdefault(key, []).append(r)
    lines = ["group,n,method,avg_time_solved,avg_gap_unsolved"]
    for key in sorted(cells):
        group, n, method = key
        bucket = cells[key]
        solved = [r for r in bucket if r["status"] in ("optimal", "heuristic")]
        unsolved = [r for r in bucket if r["status"] in ("time_limit", "numerical_error")]
        if not solved:
            time_cell = "-"
        elif omit_times:
            time_cell = f"({len(solved)})"
        else:
            times = [r["time_s"] for r in solved]
            time_cell = f"{sum(times) / len(times):.2f}({len(solved)})"
        gaps = [float(r["gap_pct"]) for r in unsolved if r["gap_pct"] != ""]
        gap_cell = f"{sum(gaps) / len(gaps):.2f}" if gaps else "-"
        lines.append(f"{group},{n},{method},{time_cell},{gap_cell}")
    return lines


def cmd_bench(args):
    with _about(args.dir):
        paths = sorted(e.path for e in os.scandir(args.dir) if e.is_file() and not e.name.startswith("."))
    if not paths:
        raise InputError(f"{args.dir}: no instances")
    # every file is parsed, and the output opened, before any run starts, so
    # a bad input or output path stops the bench at once and is named
    graphs = [(os.path.basename(path), _read(path)) for path in paths]
    methods = args.method or ["bc"]
    with _output(args.out) as out:
        rows = [_bench_one(name, g, method, args) for name, g in graphs for method in methods]
        out_lines = [CSV_HEADER]
        for r in rows:
            time_cell = "" if args.omit_times else f"{r['time_s']:.2f}"
            out_lines.append(",".join(str(r[k]) if k != "time_s" else time_cell for k in CSV_HEADER.split(",")))
        out_lines.append("")
        out_lines.extend(_aggregate(rows, omit_times=args.omit_times))
        out.write("\n".join(out_lines) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mbsp", description=__doc__)
    trees = [s.value for s in TreeStrategy]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--group", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    fraction = _checked(float, lambda x: 0 < x <= 1, "in (0, 1]")
    ratio = _checked(float, lambda x: 0 <= x < math.inf, "non-negative and finite")
    p.add_argument("--d", type=fraction, required=True)
    p.add_argument("--ratio", type=ratio, help="group 1: |E-|/|E+|")
    p.add_argument("--parallel", type=fraction, help="group 2: parallel fraction of |E|")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate, usage_error=p.error)

    p = sub.add_parser("check", help="test balance of an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("heuristic", help="run a heuristic")
    p.add_argument("instance")
    p.add_argument("--method", choices=("ggmz", "grasp"), required=True)
    p.add_argument("--tree", choices=trees, default="bfs", help="ggmz spanning strategy")
    p.add_argument("--iterations", type=_positive(int), default=100)
    p.add_argument("--time-limit", type=_positive(float), default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("solve", help="exact branch-and-cut")
    p.add_argument("instance")
    p.add_argument("--time-limit", type=_nonnegative(float), default=3600.0)
    p.add_argument("--branching", choices=("cycle", "standard"), default="cycle")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run methods over an instance directory")
    p.add_argument("--dir", required=True)
    p.add_argument(
        "--method",
        action="append",
        choices=("ggmz", "grasp", "bc"),
        help="repeatable; default bc",
    )
    p.add_argument("--tree", choices=trees, default="bfs")
    p.add_argument("--branching", choices=("cycle", "standard"), default="cycle")
    p.add_argument("--iterations", type=_positive(int), default=100)
    p.add_argument("--time-limit", type=_positive(float), default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--omit-times", action="store_true", help="blank time cells for byte-reproducible output")
    p.add_argument("--out", help="CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_bench)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"mbsp: error: {exc}", file=sys.stderr)
        return 2  # `check` already exits 1 for "unbalanced"


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
