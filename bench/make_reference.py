"""Record the reference optimum of every exact-solve instance of the suite.

Run from the repository root:

    python3 bench/make_reference.py

Each instance is solved with the generator's vertex labels, in both
branching modes; relabeling the vertices leaves the optimum unchanged.  The
optimum is recorded only when both modes return `optimal` with a feasible
certificate of the claimed size and agree on the value.  Disagreements are
printed and left out, so the benchmark counts those instances as failed.
"""

import json
import sys

import env

env.check_source()

import workloads as W  # noqa: E402


def main():
    reference = {}
    for name, parts in W.WORKLOADS.items():
        for part in parts:
            if part.kind != "exact":
                continue
            for inst in W.pool(part):
                g = W.I.generate(inst.spec)
                values = set()
                for mode in W.MODES:
                    res = W.S.solve(g, W.S.SolveParams(branching=mode, time_limit_seconds=W.BC_TIME_LIMIT))
                    ok = (
                        res.status == "optimal"
                        and W.G.is_feasible(g, res.best)
                        and res.best.size() == res.lower_bound
                    )
                    values.add(res.lower_bound if ok else None)
                if len(values) == 1 and None not in values:
                    reference[inst.id] = values.pop()
                else:
                    print(f"{inst.id}: modes disagree or fail: {values}", file=sys.stderr)
            print(f"{name}: {len(reference)} references so far", file=sys.stderr)
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
