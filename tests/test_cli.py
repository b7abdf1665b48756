import json
import os

import pytest

from mbsp import cli
from mbsp import graph as G
from mbsp import instances as I
from mbsp import solver as S
from mbsp.ggmz import StableSetParams, ggmz
from mbsp.spanning import TreeStrategy

import adjacency as A


def run_cli(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_writes_parseable_instance(tmp_path, capsys):
    path = tmp_path / "g.mbsp"
    code, _, _ = run_cli(
        ["generate", "--group", "1", "--n", "12", "--d", "0.5", "--ratio", "1.0",
         "--seed", "3", "--out", str(path)],
        capsys,
    )
    assert code == 0
    g = I.read(path)
    expect = I.generate(I.RandomSpec(12, 0.5, seed=3, neg_ratio=1.0))
    assert g.n == expect.n and set(g.edges) == set(expect.edges)


def test_generate_to_stdout(capsys):
    code, out, _ = run_cli(
        ["generate", "--group", "2", "--n", "8", "--d", "0.6", "--parallel", "0.5",
         "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert A.parallel(I.parse_instance(out))


def test_generate_group1_requires_ratio(capsys):
    with pytest.raises(SystemExit):
        cli.run(["generate", "--group", "1", "--n", "8", "--d", "0.5"])


@pytest.mark.parametrize(
    "args, message",
    [
        (["--group", "1", "--n", "-5", "--d", "0.5", "--ratio", "1"], "n must be non-negative, got -5"),
        (["--group", "1", "--n", "1", "--d", "0.5", "--ratio", "1"], "density too low: no edges"),
        (["--group", "2", "--n", "4", "--d", "0.1", "--parallel", "0.5"], "density too low: no edges"),
        (
            ["--group", "1", "--n", "8", "--d", "0.5", "--ratio", "1", "--out", "{tmp}/none/g.mbsp"],
            "{tmp}/none/g.mbsp: No such file or directory",
        ),
    ],
    ids=["negative-n", "no-edge-g1", "no-edge-g2", "out-in-missing-dir"],
)
def test_generate_input_error_is_a_one_line_error(tmp_path, capsys, args, message):
    code, out, err = run_cli(["generate"] + [a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 2
    assert out == ""
    assert err == f"mbsp: error: {message.format(tmp=tmp_path)}\n"


def test_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("MBSP_SEED", "11")
    code, out, _ = run_cli(
        ["generate", "--group", "1", "--n", "8", "--d", "0.5", "--ratio", "1.0"],
        capsys,
    )
    assert code == 0
    assert out == I.format_instance(I.generate(I.RandomSpec(8, 0.5, seed=0, neg_ratio=1.0)))


def test_check_balanced(tmp_path, capsys):
    path = tmp_path / "b.mbsp"
    I.write(I.generate_balanced(10, 0.5, seed=0), path)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0
    assert out.startswith("balanced W={")


def test_check_unbalanced(tmp_path, capsys):
    path = tmp_path / "u.mbsp"
    I.write(G.build(3, [(0, 1, "-"), (1, 2, "-"), (0, 2, "-")]), path)
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 1
    assert out.startswith("unbalanced")


# an instance path that cannot be read: the bytes at it (None: nothing is
# there, DIR: a directory), and the start of the reason its error gives
DIR = object()
BAD_INSTANCES = {
    "negative-n": (b"p mbsp -1 0\n", "line 1: "),
    "vertex-out-of-range": (b"p mbsp 3 1\ne 1 4 +\n", "line 2: "),
    "repeated-edge": (b"p mbsp 3 2\ne 1 2 +\ne 2 1 +\n", "line 3: "),
    "undecodable": (b"p mbsp 2 0\n\xff\n", "'utf-8' codec can't decode"),
    "missing": (None, "No such file or directory"),
    "directory": (DIR, "Is a directory"),
}


def make_bad(path, case):
    content, _ = BAD_INSTANCES[case]
    if content is DIR:
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    return path


def assert_one_line_error(code, out, err, prefix):
    assert code == 2
    assert out == ""
    assert err.startswith(f"mbsp: error: {prefix}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("case", list(BAD_INSTANCES))
@pytest.mark.parametrize(
    "args", [["check"], ["heuristic", "--method", "ggmz"], ["solve"]], ids=lambda a: a[0]
)
def test_malformed_instance_is_a_one_line_error(tmp_path, capsys, case, args):
    path = make_bad(tmp_path / "bad.mbsp", case)
    code, out, err = run_cli(args[:1] + [str(path)] + args[1:], capsys)
    assert_one_line_error(code, out, err, f"{path}: {BAD_INSTANCES[case][1]}")


@pytest.mark.parametrize(
    "case",
    ["vertex-out-of-range", "undecodable", "missing-dir", "dir-is-a-file", "empty-dir", "out-in-missing-dir"],
)
def test_bench_malformed_instance_is_a_one_line_error(tmp_path, capsys, monkeypatch, case):
    # every bad path stops the bench before its first run
    monkeypatch.setattr(cli, "_bench_one", lambda *args: pytest.fail("a run started"))
    d = make_suite(tmp_path)
    none = tmp_path / "none"
    args = ["bench", "--dir", str(d)]
    if case in BAD_INSTANCES:  # one bad file among good ones
        path, reason = make_bad(d / "g9-bad.mbsp", case), BAD_INSTANCES[case][1]
    elif case == "out-in-missing-dir":
        path, reason = none / "bench.csv", "No such file or directory"
        args += ["--out", str(path)]
    else:  # a bad --dir
        (tmp_path / "empty").mkdir()
        path, reason = {
            "missing-dir": (none, "No such file or directory"),
            "dir-is-a-file": (d / "g1-1.mbsp", "Not a directory"),
            "empty-dir": (tmp_path / "empty", "no instances"),
        }[case]
        args[2] = str(path)
    code, out, err = run_cli(args, capsys)
    assert_one_line_error(code, out, err, f"{path}: {reason}")


def test_bench_skips_dotfiles_and_subdirectories(tmp_path, capsys):
    d = make_suite(tmp_path)
    args = ["bench", "--dir", str(d), "--method", "ggmz", "--omit-times"]
    code, plain, _ = run_cli(args, capsys)
    assert code == 0
    (d / ".notes").write_bytes(b"\xff")
    make_bad(d / "sub", "directory")
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert out == plain


@pytest.mark.parametrize(
    "args",
    [
        ["heuristic", "{g}", "--method", "ggmz", "--tree", "bogus"],
        ["heuristic", "{g}", "--method", "grasp", "--iterations", "0"],
        ["heuristic", "{g}", "--method", "grasp", "--time-limit", "0"],
        ["heuristic", "{g}", "--method", "ggmz", "--time-limit", "-1"],
        ["bench", "--dir", "{d}", "--method", "ggmz", "--tree", "bogus"],
        ["bench", "--dir", "{d}", "--method", "grasp", "--iterations", "0"],
        ["bench", "--dir", "{d}", "--method", "grasp", "--time-limit", "0"],
        ["solve", "{g}", "--time-limit", "-1"],
        ["solve", "{g}", "--time-limit", "nan"],
        ["generate", "--group", "1", "--n", "8", "--ratio", "1", "--d", "1.5"],
        ["generate", "--group", "1", "--n", "8", "--ratio", "1", "--d", "0"],
        ["generate", "--group", "1", "--n", "8", "--ratio", "1", "--d", "nan"],
        ["generate", "--group", "1", "--n", "8", "--d", "0.5", "--ratio", "-1"],
        ["generate", "--group", "1", "--n", "8", "--d", "0.5", "--ratio", "inf"],
        ["generate", "--group", "2", "--n", "8", "--d", "0.5", "--parallel", "1.5"],
        ["generate", "--group", "2", "--n", "8", "--d", "0.5", "--parallel", "0"],
        ["generate", "--group", "1", "--n", "8", "--d", "0.5", "--ratio", "1", "--parallel", "0.5"],
        ["generate", "--group", "2", "--n", "8", "--d", "0.5", "--parallel", "0.5", "--ratio", "1"],
    ],
    ids=lambda a: f"{a[0]}{a[-2]}={a[-1]}",
)
def test_bad_heuristic_option_is_a_usage_error(tmp_path, capsys, args):
    d = make_suite(tmp_path)
    args = [a.format(g=d / "g1-1.mbsp", d=d) for a in args]
    with pytest.raises(SystemExit) as exc:
        cli.run(args)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: mbsp ")
    assert f"error: argument {args[-2]}: " in out.err and "Traceback" not in out.err


def test_heuristic_grasp_json(tmp_path, capsys):
    path = tmp_path / "h.mbsp"
    g = I.generate(I.RandomSpec(12, 0.5, seed=2, parallel_frac=0.5))
    I.write(g, path)
    code, out, _ = run_cli(
        ["heuristic", str(path), "--method", "grasp", "--iterations", "10", "--seed", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == len(data["v1"]) + len(data["v2"])
    p = G.Bipartition(
        frozenset(v - 1 for v in data["v1"]), frozenset(v - 1 for v in data["v2"])
    )
    assert G.is_feasible(g, p)


def test_heuristic_ggmz_strategy(tmp_path, capsys):
    path = tmp_path / "h.mbsp"
    I.write(I.generate(I.RandomSpec(12, 0.5, seed=2, neg_ratio=1.0)), path)
    code, out, _ = run_cli(
        ["heuristic", str(path), "--method", "ggmz", "--tree", "f1", "--seed", "0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] >= 1


def test_solve_reports_optimum(tmp_path, capsys):
    path = tmp_path / "s.mbsp"
    g = I.generate(I.RandomSpec(10, 0.6, seed=4, parallel_frac=0.5))
    I.write(g, path)
    opt, _ = I.brute_force(g)
    code, out, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "optimal"
    assert data["lb"] == opt
    assert data["ub"] == pytest.approx(opt)
    assert data["gap_pct"] is None
    assert data["nodes"] >= 1


def test_solve_standard_branching(tmp_path, capsys):
    path = tmp_path / "s.mbsp"
    g = I.generate(I.RandomSpec(9, 0.6, seed=1, neg_ratio=2.0))
    I.write(g, path)
    opt, _ = I.brute_force(g)
    code, out, _ = run_cli(["solve", str(path), "--branching", "standard"], capsys)
    assert code == 0
    assert json.loads(out)["lb"] == opt


@pytest.mark.parametrize("branching", ["cycle", "standard"])
@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--group", "1", "--ratio", "1"], I.RandomSpec(20, 0.5, seed=1, neg_ratio=1.0)),
        (["--group", "2", "--parallel", "0.25"], I.RandomSpec(20, 0.5, seed=1, parallel_frac=0.25)),
    ],
    ids=["group1", "group2"],
)
def test_solve_of_a_generated_file_searches_as_the_library(tmp_path, capsys, flags, spec, branching):
    path = tmp_path / "g.mbsp"
    code, _, _ = run_cli(["generate", *flags, "--n", "20", "--d", "0.5", "--seed", "1", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["solve", str(path), "--branching", branching], capsys)
    assert code == 0
    res = S.solve(I.generate(spec), S.SolveParams(branching=branching))
    data = json.loads(out)
    assert (data["lb"], data["nodes"]) == (res.lower_bound, res.stats["nodes"])


@pytest.mark.parametrize("tree", [s.value for s in TreeStrategy])
@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--group", "1", "--ratio", "1"], I.RandomSpec(30, 0.5, seed=1, neg_ratio=1.0)),
        (["--group", "2", "--parallel", "0.25"], I.RandomSpec(30, 0.5, seed=1, parallel_frac=0.25)),
    ],
    ids=["group1", "group2"],
)
def test_ggmz_on_a_generated_file_finds_the_library_set(tmp_path, capsys, flags, spec, tree):
    # the Kruskal forests break cost ties in edge order, which must not
    # differ between the generator's graph and the file's
    path = tmp_path / "g.mbsp"
    code, _, _ = run_cli(["generate", *flags, "--n", "30", "--d", "0.5", "--seed", "1", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["heuristic", str(path), "--method", "ggmz", "--tree", tree], capsys)
    assert code == 0
    p = ggmz(I.generate(spec), TreeStrategy(tree), StableSetParams())
    data = json.loads(out)
    assert (data["value"], data["v1"], data["v2"]) == (p.size(), sorted(v + 1 for v in p.v1), sorted(v + 1 for v in p.v2))


def make_suite(tmp_path):
    d = tmp_path / "suite"
    d.mkdir()
    for seed in (1, 2):
        g = I.generate(I.RandomSpec(8, 0.5, seed=seed, neg_ratio=1.0))
        I.write(g, d / f"g1-{seed}.mbsp")
    g = I.generate(I.RandomSpec(8, 0.5, seed=1, parallel_frac=0.5))
    I.write(g, d / "g2-1.mbsp")
    return d


def test_bench_csv_shape(tmp_path, capsys):
    d = make_suite(tmp_path)
    code, out, _ = run_cli(
        ["bench", "--dir", str(d), "--method", "bc", "--method", "grasp",
         "--seed", "0", "--omit-times"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    body = lines[1 : 1 + 6]  # 3 instances x 2 methods
    assert all(len(ln.split(",")) == 13 for ln in body)
    assert lines[7] == ""
    assert lines[8] == "group,n,method,avg_time_solved,avg_gap_unsolved"
    # both groups appear in the aggregate block
    cells = [ln.split(",") for ln in lines[9:] if ln]
    assert {c[0] for c in cells} == {"1", "2"}
    assert all(c[3].startswith("(") or c[3] == "-" for c in cells)


def test_bench_summary_counts_a_numerical_error_as_unsolved():
    rows = [
        {"group": 1, "n": 10, "method": "bc", "status": "optimal", "time_s": 1.0, "gap_pct": ""},
        {"group": 1, "n": 10, "method": "bc", "status": "time_limit", "time_s": 9.0, "gap_pct": "10.00"},
        {"group": 1, "n": 10, "method": "bc", "status": "numerical_error", "time_s": 2.0, "gap_pct": "20.00"},
    ]
    assert cli._aggregate(rows)[1:] == ["1,10,bc,1.00(1),15.00"]


def test_bench_deterministic_with_omit_times(tmp_path, capsys):
    d = make_suite(tmp_path)
    args = ["bench", "--dir", str(d), "--method", "bc", "--seed", "0", "--omit-times"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    code, second, _ = run_cli(args, capsys)
    assert code == 0
    assert first == second


def test_bench_writes_file(tmp_path, capsys):
    d = make_suite(tmp_path)
    out_path = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        ["bench", "--dir", str(d), "--seed", "0", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert os.path.exists(out_path)
    assert open(out_path).read().startswith(cli.CSV_HEADER)
