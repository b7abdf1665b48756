import itertools
import pickle

import pytest

from mbsp import graph as G
from mbsp import instances as I

import adjacency as A

DENSITIES = (0.25, 0.5, 0.75)
NEG_RATIOS = (0.5, 1.0, 2.0)
PARALLEL_FRACS = (0.25, 0.5, 0.75)


def half_up(x):
    import math

    return math.floor(x + 0.5)


def expected_m(n, d):
    return half_up(d * n * (n - 1) / 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        I.RandomSpec(10, 0.5, seed=0)  # neither group parameter
    with pytest.raises(ValueError):
        I.RandomSpec(10, 0.5, seed=0, neg_ratio=1.0, parallel_frac=0.5)  # both
    nan, inf = float("nan"), float("inf")
    for density in (0.0, -0.5, 1.5, nan):
        with pytest.raises(ValueError):
            I.RandomSpec(10, density, seed=0, neg_ratio=1.0)
    for ratio in (-1.0, -0.5, inf, nan):
        with pytest.raises(ValueError):
            I.RandomSpec(10, 0.5, seed=0, neg_ratio=ratio)
    for frac in (0.0, 1.5, nan):
        with pytest.raises(ValueError):
            I.RandomSpec(10, 0.5, seed=0, parallel_frac=frac)
    for n in (-5, -1):
        with pytest.raises(ValueError, match="n must be non-negative"):
            I.RandomSpec(n, 0.5, seed=0, neg_ratio=1.0)
    with pytest.raises(TypeError):
        I.RandomSpec(10.5, 0.5, seed=1, neg_ratio=1.0)
    # the ends of each range are accepted
    I.RandomSpec(10, 1.0, seed=0, neg_ratio=0.0)
    I.RandomSpec(10, 1.0, seed=0, parallel_frac=1.0)


def test_group_property():
    assert I.RandomSpec(10, 0.5, seed=0, neg_ratio=1.0).group == 1
    assert I.RandomSpec(10, 0.5, seed=0, parallel_frac=0.5).group == 2


def test_group1_counts_on_grid():
    for n in (10, 20, 50):
        for d in DENSITIES:
            for r in NEG_RATIOS:
                g = I.generate(I.RandomSpec(n, d, seed=1, neg_ratio=r))
                m = expected_m(n, d)
                assert g.m == m
                assert len(A.pairs(g, G.NEG)) == half_up(m * r / (1 + r))
                assert not A.parallel(g)


def test_group2_counts_on_grid():
    for n in (10, 20, 50):
        for d in DENSITIES:
            for f in PARALLEL_FRACS:
                g = I.generate(I.RandomSpec(n, d, seed=1, parallel_frac=f))
                m = expected_m(n, d)
                assert len(A.pairs(g, G.POS) | A.pairs(g, G.NEG)) == m  # distinct pairs
                assert len(A.parallel(g)) == half_up(m * f)


def test_reference_counts():
    g = I.generate(I.RandomSpec(50, 0.25, seed=1, neg_ratio=1.0))
    assert g.m == 306
    assert len(A.pairs(g, G.NEG)) == 153
    g = I.generate(I.RandomSpec(4, 1.0, seed=0, neg_ratio=0.5))
    assert g.m == 6
    assert len(A.pairs(g, G.NEG)) == 2


def test_generate_deterministic_per_seed():
    spec = I.RandomSpec(20, 0.5, seed=7, parallel_frac=0.5)
    assert I.generate(spec) == I.generate(spec)
    other = I.RandomSpec(20, 0.5, seed=8, parallel_frac=0.5)
    assert I.generate(spec) != I.generate(other)


def test_generate_balanced_is_balanced_and_full():
    for seed in range(5):
        g = I.generate_balanced(30, 0.4, seed=seed)
        assert G.is_balanced(g) is not None
        assert g.m == expected_m(30, 0.4)


@pytest.mark.parametrize(
    "n, density, error, message",
    [
        (10, 2.0, ValueError, "density must be in"),
        (1, 0.5, ValueError, "density too low"),
        (-3, 0.5, ValueError, "n must be non-negative"),
        (5, float("nan"), ValueError, "density must be in"),
        (5, 0.0, ValueError, "density must be in"),
        (5.0, 0.5, TypeError, "integer"),
    ],
)
def test_generate_balanced_checks_its_inputs(n, density, error, message):
    with pytest.raises(error, match=message):
        I.generate_balanced(n, density, seed=0)


def test_roundtrip_through_text():
    g = I.generate(I.RandomSpec(12, 0.5, seed=3, parallel_frac=0.5))
    h = I.parse_instance(I.format_instance(g))
    assert h.n == g.n and set(h.edges) == set(g.edges)


def test_roundtrip_through_file(tmp_path):
    g = I.generate(I.RandomSpec(9, 0.6, seed=1, neg_ratio=2.0))
    path = tmp_path / "x.mbsp"
    I.write(g, path)
    h = I.read(path)
    assert h.n == g.n and set(h.edges) == set(g.edges)


def test_parse_accepts_comments_and_blank_lines():
    text = "c a comment\n\np mbsp 3 2\nc another\ne 1 2 +\ne 2 3 -\n"
    g = I.parse_instance(text)
    assert g.n == 3
    assert g.edges == ((0, 1, "+"), (1, 2, "-"))


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2 +\n",  # edge before header
        "p mbsp 3 1\ne 1 4 +\n",  # vertex out of range
        "p mbsp 3 1\ne 1 2 *\n",  # bad sign
        "p mbsp 3 2\ne 1 2 +\n",  # edge count mismatch
        "p mbsp x 1\ne 1 2 +\n",  # bad header
        "p mbsp 3 1\nq 1 2 +\n",  # unknown record
        "p mbsp -1 0\n",  # negative vertex count
        "p mbsp 3 -1\n",  # negative edge count
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(I.ParseError):
        I.parse_instance(text)


@pytest.mark.parametrize("second", ["e 1 2 +", "e 2 1 +"])
def test_parse_rejects_a_repeated_edge(second):
    # one line per edge, so the header's count is always g.m
    with pytest.raises(I.ParseError, match="repeats line 2") as raised:
        I.parse_instance(f"p mbsp 3 2\ne 1 2 +\n{second}\n")
    assert raised.value.line_no == 3
    assert I.parse_instance("p mbsp 3 2\ne 1 2 +\ne 2 1 -\n").m == 2  # a parallel pair


def test_parse_error_reports_line_number():
    try:
        I.parse_instance("p mbsp 3 1\ne 1 9 +\n")
    except I.ParseError as e:
        assert e.line_no == 2
        assert str(e).startswith("line 2: ")
        back = pickle.loads(pickle.dumps(e))  # crosses process boundaries
        assert (type(back), back.line_no, str(back)) == (I.ParseError, 2, str(e))
    else:
        pytest.fail("expected ParseError")


def brute_oracle(g):
    """Independent maximum balanced subset size by direct subset checking."""
    best = 0
    for k in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), k):
            sg, _ = G.induced(g, sub)
            if G.is_balanced(sg) is not None:
                return k
    return best


def test_brute_force_matches_direct_enumeration():
    for seed in range(4):
        for spec in (
            I.RandomSpec(7, 0.6, seed=seed, neg_ratio=1.0),
            I.RandomSpec(7, 0.6, seed=seed, parallel_frac=0.5),
        ):
            g = I.generate(spec)
            opt, p = I.brute_force(g)
            assert opt == brute_oracle(g)
            assert G.is_feasible(g, p)
            assert p.size() == opt


def test_brute_force_cap():
    g = I.generate(I.RandomSpec(21, 0.3, seed=0, neg_ratio=1.0))
    with pytest.raises(ValueError):
        I.brute_force(g)
