"""Random instance generation, text file I/O, and a brute-force oracle."""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .graph import NEG, POS, Bipartition, SignedGraph, build, is_balanced


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def _checked_n(n, density) -> int:
    """n through operator.index (a float raises TypeError), checked with density
    for both random draws; each check is written so that NaN fails it."""
    n = operator.index(n)
    if not n >= 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if density * n * (n - 1) / 2 < 1:
        raise ValueError("density too low: no edges")
    return n


@dataclass(frozen=True)
class RandomSpec:
    """Parameter grid point: Group 1 sets neg_ratio, Group 2 parallel_frac."""

    n: int
    density: float
    seed: int
    neg_ratio: float = None  # |E-| / |E+|
    parallel_frac: float = None  # |E- ∩ E+| / |E|

    def __post_init__(self):
        if (self.neg_ratio is None) == (self.parallel_frac is None):
            raise ValueError("set exactly one of neg_ratio / parallel_frac")
        object.__setattr__(self, "n", _checked_n(self.n, self.density))
        # each check is written so that NaN fails it
        if self.neg_ratio is not None and not 0 <= self.neg_ratio < math.inf:
            raise ValueError(f"neg_ratio must be non-negative and finite, got {self.neg_ratio}")
        if self.parallel_frac is not None and not 0 < self.parallel_frac <= 1:
            raise ValueError(f"parallel_frac must be in (0, 1], got {self.parallel_frac}")

    @property
    def group(self) -> int:
        return 1 if self.neg_ratio is not None else 2


def generate(spec: RandomSpec) -> SignedGraph:
    """Sample a random signed graph; deterministic per seed.

    m = round(d * n(n-1)/2) distinct pairs.  Group 1 makes round(m*r/(1+r))
    of them negative; Group 2 gives round(m*f) pairs both signs and the rest
    a uniform single sign.
    """
    rng = random.Random(spec.seed)
    all_pairs = list(itertools.combinations(range(spec.n), 2))
    m = _round_half_up(spec.density * len(all_pairs))
    pairs = rng.sample(all_pairs, m)
    edges = []
    if spec.group == 1:
        r = spec.neg_ratio
        n_neg = _round_half_up(m * r / (1 + r))
        for k, (u, v) in enumerate(pairs):
            edges.append((u, v, NEG if k < n_neg else POS))
    else:
        n_par = _round_half_up(m * spec.parallel_frac)
        for k, (u, v) in enumerate(pairs):
            if k < n_par:
                edges.append((u, v, POS))
                edges.append((u, v, NEG))
            else:
                edges.append((u, v, rng.choice((POS, NEG))))
    return build(spec.n, edges)


def generate_balanced(n, density, seed) -> SignedGraph:
    """Balanced instance: signs consistent with a random split; n, density as in RandomSpec."""
    n = _checked_n(n, density)
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    all_pairs = list(itertools.combinations(range(n), 2))
    m = _round_half_up(density * len(all_pairs))
    pairs = rng.sample(all_pairs, m)
    edges = [(u, v, POS if side[u] == side[v] else NEG) for u, v in pairs]
    return build(n, edges)


class ParseError(ValueError):
    def __init__(self, message, line_no):
        # args keep both values, so a pickled or copied error keeps its line
        super().__init__(message, line_no)
        self.line_no = line_no

    def __str__(self):
        message, line_no = self.args
        return f"line {line_no}: {message}"


def write(g: SignedGraph, path):
    """Write the canonical text form: header then sorted edge lines."""
    with open(path, "w") as fh:
        fh.write(format_instance(g))


def format_instance(g: SignedGraph) -> str:
    """The header, then one line per edge in g.edges order, which is sorted."""
    lines = [f"p mbsp {g.n} {g.m}"]
    for u, v, s in g.edges:
        lines.append(f"e {u + 1} {v + 1} {s}")
    return "\n".join(lines) + "\n"


def read(path) -> SignedGraph:
    with open(path) as fh:
        return parse_instance(fh.read())


def parse_instance(text) -> SignedGraph:
    n = None
    m_declared = None
    edges = {}  # (u, v, sign) with u < v -> its line, for one line per edge
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", line_no)
            if len(parts) != 4 or parts[1] != "mbsp":
                raise ParseError(f"malformed header {line!r}", line_no)
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", line_no) from None
            if n < 0 or m_declared < 0:
                raise ParseError(f"negative count in header {line!r}", line_no)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", line_no)
            if len(parts) != 4:
                raise ParseError(f"malformed edge {line!r}", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge {line!r}", line_no) from None
            s = parts[3]
            if s not in (POS, NEG):
                raise ParseError(f"bad sign {s!r}", line_no)
            if u == v:
                raise ParseError(f"loop edge {u}", line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex out of range in {line!r}", line_no)
            first = edges.setdefault((min(u, v) - 1, max(u, v) - 1, s), line_no)
            if first != line_no:
                raise ParseError(f"edge {line!r} repeats line {first}", line_no)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line_no)
    if n is None:
        raise ParseError("missing header", 1)
    if m_declared is not None and m_declared != len(edges):
        raise ParseError(f"header declares {m_declared} edges, found {len(edges)}", 1)
    return build(n, edges)


def brute_force(g: SignedGraph):
    """Exact optimum by descending-cardinality subset enumeration.

    Returns (optimum, witness Bipartition).  Usable up to n = 20.
    """
    if g.n > 20:
        raise ValueError("brute force capped at n = 20")
    vertices = list(range(g.n))
    for k in range(g.n, -1, -1):
        for combo in itertools.combinations(vertices, k):
            w = is_balanced(g, combo)
            if w is not None:
                return k, Bipartition(frozenset(combo) - w, w)
    return 0, Bipartition()
