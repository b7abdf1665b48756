"""GRASP metaheuristic for the maximum balanced subgraph problem."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .graph import NEG, POS, Bipartition, GraphError, SignedGraph, is_feasible


@dataclass
class GraspParams:
    max_iterations: int = 100
    time_limit_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or self.time_limit_seconds <= 0:
            raise ValueError("limits must be positive")


def _admissible(g, p: Bipartition, i, side) -> bool:
    """Can vertex i join the given side of feasible solution p?

    A neighbor on the same side needs a positive-only pair, one on the other
    side a negative-only pair; a parallel pair fails both.
    """
    same, other = (p.v1, p.v2) if side == 1 else (p.v2, p.v1)
    for j, ss in g.signs[i].items():
        if (j in same and NEG in ss) or (j in other and POS in ss):
            return False
    return True


def candidates(g: SignedGraph, p: Bipartition, side) -> set:
    """Vertices outside p that can feasibly join the given side."""
    if not is_feasible(g, p):
        raise GraphError("candidates() requires a feasible solution")
    return _candidates(g, p, side)


def _candidates(g, p: Bipartition, side) -> set:
    sel = p.selected
    return {i for i in range(g.n) if i not in sel and _admissible(g, p, i, side)}


def _maximalize(g, p: Bipartition) -> Bipartition:
    """Insert admissible vertices until none remains: lowest candidate index
    first, side 1 preferred."""
    v1, v2 = set(p.v1), set(p.v2)
    current = Bipartition(frozenset(v1), frozenset(v2))
    while True:
        c1 = _candidates(g, current, 1)
        c2 = _candidates(g, current, 2)
        if not c1 and not c2:
            return current
        i = min(c1 | c2)
        if i in c1:
            v1.add(i)
        else:
            v2.add(i)
        current = Bipartition(frozenset(v1), frozenset(v2))


def construct(g: SignedGraph, rng: random.Random) -> Bipartition:
    """Randomized greedy construction: grow (v1, v2) one vertex at a time
    until neither side has a candidate."""
    v1, v2 = set(), set()
    while True:
        p = Bipartition(frozenset(v1), frozenset(v2))
        c1 = _candidates(g, p, 1)
        c2 = _candidates(g, p, 2)
        sides = [w for w, c in ((1, c1), (2, c2)) if c]
        if not sides:
            return p
        w = rng.choice(sides)
        cand = sorted(c1 if w == 1 else c2)
        i = rng.choice(cand)
        (v1 if w == 1 else v2).add(i)


def _neighbors_removing(g, p: Bipartition, removed, side):
    """Deterministic completions after removing `removed` from `side`.

    For each admissible first insertion j (into the shrunken side or the other
    side) the solution is greedily re-maximalized; yields the resulting
    bipartitions.
    """
    v1 = set(p.v1)
    v2 = set(p.v2)
    (v1 if side == 1 else v2).difference_update(removed)
    base = Bipartition(frozenset(v1), frozenset(v2))
    c_same = _candidates(g, base, side)
    c_other = _candidates(g, base, 2 if side == 1 else 1)
    out = []
    for j in sorted(c_same | c_other):
        w1, w2 = set(v1), set(v2)
        if j in c_same:
            (w1 if side == 1 else w2).add(j)
        else:
            (w2 if side == 1 else w1).add(j)
        out.append(_maximalize(g, Bipartition(frozenset(w1), frozenset(w2))))
    return out


def local_search(g: SignedGraph, p: Bipartition, deadline=None) -> Bipartition:
    """Two-neighborhood local search.

    Neighborhood (i): drop one vertex of a side, insert a candidate into its
    side, re-maximalize.  Neighborhood (ii): drop a pair from one side, insert
    a candidate, re-maximalize.  The current solution is replaced by the
    largest neighbor; (i) is scanned fully before (ii); halts at a local
    optimum (or at the deadline).
    """
    if not is_feasible(g, p):
        raise GraphError("local_search requires a feasible solution")
    current = _maximalize(g, p)
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            return current
        best = current
        for side in (1, 2):
            members = sorted(current.v1 if side == 1 else current.v2)
            for i in members:
                for q in _neighbors_removing(g, current, {i}, side):
                    if q.size() > best.size():
                        best = q
        if best.size() > current.size():
            current = best
            continue
        for side in (1, 2):
            members = sorted(current.v1 if side == 1 else current.v2)
            for a_idx in range(len(members)):
                for b_idx in range(a_idx + 1, len(members)):
                    pair = {members[a_idx], members[b_idx]}
                    for q in _neighbors_removing(g, current, pair, side):
                        if q.size() > best.size():
                            best = q
            if deadline is not None and time.monotonic() >= deadline:
                break
        if best.size() > current.size():
            current = best
            continue
        return current


def grasp(g: SignedGraph, params: GraspParams = None) -> Bipartition:
    """Iterated construction + local search, best solution kept."""
    if params is None:
        params = GraspParams()
    rng = random.Random(params.seed)
    deadline = time.monotonic() + params.time_limit_seconds
    best = Bipartition()
    for _ in range(params.max_iterations):
        if time.monotonic() >= deadline:
            break
        p = construct(g, rng)
        p = local_search(g, p, deadline)
        if p.size() > best.size():
            best = p
        if best.size() == g.n:
            break
    return best
