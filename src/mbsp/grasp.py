"""GRASP metaheuristic for the maximum balanced subgraph problem.

A partial solution is held as four vertex bitmasks (s1, s2, f1, f2) over
SignedGraph.sign_masks: the two sides, and the vertices barred from each.
A negative edge to side 1 or a positive edge to side 2 bars a vertex from
side 1, and the mirror image from side 2; a parallel pair bars both.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations

from .graph import Bipartition, GraphError, SignedGraph, bits, is_feasible


@dataclass
class GraspParams:
    max_iterations: int = 100
    time_limit_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations <= 0 or not self.time_limit_seconds > 0:  # also rejects NaN
            raise ValueError("limits must be positive")


def _insert(masks, state, i, side):
    """Put vertex i on the given side (1 or 2) of state."""
    s1, s2, f1, f2 = state
    plus, minus = masks[i]
    if side == 1:
        return s1 | 1 << i, s2, f1 | minus, f2 | plus
    return s1, s2 | 1 << i, f1 | plus, f2 | minus


def _state(masks, v1, v2):
    """The state of the solution with vertex sets v1 and v2."""
    state = (0, 0, 0, 0)
    for side, vertices in ((1, v1), (2, v2)):
        for i in vertices:
            state = _insert(masks, state, i, side)
    return state


def _open(state, full):
    """(c1, c2): the unselected vertices that may join each side."""
    s1, s2, f1, f2 = state
    free = full & ~(s1 | s2)
    return free & ~f1, free & ~f2


def _size(state):
    return (state[0] | state[1]).bit_count()


def _bipartition(state):
    return Bipartition(bits(state[0]), bits(state[1]))


def candidates(g: SignedGraph, p: Bipartition, side) -> set:
    """Vertices outside p that can feasibly join the given side."""
    if not is_feasible(g, p):
        raise GraphError("candidates() requires a feasible solution")
    c1, c2 = _open(_state(g.sign_masks, p.v1, p.v2), (1 << g.n) - 1)
    return set(bits(c1 if side == 1 else c2))


def _maximalize(masks, full, state):
    """Insert admissible vertices until none remains: lowest candidate index
    first, side 1 preferred."""
    while True:
        c1, c2 = _open(state, full)
        low = (c1 | c2) & -(c1 | c2)
        if not low:
            return state
        state = _insert(masks, state, low.bit_length() - 1, 1 if c1 & low else 2)


def construct(g: SignedGraph, rng: random.Random) -> Bipartition:
    """Randomized greedy construction: grow (v1, v2) one vertex at a time
    until neither side has a candidate."""
    masks, full = g.sign_masks, (1 << g.n) - 1
    state = (0, 0, 0, 0)
    while True:
        c1, c2 = _open(state, full)
        sides = [w for w, c in ((1, c1), (2, c2)) if c]
        if not sides:
            return _bipartition(state)
        w = rng.choice(sides)
        state = _insert(masks, state, rng.choice(bits(c1 if w == 1 else c2)), w)


def _neighbors_removing(masks, full, state, removed, side):
    """Deterministic completions after removing `removed` from `side`: for
    each admissible first insertion j (into the shrunken side or the other
    side, ascending) yields the greedily re-maximalized state."""
    drop = sum(1 << i for i in removed)
    base = _state(masks, bits(state[0] & ~drop), bits(state[1] & ~drop))
    c1, c2 = _open(base, full)
    c_same = c1 if side == 1 else c2
    for j in bits(c1 | c2):
        w = side if c_same >> j & 1 else 3 - side
        yield _maximalize(masks, full, _insert(masks, base, j, w))


def local_search(g: SignedGraph, p: Bipartition, deadline=None) -> Bipartition:
    """Two-neighborhood local search: neighborhood (i) drops one vertex of a
    side, (ii) a pair; each then inserts one candidate and re-maximalizes.
    The current solution is replaced by the largest neighbor, (i) is scanned
    fully before (ii), and the search halts at a local optimum or at the
    deadline, which is checked before each removed set."""
    if not is_feasible(g, p):
        raise GraphError("local_search requires a feasible solution")
    masks, full = g.sign_masks, (1 << g.n) - 1
    current = _maximalize(masks, full, _state(masks, p.v1, p.v2))
    while True:
        best = current
        for k in (1, 2):  # neighborhood (i) removes one vertex, (ii) a pair
            for side in (1, 2):
                for removed in combinations(bits(current[side - 1]), k):
                    if deadline is not None and time.monotonic() >= deadline:
                        return _bipartition(best)
                    for q in _neighbors_removing(masks, full, current, removed, side):
                        if _size(q) > _size(best):
                            best = q
            if best is not current:
                current = best
                break
        else:
            return _bipartition(current)


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
