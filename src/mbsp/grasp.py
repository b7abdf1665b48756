"""GRASP metaheuristic for the maximum balanced subgraph problem.

A partial solution is held as four vertex bitmasks (s1, s2, f1, f2) over
SignedGraph.sign_masks: the two sides, and the vertices barred from each.
A negative edge to side 1 or a positive edge to side 2 bars a vertex from
side 1, and the mirror image from side 2; a parallel pair bars both.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import accumulate
from operator import index, or_

from .graph import Bipartition, GraphError, SignedGraph, bits, is_feasible


@dataclass
class GraspParams:
    max_iterations: int = 100
    time_limit_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self):
        self.max_iterations = index(self.max_iterations)  # a float raises TypeError
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


def _bases(masks, full, state, side, k):
    """The states of state with each k-subset (k = 1 or 2) of a side's
    members removed, in combinations order.  A selected vertex's bar masks
    depend only on its side, so with (f1, f2) packed as f1 | f2 << n the
    bars of the vertices that stay are the OR of a prefix, a running and a
    suffix OR over the selected vertices: O(1) operations per removed set."""
    n = full.bit_length()

    def bar(i, w):  # (f1, f2) is (minus, plus) on side 1, (plus, minus) on side 2
        return masks[i][2 - w] | masks[i][w - 1] << n

    def without(drop, f):
        return state[0] & ~drop, state[1] & ~drop, f & full, f >> n

    members = bits(state[side - 1])
    # the members' bars, then the other side's, which every suffix keeps
    bars = [bar(i, side) for i in members] + [bar(i, 3 - side) for i in bits(state[2 - side])]
    pre = [*accumulate(bars, or_, initial=0)]  # pre[a]: the OR of bars[:a]
    suf = [*accumulate(reversed(bars), or_, initial=0)][::-1]  # suf[a]: the OR of bars[a:]
    for a, i in enumerate(members):
        if k == 1:
            yield without(1 << i, pre[a] | suf[a + 1])
            continue
        mid = pre[a]  # grows by each member that b passes
        for b in range(a + 1, len(members)):
            yield without(1 << i | 1 << members[b], mid | suf[b + 1])
            mid |= bars[b]


def local_search(g: SignedGraph, p: Bipartition, deadline=math.inf) -> Bipartition:
    """Two-neighborhood local search: neighborhood (i) drops one vertex of a
    side, (ii) a pair; each then inserts one candidate and re-maximalizes.
    The current solution is replaced by the largest neighbor, (i) is scanned
    fully before (ii), and the search halts at a local optimum or at the
    deadline, which is checked before each removed set.  Each removed set's
    state comes from _bases, and since only a strictly larger neighbor
    replaces the best, a removed set or first insertion is skipped when its
    size plus its open vertices, a bound on any completion since insertions
    only shrink the open sets, is no larger than the best's size."""
    if not is_feasible(g, p):
        raise GraphError("local_search requires a feasible solution")
    masks, full = g.sign_masks, (1 << g.n) - 1
    current = _maximalize(masks, full, _state(masks, p.v1, p.v2))
    while True:
        best = current
        for k in (1, 2):  # neighborhood (i) removes one vertex, (ii) a pair
            for side in (1, 2):
                for base in _bases(masks, full, current, side, k):
                    if time.monotonic() >= deadline:
                        return _bipartition(best)
                    c = _open(base, full)
                    if _size(base) + (c[0] | c[1]).bit_count() <= _size(best):
                        continue
                    for j in bits(c[0] | c[1]):
                        q = _insert(masks, base, j, side if c[side - 1] >> j & 1 else 3 - side)
                        cq = _open(q, full)
                        if _size(q) + (cq[0] | cq[1]).bit_count() > _size(best):
                            q = _maximalize(masks, full, q)
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
