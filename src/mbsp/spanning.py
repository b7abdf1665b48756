"""Spanning-forest strategies used by the greedy heuristic's first step."""

from __future__ import annotations

import enum
from collections import deque

from .graph import NEG, POS, SignedGraph, UnionFind


class TreeStrategy(enum.Enum):
    BFS = "bfs"
    DFS = "dfs"
    KRUSKAL_F1 = "f1"
    KRUSKAL_F2 = "f2"
    KRUSKAL_F3 = "f3"
    KRUSKAL_RANDOM = "random"
    KRUSKAL_ADAPTIVE = "adaptive"


KRUSKAL_STRATEGIES = {
    TreeStrategy.KRUSKAL_F1,
    TreeStrategy.KRUSKAL_F2,
    TreeStrategy.KRUSKAL_F3,
    TreeStrategy.KRUSKAL_RANDOM,
    TreeStrategy.KRUSKAL_ADAPTIVE,
}

# cost per edge class (positive-only, negative-only, parallel)
_FIXED_COSTS = {
    TreeStrategy.KRUSKAL_F1: (3, 1, 2),
    TreeStrategy.KRUSKAL_F2: (1, 2, 3),
    TreeStrategy.KRUSKAL_F3: (2, 1, 3),
}


def edge_cost(g: SignedGraph, e, strategy: TreeStrategy, rng) -> int:
    """Cost of signed edge e = (u, v, sign) under a Kruskal strategy."""
    if strategy not in KRUSKAL_STRATEGIES:
        raise ValueError(f"{strategy} has no edge costs")
    if strategy is TreeStrategy.KRUSKAL_RANDOM:
        return rng.randint(0, 1000)
    if strategy is TreeStrategy.KRUSKAL_ADAPTIVE:
        n_minus = len(g.e_minus)
        n_plus = len(g.e_plus)
        ratio_below_one = n_plus > 0 and n_minus / n_plus < 1
        strategy = TreeStrategy.KRUSKAL_F1 if ratio_below_one else TreeStrategy.KRUSKAL_F2
    cost_pos, cost_neg, cost_par = _FIXED_COSTS[strategy]
    u, v, _ = e
    pair = (u, v) if u < v else (v, u)
    if pair in g.e_parallel:
        return cost_par
    return cost_pos if e[2] == POS else cost_neg


def spanning_forest(g: SignedGraph, strategy: TreeStrategy, rng=None) -> SignedGraph:
    """Spanning forest of g (one tree per component), same vertex set.

    Kruskal variants build a minimum-cost forest under edge_cost with ties
    broken by edge input order.  BFS/DFS start at the lowest-index unvisited
    vertex and visit neighbors in index order; for a parallel pair the
    positive copy is taken into the tree.
    """
    if strategy in KRUSKAL_STRATEGIES:
        costed = [(edge_cost(g, e, strategy, rng), i, e) for i, e in enumerate(g.edges)]
        costed.sort(key=lambda t: (t[0], t[1]))
        components = UnionFind(g.n)
        forest = [e for _, _, e in costed if components.union(e[0], e[1])]
        return SignedGraph(g.n, tuple(sorted(forest)))
    return _search_forest(g, depth_first=strategy is TreeStrategy.DFS)


def _search_forest(g: SignedGraph, depth_first) -> SignedGraph:
    neighbors = [sorted(d) for d in g.signs]

    visited = [False] * g.n
    forest = []

    def take(parent, v):
        visited[v] = True
        if parent is not None:
            # the positive copy of a parallel pair goes into the tree
            sign = POS if POS in g.signs[parent][v] else NEG
            forest.append((min(parent, v), max(parent, v), sign))

    for root in range(g.n):
        if visited[root]:
            continue
        if depth_first:
            stack = [(None, root)]
            while stack:
                parent, v = stack.pop()
                if visited[v]:
                    continue
                take(parent, v)
                for w in reversed(neighbors[v]):
                    if not visited[w]:
                        stack.append((v, w))
        else:
            take(None, root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in neighbors[u]:
                    if not visited[v]:
                        take(u, v)
                        queue.append(v)
    return SignedGraph(g.n, tuple(sorted(forest)))
