"""Spanning-forest strategies used by the greedy heuristic's first step."""

from __future__ import annotations

import enum

from .graph import NEG, POS, SignedGraph, UnionFind, bits


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


def _edge_costs(g: SignedGraph, edges, strategy: TreeStrategy, rng) -> list:
    """Costs of the signed edges (u, v, sign) of g under a Kruskal strategy,
    in one pass; KRUSKAL_RANDOM draws one rng.randint(0, 1000) per edge, in
    order."""
    if strategy not in KRUSKAL_STRATEGIES:
        raise ValueError(f"{strategy} has no edge costs")
    if strategy is TreeStrategy.KRUSKAL_RANDOM:
        return [rng.randint(0, 1000) for _ in edges]
    if strategy is TreeStrategy.KRUSKAL_ADAPTIVE:
        # f1 when |E-| / |E+| < 1, counted twice over from the bitmasks
        n_plus = sum(plus.bit_count() for plus, _ in g.sign_masks)
        n_minus = sum(minus.bit_count() for _, minus in g.sign_masks)
        strategy = TreeStrategy.KRUSKAL_F1 if n_minus < n_plus else TreeStrategy.KRUSKAL_F2
    cost_pos, cost_neg, cost_par = _FIXED_COSTS[strategy]
    parallel = [plus & minus for plus, minus in g.sign_masks]
    return [
        cost_par if parallel[u] >> v & 1 else cost_pos if s == POS else cost_neg
        for u, v, s in edges
    ]


def edge_cost(g: SignedGraph, e, strategy: TreeStrategy, rng) -> int:
    """Cost of signed edge e = (u, v, sign) under a Kruskal strategy."""
    return _edge_costs(g, (e,), strategy, rng)[0]


def spanning_forest(g: SignedGraph, strategy: TreeStrategy, rng=None) -> SignedGraph:
    """Spanning forest of g (one tree per component), same vertex set.

    Kruskal variants build a minimum-cost forest under edge_cost with ties
    broken by edge input order, and stop at n - 1 edges.  BFS/DFS walk the
    neighbour bitmasks of g.sign_masks: each starts at the lowest-index
    unvisited vertex and visits neighbors in index order; for a parallel
    pair the positive copy is taken into the tree.
    """
    if strategy in KRUSKAL_STRATEGIES:
        edges = g.edges
        costs = _edge_costs(g, edges, strategy, rng)
        components = UnionFind(g.n)
        forest = []
        for i in sorted(range(len(edges)), key=costs.__getitem__):  # stable: ties by index
            if len(forest) == g.n - 1:
                break
            e = edges[i]
            if components.union(e[0], e[1]):
                forest.append(e)
        return SignedGraph(g.n, tuple(sorted(forest)))
    return _search_forest(g, depth_first=strategy is TreeStrategy.DFS)


def _search_forest(g: SignedGraph, depth_first) -> SignedGraph:
    masks = g.sign_masks
    neighbors = [plus | minus for plus, minus in masks]
    unvisited = (1 << g.n) - 1
    forest = []

    def edge(parent, v):
        # the positive copy of a parallel pair goes into the tree
        sign = POS if masks[parent][0] >> v & 1 else NEG
        return (parent, v, sign) if parent < v else (v, parent, sign)

    while unvisited:
        root = (unvisited & -unvisited).bit_length() - 1
        unvisited ^= 1 << root
        if depth_first:
            # the path from the root: its last vertex takes its lowest
            # unvisited neighbour, or is left when it has none
            stack = [root]
            while stack:
                v = stack[-1]
                fresh = neighbors[v] & unvisited
                if not fresh:
                    stack.pop()
                    continue
                w = (fresh & -fresh).bit_length() - 1
                unvisited ^= 1 << w
                forest.append(edge(v, w))
                stack.append(w)
        else:
            queue = [root]
            for u in queue:  # grows as it is read
                fresh = neighbors[u] & unvisited
                unvisited ^= fresh
                for v in bits(fresh):
                    forest.append(edge(u, v))
                    queue.append(v)
    return SignedGraph(g.n, tuple(sorted(forest)))
