"""Spanning-forest strategies used by the greedy heuristic's first step."""

from __future__ import annotations

import enum

from .graph import NEG, POS, SignedGraph, UnionFind, build


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


def _edge_costs(g: SignedGraph, strategy: TreeStrategy, rng) -> list:
    """Costs of g.edges under a Kruskal strategy, in one pass; KRUSKAL_RANDOM
    draws one rng.randint(0, 1000) per edge, in g.edges order (sorted)."""
    if strategy is TreeStrategy.KRUSKAL_RANDOM:
        if rng is None:
            raise ValueError(f"{strategy} needs an rng")
        return [rng.randint(0, 1000) for _ in g.edges]
    if strategy is TreeStrategy.KRUSKAL_ADAPTIVE:
        # f1 when |E-| / |E+| < 1, counted twice over from the bitmasks
        n_plus = sum(plus.bit_count() for plus, _ in g.sign_masks)
        n_minus = sum(minus.bit_count() for _, minus in g.sign_masks)
        strategy = TreeStrategy.KRUSKAL_F1 if n_minus < n_plus else TreeStrategy.KRUSKAL_F2
    cost_pos, cost_neg, cost_par = _FIXED_COSTS[strategy]
    parallel = [plus & minus for plus, minus in g.sign_masks]
    return [
        cost_par if parallel[u] >> v & 1 else cost_pos if s == POS else cost_neg
        for u, v, s in g.edges
    ]


def spanning_forest(g: SignedGraph, strategy: TreeStrategy | str, rng=None) -> SignedGraph:
    """Spanning forest of g (one tree per component), same vertex set, by a
    TreeStrategy or its value ("bfs", "f1", ...); anything else raises ValueError.

    Kruskal variants build a minimum-cost forest under _edge_costs, breaking
    ties and drawing KRUSKAL_RANDOM's costs in g.edges order (sorted), and
    stop at n - 1 edges.  BFS/DFS walk the neighbour bitmasks of g.sign_masks:
    each starts at the lowest-index unvisited vertex and visits neighbors in
    index order; for a parallel pair the positive copy is taken into the tree.
    """
    strategy = TreeStrategy(strategy)
    if strategy in KRUSKAL_STRATEGIES:
        costs = _edge_costs(g, strategy, rng)
        components = UnionFind(g.n)
        forest = []
        for i in sorted(range(g.m), key=costs.__getitem__):  # stable: ties in g.edges order
            if len(forest) == g.n - 1:
                break
            e = g.edges[i]
            if components.union(e[0], e[1]):
                forest.append(e)
        return build(g.n, forest)
    return _search_forest(g, depth_first=strategy is TreeStrategy.DFS)


def _search_forest(g: SignedGraph, depth_first) -> SignedGraph:
    masks = g.sign_masks
    neighbors = [plus | minus for plus, minus in masks]
    unvisited = (1 << g.n) - 1
    forest = []

    def edge(parent, v):  # the positive copy of a parallel pair goes into the tree
        return parent, v, POS if masks[parent][0] >> v & 1 else NEG

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
                while fresh:
                    v = (fresh & -fresh).bit_length() - 1
                    fresh ^= 1 << v
                    forest.append(edge(u, v))
                    queue.append(v)
    return build(g.n, forest)
