"""Reference views of a SignedGraph's adjacency, built from its edge list
alone, so that tests never check the library's bitmasks against themselves."""

from mbsp import graph as G


def pairs(g, sign):
    """The vertex pairs (u, v), u < v, that carry an edge of the sign."""
    return frozenset((u, v) for u, v, s in g.edges if s == sign)


def parallel(g):
    """The vertex pairs that carry both signs."""
    return pairs(g, G.POS) & pairs(g, G.NEG)


def signs(g):
    """signs[u] = {v: frozenset of the signs on pair uv}, neighbours in the
    order of their first edge."""
    adj = [{} for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u][v] = adj[v][u] = adj[u].get(v, frozenset()) | {s}
    return adj


def conflicts(g):
    """conflicts[u] = the set of v joined to u by a parallel pair."""
    adj = [set() for _ in range(g.n)]
    for u, v in parallel(g):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def masks(adj):
    """The neighbour sets adj as vertex bitmasks."""
    return [sum(1 << v for v in nbrs) for nbrs in adj]
