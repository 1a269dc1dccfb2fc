"""Shared test oracles.

Everything here recomputes results by the most naive route available
(exhaustive enumeration over orientations, permutations or subgraph
pairs) so the solver paths under test are checked against independent
logic, not against themselves.
"""

import itertools
from fractions import Fraction

from orientramsey import Graph, OrientedGraph


def brute_contains(d, h):
    """Copy of h inside oriented graph d, by scanning all injective maps."""
    if d.n < h.n:
        return False
    arcs = set(d.arcs)
    for image in itertools.permutations(range(d.n), h.n):
        if all((image[u], image[v]) in arcs for u, v in h.arcs):
            return True
    return False


def brute_copies(g, h):
    """Arc sets of the copies of h in the graph g: the images of h's arcs
    under every injective map that sends each arc of h onto an edge of g."""
    edges = set(g.edges())
    found = set()
    for image in itertools.permutations(range(g.n), h.n):
        arcs = [(image[u], image[v]) for u, v in h.arcs]
        if all((min(a, b), max(a, b)) in edges for a, b in arcs):
            found.add(frozenset(arcs))
    return found


def all_orientations(g):
    edges = g.edges()
    for bits in itertools.product((0, 1), repeat=len(edges)):
        arcs = [(v, u) if bit else (u, v) for (u, v), bit in zip(edges, bits)]
        yield OrientedGraph.from_arcs(g.n, arcs)


def brute_arrow(g, h):
    """(verdict, count of h-free orientations) by full enumeration."""
    free = 0
    witness = None
    for d in all_orientations(g):
        if not brute_contains(d, h):
            free += 1
            if witness is None:
                witness = d
    return free == 0, free, witness


def _d2_value(v, e):
    if v >= 3:
        return Fraction(e - 1, v - 2)
    if v == 1 and e == 0:
        return Fraction(0)
    if v == 2:
        return Fraction(1, 2) if e == 1 else Fraction(0)
    return None


def brute_density(g, kind):
    """Maximum over every (vertex subset, edge subset) pair, the full
    subgraph lattice rather than induced subsets only."""
    best = None
    verts = list(range(g.n))
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            pool = [e for e in g.edges() if e[0] in inside and e[1] in inside]
            for k in range(len(pool) + 1):
                for chosen in itertools.combinations(pool, k):
                    if kind == "m2":
                        value = _d2_value(size, len(chosen))
                    else:
                        value = Fraction(len(chosen), size)
                    if value is not None and (best is None or value > best):
                        best = value
    return best


def random_graph(rng, n, max_edges):
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    want = rng.randint(0, min(max_edges, len(pairs)))
    return Graph.from_edges(n, pairs[:want])


def random_oriented(rng, n, max_arcs):
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    want = rng.randint(0, min(max_arcs, len(pairs)))
    arcs = []
    for u, v in pairs[:want]:
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph.from_arcs(n, arcs)


def is_bipartite(g):
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            w = g.rows[u]
            while w:
                low = w & -w
                v = low.bit_length() - 1
                w ^= low
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def longest_directed_path_vertices(d):
    """Vertices on a longest directed path, by DFS from every vertex
    (hosts here are tiny)."""
    out = [[] for _ in range(d.n)]
    for a, b in d.arcs:
        out[a].append(b)
    best = 0

    def walk(v, seen):
        nonlocal best
        best = max(best, len(seen))
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                walk(w, seen)
                seen.discard(w)

    for v in range(d.n):
        walk(v, {v})
    return best


def petersen():
    return Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                 (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                                 (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
