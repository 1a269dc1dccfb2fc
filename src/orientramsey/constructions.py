"""Constructions: rooted products, oriented-tree parameters, random trees."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graphs import OrientedGraph, transitive_tournament

# TT3 has arcs (0,1),(0,2),(1,2): vertex 0 is the source, 1 the middle,
# 2 the sink.  "Rooted TT3" can mean any of the three, so constructions
# expose all of them and downstream checks quantify over the triple.
TT3_ROOT_ROLES = ("source", "middle", "sink")


def rooted_tt3(role):
    if role not in TT3_ROOT_ROLES:
        raise ValueError(f"role must be one of {TT3_ROOT_ROLES}, got {role!r}")
    return transitive_tournament(3).with_root(TT3_ROOT_ROLES.index(role))


def rooted_tt3_variants():
    return tuple(rooted_tt3(role) for role in TT3_ROOT_ROLES)


def rooted_product(f, h):
    """Rooted product: one copy of h per vertex of f, with f's arcs drawn
    between the copies' roots.

    Vertex (x, y) of the product is encoded as x*v(h) + y, which pins the
    output byte-for-byte.  e(product) = e(f) + v(f)*e(h).
    """
    if h.root is None:
        raise ValueError("rooted product needs the second factor to carry a root")
    vh = h.n
    r = h.root
    arcs = [(a * vh + r, b * vh + r) for a, b in f.arcs]
    for x in range(f.n):
        arcs += [(x * vh + u, x * vh + v) for u, v in h.arcs]
    return OrientedGraph.from_arcs(f.n * vh, arcs)


@dataclass(frozen=True)
class TreeParams:
    height: int        # arcs on a longest directed path
    max_degree: int    # of the underlying tree
    a: int             # max(height, max_degree)


def tree_params(t):
    """Height, underlying max degree and their max for an oriented tree."""
    under = t.underlying()
    if t.n < 1 or under.e != t.n - 1 or not under.is_connected():
        raise ValueError("tree parameters need an oriented tree")
    # longest directed path: orientations of trees are acyclic, so relaxing
    # the arcs in topological order of their tails settles every depth
    rank = {v: i for i, v in enumerate(t.source_order())}
    depth = [0] * t.n
    for a, b in sorted(t.arcs, key=lambda arc: rank[arc[0]]):
        depth[b] = max(depth[b], depth[a] + 1)
    height = max(depth)
    max_degree = max(under.degree(v) for v in range(t.n))
    return TreeParams(height, max_degree, max(height, max_degree))


def random_oriented_tree(t, seed):
    """Uniform random labeled tree on t vertices with coin-flip arc
    directions, deterministic under the seed.

    Trees are drawn by decoding a uniform Pruefer sequence, so every
    labeled tree is equally likely.
    """
    if t < 1:
        raise ValueError("tree order must be at least 1")
    rng = np.random.default_rng(seed)
    if t == 1:
        return OrientedGraph.from_arcs(1, ())
    if t == 2:
        edges = [(0, 1)]
    else:
        seq = rng.integers(0, t, size=t - 2)
        edges = _prufer_decode(t, seq.tolist())
    coins = rng.integers(0, 2, size=len(edges))
    arcs = [(u, v) if c == 0 else (v, u) for (u, v), c in zip(edges, coins)]
    return OrientedGraph.from_arcs(t, arcs)


def _prufer_decode(t, seq):
    degree = [1] * t
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(t) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges
