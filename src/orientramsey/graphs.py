"""Graph and oriented-graph primitives.

Undirected graphs live on vertices 0..n-1 with bitset adjacency rows, so
neighbourhood intersections are single integer ANDs.  Oriented graphs are
loop-free digraphs with at most one arc per vertex pair (no digons) and an
optional distinguished root.  Both are immutable values: hashable, safe to
share between workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, TooLargeError

# Exact solver paths keep hosts within one machine word of adjacency bits;
# the types themselves allow more (random trees are sampled at t = 1000).
SOLVER_MAX_VERTICES = 64
HARD_MAX_VERTICES = 4096
# Canonical forms go through all vertex relabelings; only for small patterns.
CANONICAL_MAX = 10


def iter_bits(mask):
    """Yield the set bit positions of an integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_n(n):
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n > HARD_MAX_VERTICES:
        raise TooLargeError(f"vertex count {n} exceeds the {HARD_MAX_VERTICES}-vertex cap")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as a tuple of adjacency bit rows."""

    n: int
    rows: tuple

    def __post_init__(self):
        _check_n(self.n)
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError("adjacency rows must match the vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"adjacency row {u} mentions vertices >= n")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u in range(self.n):
            for v in iter_bits(self.rows[u]):
                if not self.rows[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    @staticmethod
    def from_edges(n, edges):
        rows = [0] * n
        _check_n(n)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n):
        return Graph.from_edges(n, ())

    @property
    def e(self):
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def degree(self, u):
        return self.rows[u].bit_count()

    def edges(self):
        """Sorted list of edges as (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def restricted(self, keep):
        """Same vertex set, keeping only edges inside the given vertex set."""
        mask = 0
        for v in keep:
            mask |= 1 << v
        return Graph(self.n, tuple((row & mask) if (mask >> u & 1) else 0
                                   for u, row in enumerate(self.rows)))

    def has_triangle(self):
        for u, v in self.edges():
            if self.rows[u] & self.rows[v]:
                return True
        return False

    def is_connected(self):
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= self.rows[u]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


@dataclass(frozen=True)
class OrientedGraph:
    """Loop-free digraph with at most one arc per pair, plus an optional root."""

    n: int
    arcs: tuple
    root: int = None

    def __post_init__(self):
        _check_n(self.n)
        seen_pairs = set()
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range for n={self.n}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen_pairs:
                raise ValueError(f"pair {pair} carries two arcs (digon or duplicate)")
            seen_pairs.add(pair)
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))
        if self.root is not None and not (0 <= self.root < self.n):
            raise ValueError(f"root {self.root} out of range")

    @staticmethod
    def from_arcs(n, arcs, root=None):
        return OrientedGraph(n, tuple(arcs), root)

    @property
    def e(self):
        return len(self.arcs)

    def underlying(self):
        """Forget orientations (and the root)."""
        return Graph.from_edges(self.n, self.arcs)

    def out_mask(self, u):
        mask = 0
        for a, b in self.arcs:
            if a == u:
                mask |= 1 << b
        return mask

    def in_mask(self, u):
        mask = 0
        for a, b in self.arcs:
            if b == u:
                mask |= 1 << a
        return mask

    def out_degrees(self):
        deg = [0] * self.n
        for a, _ in self.arcs:
            deg[a] += 1
        return deg

    def in_degrees(self):
        deg = [0] * self.n
        for _, b in self.arcs:
            deg[b] += 1
        return deg

    def is_acyclic(self):
        """True iff there is no directed cycle (repeated source elimination)."""
        indeg = self.in_degrees()
        out = [[] for _ in range(self.n)]
        for a, b in self.arcs:
            out[a].append(b)
        stack = [v for v in range(self.n) if indeg[v] == 0]
        removed = 0
        while stack:
            v = stack.pop()
            removed += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return removed == self.n

    def relabel(self, perm):
        root = None if self.root is None else perm[self.root]
        return OrientedGraph.from_arcs(
            self.n, [(perm[u], perm[v]) for u, v in self.arcs], root)

    def with_root(self, root):
        return OrientedGraph.from_arcs(self.n, self.arcs, root)


def underlying(d):
    return d.underlying()


def is_acyclic(d):
    return d.is_acyclic()


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-minimal arc/edge list; equal forms iff isomorphic inputs."""

    n: int
    directed: bool
    rooted: bool
    arcs: tuple


def canonical(g):
    """Canonical form by brute force over vertex relabelings.

    Rooted oriented graphs are compared only under root-preserving
    relabelings (the root always maps to vertex 0), so differently rooted
    copies of the same digraph get distinct forms.
    """
    if g.n > CANONICAL_MAX:
        raise TooLargeError(
            f"graph on {g.n} vertices is too large for canonicalization "
            f"(cap {CANONICAL_MAX})")
    directed = isinstance(g, OrientedGraph)
    if directed:
        pairs = g.arcs
        rooted = g.root is not None
    else:
        pairs = tuple(g.edges())
        rooted = False

    best = None
    verts = list(range(g.n))
    if rooted:
        rest = [v for v in verts if v != g.root]
        perm_iter = (dict([(g.root, 0)] + list(zip(p, range(1, g.n))))
                     for p in itertools.permutations(rest))
    else:
        perm_iter = (dict(zip(verts, p)) for p in itertools.permutations(verts))
    for perm in perm_iter:
        if directed:
            relabeled = tuple(sorted((perm[u], perm[v]) for u, v in pairs))
        else:
            relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs))
        if best is None or relabeled < best:
            best = relabeled
    if best is None:
        best = ()
    return CanonicalForm(g.n, directed, rooted, best)


# ---------------------------------------------------------------------------
# standard families

def complete_graph(n):
    if n < 0:
        raise ValueError("complete graph needs n >= 0")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle_graph(t):
    if t < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(t, [(i, (i + 1) % t) for i in range(t)])


def path_graph(t):
    if t < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])


def directed_path(t):
    """P_t with all t-1 arcs oriented forward."""
    if t < 1:
        raise ValueError("directed path needs at least 1 vertex")
    return OrientedGraph.from_arcs(t, [(i, i + 1) for i in range(t - 1)])


def transitive_tournament(t):
    """TT_t: arc (i, j) for every i < j."""
    if t < 1:
        raise ValueError("transitive tournament needs at least 1 vertex")
    return OrientedGraph.from_arcs(t, itertools.combinations(range(t), 2))


def in_out_star(a, b):
    """Star with centre 0, a in-neighbours and b out-neighbours."""
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("star needs a, b >= 0 with at least one arc")
    arcs = [(1 + i, 0) for i in range(a)]
    arcs += [(0, 1 + a + i) for i in range(b)]
    return OrientedGraph.from_arcs(1 + a + b, arcs)


_FAMILIES = {
    "complete": (complete_graph, 1),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "directed_path": (directed_path, 1),
    "transitive_tournament": (transitive_tournament, 1),
    "in_out_star": (in_out_star, 2),
}


def make_family(kind, *params):
    """Build a named-family member; kinds: complete, cycle, path,
    directed_path, transitive_tournament, in_out_star."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}; choose from {sorted(_FAMILIES)}")
    builder, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# text format
#
#   g <n>      undirected header     d <n>      oriented header
#   r <root>   optional, oriented only
#   e <u> <v>  edge                  a <u> <v>  arc
#
# '#' starts a comment; 0-indexed vertices.  dumps() emits a normalized
# form (sorted arc lines) that loads() maps back to the identical object.

def dumps(g):
    lines = []
    if isinstance(g, OrientedGraph):
        lines.append(f"d {g.n}")
        if g.root is not None:
            lines.append(f"r {g.root}")
        for u, v in g.arcs:
            lines.append(f"a {u} {v}")
    elif isinstance(g, Graph):
        lines.append(f"g {g.n}")
        for u, v in g.edges():
            lines.append(f"e {u} {v}")
    else:
        raise TypeError(f"cannot serialize {type(g).__name__}")
    return "\n".join(lines) + "\n"


def loads(text):
    header = None
    n = None
    root = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        try:
            args = [int(x) for x in fields[1:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field in {raw!r}")
        if tag in ("g", "d"):
            if header is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(args) != 1:
                raise GraphFormatError(f"line {lineno}: header takes one integer")
            header, n = tag, args[0]
        elif tag == "r":
            if header != "d":
                raise GraphFormatError(f"line {lineno}: root only allowed after 'd' header")
            if root is not None or len(args) != 1:
                raise GraphFormatError(f"line {lineno}: bad root line")
            root = args[0]
        elif tag in ("e", "a"):
            if header is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if (tag == "e") != (header == "g"):
                raise GraphFormatError(f"line {lineno}: '{tag}' does not match '{header}' header")
            if len(args) != 2:
                raise GraphFormatError(f"line {lineno}: edge takes two integers")
            pairs.append((args[0], args[1]))
        else:
            raise GraphFormatError(f"line {lineno}: unknown tag {tag!r}")
    if header is None:
        raise GraphFormatError("missing 'g <n>' or 'd <n>' header")
    try:
        if header == "g":
            return Graph.from_edges(n, pairs)
        return OrientedGraph.from_arcs(n, pairs, root)
    except (ValueError, TooLargeError) as exc:
        raise GraphFormatError(str(exc))


# ---------------------------------------------------------------------------
# exhaustive small-graph catalogues (used by the small-case checks)

_GRAPH_CATALOGUE = {}
_ORIENTED_CATALOGUE = {}


def _pair_slots(n):
    return list(itertools.combinations(range(n), 2))


def _canonical_mask_values(masks, n):
    """Elementwise minimum of each edge mask over all vertex relabelings."""
    slots = _pair_slots(n)
    slot_index = {pair: i for i, pair in enumerate(slots)}
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        value = np.zeros_like(masks)
        for j, (u, v) in enumerate(slots):
            pu, pv = perm[u], perm[v]
            jp = slot_index[(pu, pv) if pu < pv else (pv, pu)]
            value |= ((masks >> j) & 1) << jp
        np.minimum(canon, value, out=canon)
    return canon


def nonisomorphic_graphs(n):
    """All graphs on n vertices up to isomorphism (n <= 7).

    For n <= 6 every edge mask is enumerated and reduced to its
    relabeling-minimal form (vectorized over masks).  n = 7 is built by
    augmentation: each 6-vertex representative is extended by one vertex
    with every possible neighbourhood, then deduplicated the same way;
    every 7-vertex graph restricts to some 6-vertex representative, so
    nothing is missed.
    """
    if n in _GRAPH_CATALOGUE:
        return _GRAPH_CATALOGUE[n]
    if n > 7:
        raise TooLargeError("graph catalogue capped at 7 vertices")
    slots = _pair_slots(n)
    m = len(slots)
    if n <= 6:
        masks = np.arange(1 << m, dtype=np.int64)
    else:
        slot_index = {pair: i for i, pair in enumerate(slots)}
        base_slots = _pair_slots(n - 1)
        candidates = set()
        for g in nonisomorphic_graphs(n - 1):
            base = 0
            for j, (u, v) in enumerate(base_slots):
                if g.has_edge(u, v):
                    base |= 1 << slot_index[(u, v)]
            for nb in range(1 << (n - 1)):
                mask = base
                for i in range(n - 1):
                    if nb >> i & 1:
                        mask |= 1 << slot_index[(i, n - 1)]
                candidates.add(mask)
        masks = np.array(sorted(candidates), dtype=np.int64)
    reps = np.unique(_canonical_mask_values(masks, n))
    out = []
    for mask in reps.tolist():
        edges = [slots[j] for j in range(m) if mask >> j & 1]
        out.append(Graph.from_edges(n, edges))
    _GRAPH_CATALOGUE[n] = out
    return out


def nonisomorphic_oriented_graphs(n):
    """All oriented graphs on n vertices up to isomorphism (n <= 5).

    Each vertex pair carries 0 (no arc), 1 (low->high) or 2 (high->low);
    relabeling permutes pair slots and swaps 1<->2 where the pair order
    flips.  Representatives are the minimal base-3 codes over all
    relabelings.
    """
    if n in _ORIENTED_CATALOGUE:
        return _ORIENTED_CATALOGUE[n]
    if n > 5:
        raise TooLargeError("oriented catalogue capped at 5 vertices")
    slots = _pair_slots(n)
    m = len(slots)
    slot_index = {pair: i for i, pair in enumerate(slots)}
    total = 3 ** m
    codes = np.arange(total, dtype=np.int64)
    digits = np.empty((total, m), dtype=np.int8)
    for j in range(m):
        digits[:, j] = (codes // (3 ** j)) % 3
    flip = np.array([0, 2, 1], dtype=np.int8)
    canon = codes.copy()
    for perm in itertools.permutations(range(n)):
        value = np.zeros_like(codes)
        for j, (u, v) in enumerate(slots):
            pu, pv = perm[u], perm[v]
            if pu < pv:
                jp = slot_index[(pu, pv)]
                d = digits[:, j]
            else:
                jp = slot_index[(pv, pu)]
                d = flip[digits[:, j]]
            value += d.astype(np.int64) * (3 ** jp)
        np.minimum(canon, value, out=canon)
    reps = np.unique(canon)
    out = []
    for code in reps.tolist():
        arcs = []
        for j, (u, v) in enumerate(slots):
            d = (code // (3 ** j)) % 3
            if d == 1:
                arcs.append((u, v))
            elif d == 2:
                arcs.append((v, u))
        out.append(OrientedGraph.from_arcs(n, arcs))
    _ORIENTED_CATALOGUE[n] = out
    return out
