"""Graph and oriented-graph primitives.

Undirected graphs live on vertices 0..n-1 with bitset adjacency rows, so
neighbourhood intersections are single integer ANDs.  Oriented graphs are
loop-free digraphs with at most one arc per vertex pair (no digons) and an
optional distinguished root.  Both are immutable values: hashable, safe to
share between workers.
"""

from __future__ import annotations

import functools
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

    def source_order(self):
        """Vertices in the order repeated source elimination removes them:
        a topological order if acyclic, else without the vertices on or
        after a directed cycle."""
        indeg = self.in_degrees()
        out = [[] for _ in range(self.n)]
        for a, b in self.arcs:
            out[a].append(b)
        stack = [v for v in range(self.n) if indeg[v] == 0]
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return order

    def is_acyclic(self):
        """True iff there is no directed cycle (repeated source elimination)."""
        return len(self.source_order()) == self.n

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
#
# A graph on n vertices is coded by one digit per vertex pair (u, v), u < v,
# digit j weighing base**j with the pairs in itertools.combinations order:
# 0 for no edge, 1 for the edge or the arc u -> v, 2 for the arc v -> u.
# flip[d] is digit d read from the other end of its pair, so flip = (0, 1)
# codes graphs (base 2) and flip = (0, 2, 1) oriented graphs (base 3).  A
# class is listed by its least code over all vertex relabelings.
#
# The classes are built by adding one vertex at a time (canonical
# augmentation, McKay 1998): deleting vertex n - 1 from any graph on n
# vertices leaves a graph on n - 1 vertices, isomorphic to some listed
# class, so that class joined to the right neighbourhood of vertex n - 1 is
# isomorphic to the graph.  Reducing every such candidate to its least code
# therefore reaches every class on n vertices, each under one code.

def _digits(codes, base, m):
    """The m base-`base` digits of each code, digit j as contiguous row j."""
    return codes // base ** np.arange(m, dtype=np.int64)[:, None] % base


@functools.cache
def _least_codes(n, flip):
    """Ascending least codes of the classes on n vertices."""
    if n <= 1:
        return np.zeros(1, dtype=np.int64)
    base = len(flip)
    slots = list(itertools.combinations(range(n), 2))
    index = {pair: j for j, pair in enumerate(slots)}
    weight = base ** np.arange(len(slots), dtype=np.int64)
    old = [index[pair] for pair in itertools.combinations(range(n - 1), 2)]
    new = [index[(u, n - 1)] for u in range(n - 1)]
    head = weight[old] @ _digits(_least_codes(n - 1, flip), base, len(old))
    tail = np.array(list(itertools.product(range(base), repeat=n - 1))) @ weight[new]
    codes = (head[:, None] + tail).ravel()
    digits = _digits(codes, base, len(slots))
    flipped = np.array(flip)[digits]
    least = codes.copy()
    for perm in itertools.permutations(range(n)):
        value = np.zeros_like(codes)
        for j, (u, v) in enumerate(slots):
            pu, pv = perm[u], perm[v]
            if pu < pv:
                value += digits[j] * weight[index[(pu, pv)]]
            else:
                value += flipped[j] * weight[index[(pv, pu)]]
        np.minimum(least, value, out=least)
    return np.unique(least)


def _class_pairs(n, flip):
    """Each class's least code decoded to pairs: digit 1 on slot (u, v)
    gives (u, v), digit 2 gives (v, u)."""
    slots = list(itertools.combinations(range(n), 2))
    rows = _digits(_least_codes(n, flip), len(flip), len(slots)).T.tolist()
    return [[(u, v) if d == 1 else (v, u) for (u, v), d in zip(slots, row) if d]
            for row in rows]


@functools.cache
def nonisomorphic_graphs(n):
    """All graphs on n vertices up to isomorphism (n <= 7): for each class,
    the graph of its least code (the edge mask, bit j set for an edge on
    the j-th pair of itertools.combinations(range(n), 2)), by increasing
    code.  Built from the classes on n - 1 vertices by adding vertex n - 1
    with every neighbourhood (see the section comment)."""
    if n > 7:
        raise TooLargeError("graph catalogue capped at 7 vertices")
    return [Graph.from_edges(n, edges) for edges in _class_pairs(n, (0, 1))]


@functools.cache
def nonisomorphic_oriented_graphs(n):
    """All oriented graphs on n vertices up to isomorphism (n <= 5): for
    each class, the oriented graph of its least base-3 code (digit j for
    the j-th pair (u, v) of itertools.combinations(range(n), 2): 0 no arc,
    1 u -> v, 2 v -> u), by increasing code.  Built from the classes on
    n - 1 vertices by adding vertex n - 1 with every in/out-neighbourhood
    (see the section comment)."""
    if n > 5:
        raise TooLargeError("oriented catalogue capped at 5 vertices")
    return [OrientedGraph.from_arcs(n, arcs) for arcs in _class_pairs(n, (0, 2, 1))]
