"""Constructive orientation algorithms and structural reductions.

The two pillars: a coloring-increasing orientation never repeats a colour
along a directed path (so an optimal colouring yields a longest-directed-
path-minimal orientation), and star avoidance reduces to the core whose
minimum degree matches the star size, with the elimination order giving a
constructive extension back to the full graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, TooLargeError
from .graphs import OrientedGraph, iter_bits

EXACT_CHI_MAX_VERTICES = 30


@dataclass(frozen=True)
class Coloring:
    colors: tuple      # colour of vertex v, integers
    k: int             # number of distinct colours

    def is_proper(self, g):
        return all(self.colors[u] != self.colors[v] for u, v in g.edges())


@dataclass(frozen=True)
class ChromaticResult:
    value: int
    coloring: Coloring
    exact: bool        # False for the greedy-upper-bound mode


def _greedy_clique(g):
    """Best clique over greedy growth from each start vertex (lower bound)."""
    best = 0
    for start in range(g.n):
        clique = [start]
        cand = g.rows[start]
        while cand:
            pick, pick_deg = -1, -1
            for v in iter_bits(cand):
                d = (g.rows[v] & cand).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            clique.append(pick)
            cand &= g.rows[pick]
        best = max(best, len(clique))
    return best


def _dsatur_greedy(g):
    """DSATUR greedy colouring (upper bound plus witness)."""
    n = g.n
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] < 0),
                key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in iter_bits(g.rows[v]):
            neighbor_colors[w].add(c)
    k = max(colors) + 1 if n else 0
    return k, tuple(colors)


def _k_colorable(g, k, node_budget):
    """Backtracking k-colourability with DSATUR ordering; at most one new
    colour may be introduced per step (breaks colour symmetry)."""
    n = g.n
    colors = [-1] * n
    nodes = 0

    def forbidden(v):
        used = set()
        for w in iter_bits(g.rows[v]):
            if colors[w] >= 0:
                used.add(colors[w])
        return used

    def pick():
        best, best_key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = len(forbidden(v))
            key = (sat, g.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def go(depth, max_used):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("colouring search exceeded its node budget")
        if depth == n:
            return True
        v = pick()
        used = forbidden(v)
        limit = min(k, max_used + 2)
        for c in range(limit):
            if c in used:
                continue
            colors[v] = c
            if go(depth + 1, max(max_used, c)):
                return True
            colors[v] = -1
        return False

    try:
        found = go(0, -1)
    finally:
        del go          # go's closure cell refers to go: break the cycle
    return tuple(colors) if found else None


def chromatic_number(g, exact=True, node_budget=5_000_000):
    """Exact chromatic number with witness (branch-and-bound between a
    greedy clique lower bound and a DSATUR upper bound).  exact=False
    returns the DSATUR bound, explicitly labeled."""
    if g.n == 0:
        return ChromaticResult(0, Coloring((), 0), True)
    ub, ub_colors = _dsatur_greedy(g)
    if not exact:
        return ChromaticResult(ub, Coloring(ub_colors, ub), False)
    if g.n > EXACT_CHI_MAX_VERTICES:
        raise TooLargeError(
            f"exact chromatic number capped at {EXACT_CHI_MAX_VERTICES} vertices")
    lb = max(_greedy_clique(g), 1)
    best, best_colors = ub, ub_colors
    for k in range(lb, ub):
        witness = _k_colorable(g, k, node_budget)
        if witness is not None:
            best, best_colors = k, witness
            break
    return ChromaticResult(best, Coloring(best_colors, best), True)


def ghrv_orientation(g, coloring):
    """Orient every edge toward its endpoint of larger colour.

    With a proper colouring, colours strictly increase along every
    directed path of the output, so the orientation is acyclic and has no
    directed path on more vertices than there are colours.
    """
    if len(coloring.colors) != g.n:
        raise ValueError("colouring size does not match the graph")
    arcs = []
    for u, v in g.edges():
        cu, cv = coloring.colors[u], coloring.colors[v]
        if cu == cv:
            raise ValueError(f"improper colouring: edge ({u},{v}) is monochromatic")
        arcs.append((u, v) if cu < cv else (v, u))
    return OrientedGraph.from_arcs(g.n, arcs)


@dataclass(frozen=True)
class CoreDecomposition:
    k: int
    order: tuple       # eliminated vertices, in peeling order
    core: frozenset    # surviving vertex set

    def core_graph(self, g):
        return g.restricted(self.core)


def k_core(g, k):
    """Largest subgraph of minimum degree >= k, by iterated peeling.

    Ties peel the lowest-index vertex among those of minimum remaining
    degree, so elimination orders are reproducible.
    """
    if k < 0:
        raise ValueError("core parameter must be non-negative")
    alive = set(range(g.n))
    degree = {v: g.degree(v) for v in alive}
    order = []
    while True:
        candidates = [v for v in alive if degree[v] < k]
        if not candidates:
            break
        v = min(candidates, key=lambda u: (degree[u], u))
        order.append(v)
        alive.discard(v)
        for w in iter_bits(g.rows[v]):
            if w in alive:
                degree[w] -= 1
    return CoreDecomposition(k, tuple(order), frozenset(alive))


def _star_violation(oriented, a, b):
    """A vertex with >= a in-neighbours and >= b out-neighbours, or None."""
    indeg = oriented.in_degrees()
    outdeg = oriented.out_degrees()
    for v in range(oriented.n):
        if indeg[v] >= a and outdeg[v] >= b:
            return v
    return None


def star_free_extension(g, core_orientation, a, b):
    """Extend a star-free orientation of the (a+b)-core to all of g.

    Eliminated vertices are re-inserted in reverse peeling order; each new
    edge v_i-w is pointed at v_i while w still has at most a-1
    in-neighbours and at w otherwise, which preserves w's claim to never
    become a star centre.  When a vertex satisfies both degree clauses the
    in-rule is applied first (fixed for determinism).
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("star needs a, b >= 0 with at least one arc")
    dec = k_core(g, a + b)
    core_edges = set(dec.core_graph(g).edges())
    cert_edges = set(core_orientation.underlying().edges())
    if core_orientation.n != g.n or cert_edges != core_edges:
        raise ValueError("core orientation must orient exactly the core edges")
    bad = _star_violation(core_orientation, a, b)
    if bad is not None:
        raise ValueError(
            f"core orientation already has a star centre at vertex {bad}")

    arcs = list(core_orientation.arcs)
    indeg = core_orientation.in_degrees()
    outdeg = core_orientation.out_degrees()
    present = set(dec.core)
    for v in reversed(dec.order):
        present.add(v)
        for w in iter_bits(g.rows[v]):
            if w not in present:
                continue
            if indeg[w] <= a - 1:
                arcs.append((w, v))          # toward v: w keeps its in-count
                outdeg[w] += 1
                indeg[v] += 1
            else:
                arcs.append((v, w))          # toward w: w keeps its out-count
                indeg[w] += 1
                outdeg[v] += 1
    return OrientedGraph.from_arcs(g.n, arcs)


def chi_over_log_check(g, t, chi=None):
    """Sufficient condition for g -> t (t an oriented tree): true when
    v(t) * ceil(log2 v(g)) <= chi(g).  One-sided: false proves nothing."""
    under = t.underlying()
    if t.n < 1 or under.e != t.n - 1 or not under.is_connected():
        raise ValueError("check needs an oriented tree")
    if g.n < 2:
        raise ValueError("check needs a host with at least 2 vertices")
    if chi is None:
        chi = chromatic_number(g).value
    ceil_log2 = (g.n - 1).bit_length()
    return t.n * ceil_log2 <= chi
