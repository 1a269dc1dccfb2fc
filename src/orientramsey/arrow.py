"""Exact decisions of the arrow relation G -> H with certificates.

An orientation of G contains a copy of H exactly when it realizes one of
the "copy patterns" of H in G: a concrete set of G-edges together with
one direction bit per edge such that the resulting arcs are isomorphic to
H.  A pattern is written in the kernels' encoding, a tuple of (e, bit)
literals with e an index into G.edges().  The solver enumerates every
pattern once (each copy of H's underlying graph is found once and carries
one pattern per orientation isomorphic to H) and then decides, by
propagation-driven backtracking over edge directions, whether some
orientation avoids them all.  A found orientation is the falsity
certificate; exhaustion of the search proves the arrow relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from operator import xor
from typing import NamedTuple

from .errors import BudgetExceededError, TooLargeError
from .graphs import SOLVER_MAX_VERTICES, OrientedGraph, canonical, iter_bits
from . import kernels

PATTERN_MAX_VERTICES = 10
DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_EMBED_BUDGET = 5_000_000
EXHAUSTIVE_MAX_EDGES = 22


def _check_sizes(g, h):
    if h.n > PATTERN_MAX_VERTICES:
        raise TooLargeError(
            f"pattern on {h.n} vertices exceeds the {PATTERN_MAX_VERTICES}-vertex cap")
    if g.n > SOLVER_MAX_VERTICES:
        raise TooLargeError(
            f"host on {g.n} vertices exceeds the {SOLVER_MAX_VERTICES}-vertex "
            f"cap of the exact solver paths")


@dataclass(frozen=True)
class ArrowResult:
    verdict: bool
    certificate: OrientedGraph | None
    nodes: int
    n_patterns: int


def _embedding_order(under):
    """Placement order of the non-isolated pattern vertices, anchored first."""
    degs = [under.degree(v) for v in range(under.n)]
    noniso = [v for v in range(under.n) if degs[v] > 0]
    order = []
    for _ in noniso:
        order.append(max((v for v in noniso if v not in order), key=lambda v: (
            sum(w in order for w in iter_bits(under.rows[v])), degs[v], -v)))
    return order


@lru_cache(maxsize=32)
def _plan(h):
    """h's non-isolated vertices as positions 0..k-1 in placement order:
    back[i] lists the earlier positions adjacent to position i in the
    underlying graph U, adj[i] is i's neighbour mask in U, edges are U's
    edges as position pairs (j, i) with j < i, arcs are h's arcs."""
    under = h.underlying()
    order = _embedding_order(under)
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(tuple(sorted(pos[w] for w in iter_bits(under.rows[v]) if pos[w] < i))
                 for i, v in enumerate(order))
    adj = tuple(sum(1 << pos[w] for w in iter_bits(under.rows[v])) for v in order)
    edges = tuple((j, i) for i in range(len(order)) for j in back[i])
    return back, adj, edges, frozenset((pos[u], pos[v]) for u, v in h.arcs)


class _Symmetry(NamedTuple):
    above: tuple      # above[i]: positions whose images must lie below position i's
    rows: tuple       # distinct orientations of U isomorphic to h, one bit per plan edge
    placements: int   # placements spent listing Aut(U)
    converse: bool    # rows closed under complement, i.e. h is isomorphic to its reverse


@lru_cache(maxsize=32)
def _symmetry(h):
    """Aut(U), listed by embedding U into U, as enumerate_copies uses it:
    the Grochow-Kellis conditions (a position's image lies below the rest of
    its orbit under the stabiliser of the earlier positions) and one row of
    edge bits per distinct image of h.  Capped at DEFAULT_EMBED_BUDGET.
    A pattern's bits are row ^ flips, so rows closed under complementing
    every bit mean a pattern set closed under reversing every edge."""
    back, adj, edges, arcs = _plan(h)
    autos = []
    placements = _embed(adj, len(back), back, DEFAULT_EMBED_BUDGET,
                        lambda x, _: autos.append(tuple(x)))
    above = [[] for _ in back]
    stabiliser = autos
    for i in range(len(back)):
        for w in {s[i] for s in stabiliser} - {i}:
            above[w].append(i)
        stabiliser = [s for s in stabiliser if s[i] == i]
    rows = dict.fromkeys(
        tuple(int((j, i) not in image) for j, i in edges)
        for image in ({(s[a], s[b]) for a, b in arcs} for s in autos))
    converse = all(tuple(1 - b for b in row) in rows for row in rows)
    return _Symmetry(tuple(map(tuple, above)), tuple(rows), placements, converse)


def _embed(adj, n, back, cap, leaf, h=None):
    """Call leaf(x, table) on each injective placement x of the plan
    positions on vertices 0..n-1 (adj[v]: neighbour mask) with x[i] adjacent
    to x[j] for j in back[i]; return the placements made, raising past cap.

    Given h, its _Symmetry table is looked up at the first full placement.
    Candidates are tried in increasing order, so that placement is the least
    and meets every condition x[v] < x[i] (v in above[i]), as do the ones
    still open above it; from there on the conditions prune the search to
    one leaf per copy of U.  The table's placements count on every call."""
    k = len(back)
    x = [0] * k
    steps = 0
    table = None
    over = f"copy enumeration exceeded {cap} placements"

    def place(i, free):
        nonlocal steps, table
        if i == k:
            if table is None and h is not None:
                table = _symmetry(h)
                steps += table.placements
                if steps > cap:
                    raise BudgetExceededError(over)
            leaf(x, table)
            return
        cand = free
        for j in back[i]:
            cand &= adj[x[j]]
        if table is not None and table.above[i]:
            cand &= -1 << max(x[v] for v in table.above[i]) + 1
        steps += cand.bit_count()
        if steps > cap:
            raise BudgetExceededError(over)
        while cand:
            low = cand & -cand
            cand ^= low
            x[i] = low.bit_length() - 1
            place(i + 1, free ^ low)

    try:
        place(0, (1 << n) - 1)
    finally:
        del place       # place's closure cell refers to place: break the cycle
    return steps


def enumerate_copies(g, h, max_embeddings=DEFAULT_EMBED_BUDGET):
    """All copy patterns of h in g, each exactly once, as tuples of (e, bit)
    literals: e indexes g.edges() (pairs (u, v) with u < v) and bit 0 means
    the arc runs u -> v.

    Each copy of h's underlying graph is found once and yields one pattern
    per distinct orientation of it isomorphic to h.  The order is
    deterministic (search order, then table row order) but not sorted.
    max_embeddings bounds the placements, the symmetry table's included.
    """
    _check_sizes(g, h)
    if g.n < h.n:
        return []
    if h.e == 0:
        return [()]
    back, _, edges, _ = _plan(h)
    n = g.n
    eid = [0] * (n * n)
    for e, (u, v) in enumerate(g.edges()):
        eid[u * n + v] = eid[v * n + u] = e
    out = []
    bits_by_flips = {}

    def emit(x, table):
        ids = [eid[x[j] * n + x[i]] for j, i in edges]
        flips = tuple(x[j] > x[i] for j, i in edges)
        if flips not in bits_by_flips:
            bits_by_flips[flips] = [tuple(map(xor, row, flips)) for row in table.rows]
        out.extend([tuple(zip(ids, bits)) for bits in bits_by_flips[flips]])

    _embed(g.rows, n, back, max_embeddings, emit, h)
    return out


def _orient(g, bits):
    """The orientation of g giving edge e of g.edges() the direction bits[e]
    (0: low -> high)."""
    return OrientedGraph.from_arcs(
        g.n, [(v, u) if b else (u, v) for (u, v), b in zip(g.edges(), bits)])


def arrow(g, h, node_budget=DEFAULT_NODE_BUDGET, time_budget=None,
          embed_budget=DEFAULT_EMBED_BUDGET):
    """Decide whether every orientation of g contains a copy of h.

    False verdicts carry a complete h-free orientation of g.  A cyclic h
    is never forced (any acyclic orientation of g avoids it), so those
    inputs short-circuit to a false verdict.  Running out of node or time
    budget raises BudgetExceededError rather than guessing.

    time_budget (seconds) bounds the orientation search only; its clock
    starts after copy enumeration, which embed_budget bounds instead.  The
    search reads the clock every kernels.DEADLINE_STRIDE nodes.
    """
    _check_sizes(g, h)
    if h.e == 0 and g.n >= h.n:
        return ArrowResult(True, None, 0, 0)
    patterns = (enumerate_copies(g, h, max_embeddings=embed_budget)
                if h.e and h.is_acyclic() else [])
    if not patterns:
        return ArrowResult(False, _orient(g, [0] * g.e), 0, 0)

    deadline = None if time_budget is None else time.monotonic() + time_budget
    status, assignment, nodes = kernels.dpll_orientation_search(
        g.e, patterns, node_budget, deadline, converse=_symmetry(h).converse)
    if status == kernels.OUT_OF_BUDGET:
        raise BudgetExceededError(
            f"orientation search exceeded {node_budget} nodes", nodes=nodes)
    if status == kernels.OUT_OF_TIME:
        raise BudgetExceededError(
            f"orientation search exceeded {time_budget} s", nodes=nodes)
    if status == kernels.UNSAT:
        return ArrowResult(True, None, nodes, len(patterns))
    return ArrowResult(False, _orient(g, assignment), nodes, len(patterns))


@dataclass(frozen=True)
class ExhaustiveResult:
    verdict: bool
    free_count: int
    certificate: OrientedGraph | None


def arrow_exhaustive(g, h):
    """Decide g -> h by scanning all 2^e(g) orientations (the oracle path)."""
    if g.e > EXHAUSTIVE_MAX_EDGES:
        raise TooLargeError(f"exhaustive scan capped at {EXHAUSTIVE_MAX_EDGES} edges")
    count, first_free = kernels.exhaustive_scan(g.e, enumerate_copies(g, h))
    if count == 0:
        return ExhaustiveResult(True, 0, None)
    return ExhaustiveResult(False, count,
                            _orient(g, [first_free >> e & 1 for e in range(g.e)]))


def contains_copy(d, h):
    """Direct subdigraph test: does the oriented graph d contain a copy
    of h?  Shares no code with the pattern machinery (not even its
    placement order); used to audit certificates."""
    if h.e == 0:
        return d.n >= h.n
    if d.n < h.n:
        return False
    # placement order: breadth-first through each component of h's
    # underlying graph, from a vertex of highest degree; isolated vertices
    # need no placement
    under = h.underlying()
    order = []
    for root in sorted(range(h.n), key=under.degree, reverse=True):
        if under.rows[root] and root not in order:
            queue = [root]
            for v in queue:     # the loop also reads what it appends
                queue += [w for w in iter_bits(under.rows[v]) if w not in queue]
            order += queue
    out_masks = [d.out_mask(v) for v in range(d.n)]
    in_masks = [d.in_mask(v) for v in range(d.n)]
    h_out = [h.out_mask(v) for v in range(h.n)]
    h_in = [h.in_mask(v) for v in range(h.n)]
    images = [-1] * h.n
    full = (1 << d.n) - 1

    def place(i, used):
        if i == len(order):
            return True     # d.n >= h.n leaves room for h's isolated vertices
        v = order[i]
        cand = full & ~used
        for w in iter_bits(h_out[v]):
            if images[w] >= 0:
                cand &= in_masks[images[w]]
        for w in iter_bits(h_in[v]):
            if images[w] >= 0:
                cand &= out_masks[images[w]]
        for x in iter_bits(cand):
            images[v] = x
            if place(i + 1, used | (1 << x)):
                images[v] = -1
                return True
            images[v] = -1
        return False

    try:
        return place(0, 0)
    finally:
        del place       # as in _embed: break place's reference cycle


def count_copies(d, h):
    """Number of distinct arc subsets of d isomorphic to h: the copy
    patterns of h in d's underlying graph that d realizes."""
    if h.e == 0:
        raise ValueError("copy counting needs a pattern with at least one arc")
    g = d.underlying()
    arcs = set(d.arcs)
    flipped = [(v, u) in arcs for u, v in g.edges()]
    return sum(all(flipped[e] == b for e, b in lits)
               for lits in enumerate_copies(g, h))


def verify_certificate(g, h, cert):
    """True iff cert orients exactly the edges of g and contains no copy of h."""
    if cert.n != g.n or cert.underlying() != g:
        return False
    return not contains_copy(cert, h)


def oriented_ramsey_number(h, n_max=10, canon_budget=100_000):
    """Least n <= n_max with K_n -> h, or None if it exceeds n_max.

    Grows h-free tournaments one vertex at a time, pruning anything that
    already contains h and deduplicating by canonical form, so each
    isomorphism class is extended once.  The answer is the first order
    with no h-free tournament left.
    """
    if not h.is_acyclic():
        raise ValueError("cyclic patterns have no finite oriented Ramsey number")
    if h.n > 5:
        raise TooLargeError("ramsey search capped at 5-vertex patterns")
    if n_max > 10:
        raise TooLargeError("ramsey search capped at n_max = 10")
    if h.e == 0:
        return h.n if h.n <= n_max else None
    if 1 > n_max:
        return None
    frees = [OrientedGraph.from_arcs(1, ())]
    spent = 0
    for k in range(2, n_max + 1):
        classes = {}
        for t in frees:
            for mask in range(1 << (k - 1)):
                arcs = list(t.arcs)
                for j in range(k - 1):
                    arcs.append((k - 1, j) if mask >> j & 1 else (j, k - 1))
                cand = OrientedGraph.from_arcs(k, arcs)
                if contains_copy(cand, h):
                    continue
                spent += 1
                if spent > canon_budget:
                    raise BudgetExceededError(
                        f"tournament search exceeded {canon_budget} canonicalizations")
                form = canonical(cand)
                if form not in classes:
                    classes[form] = cand
        if not classes:
            return k
        frees = [classes[f] for f in sorted(classes, key=lambda c: c.arcs)]
    return None
