"""Exact decisions of the arrow relation G -> H with certificates.

An orientation of G contains a copy of H exactly when it realizes one of
the "copy patterns" of H in G: a concrete set of G-edges together with
one direction bit per edge such that the resulting arcs are isomorphic to
H.  The solver enumerates every pattern once (deduplicated over the
automorphisms of H) and then decides, by propagation-driven backtracking
over edge directions, whether some orientation avoids them all.  A found
orientation is the falsity certificate; exhaustion of the search proves
the arrow relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceededError, TooLargeError
from .graphs import SOLVER_MAX_VERTICES, OrientedGraph, canonical, iter_bits
from . import kernels

PATTERN_MAX_VERTICES = 10
DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_EMBED_BUDGET = 5_000_000
EXHAUSTIVE_MAX_EDGES = 22


def _check_host(g):
    if g.n > SOLVER_MAX_VERTICES:
        raise TooLargeError(
            f"host on {g.n} vertices exceeds the {SOLVER_MAX_VERTICES}-vertex "
            f"cap of the exact solver paths")


@dataclass(frozen=True)
class CopyPattern:
    """One forbidden orientation: host edges plus direction bits.

    vertices is a representative embedding (image of pattern vertex i);
    edges are host pairs (u, v) with u < v and bits[i] = 0 means the arc
    runs u -> v.
    """

    vertices: tuple
    edges: tuple
    bits: tuple


@dataclass(frozen=True)
class ArrowResult:
    verdict: bool
    certificate: OrientedGraph | None
    nodes: int
    n_patterns: int


def _embedding_order(under):
    """Pattern-vertex placement order: anchored-first, isolated last."""
    degs = [under.degree(v) for v in range(under.n)]
    noniso = [v for v in range(under.n) if degs[v] > 0]
    iso = [v for v in range(under.n) if degs[v] == 0]
    order = []
    placed = set()
    while len(order) < len(noniso):
        best_key, best_v = None, None
        for v in noniso:
            if v in placed:
                continue
            anchored = sum(1 for w in iter_bits(under.rows[v]) if w in placed)
            key = (anchored, degs[v], -v)
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed.add(best_v)
    return order, iso


def enumerate_copies(g, h, max_embeddings=DEFAULT_EMBED_BUDGET):
    """All copy patterns of h in g, deduplicated over Aut(h).

    Patterns come back sorted by (edges, bits); each keeps the first
    embedding found as its representative, so output is deterministic.
    """
    if h.n > PATTERN_MAX_VERTICES:
        raise TooLargeError(
            f"pattern on {h.n} vertices exceeds the {PATTERN_MAX_VERTICES}-vertex cap")
    _check_host(g)
    under = h.underlying()
    edge_index = {pair: i for i, pair in enumerate(g.edges())}
    edge_list = g.edges()
    order, iso = _embedding_order(under)
    full_host = (1 << g.n) - 1

    if h.e == 0:
        if g.n >= h.n:
            return [CopyPattern(tuple(range(h.n)), (), ())]
        return []

    images = [-1] * h.n
    patterns = {}
    steps = 0

    def record():
        key_pairs = []
        for u, v in h.arcs:
            a, b = images[u], images[v]
            if a < b:
                key_pairs.append((edge_index[(a, b)], 0))
            else:
                key_pairs.append((edge_index[(b, a)], 1))
        key_pairs.sort()
        key = tuple(key_pairs)
        if key not in patterns:
            filled = list(images)
            unused = (v for v in range(g.n) if not used_mask[0] >> v & 1)
            for v in iso:
                filled[v] = next(unused)
            patterns[key] = tuple(filled)

    used_mask = [0]

    def place(i):
        nonlocal steps
        if i == len(order):
            if g.n - used_mask[0].bit_count() >= len(iso):
                record()
            return
        v = order[i]
        cand = full_host & ~used_mask[0]
        for w in iter_bits(under.rows[v]):
            if images[w] >= 0:
                cand &= g.rows[images[w]]
        for x in iter_bits(cand):
            steps += 1
            if steps > max_embeddings:
                raise BudgetExceededError(
                    f"copy enumeration exceeded {max_embeddings} placements")
            images[v] = x
            used_mask[0] |= 1 << x
            place(i + 1)
            images[v] = -1
            used_mask[0] ^= 1 << x
    place(0)

    out = []
    for key in sorted(patterns):
        idxs, bits = zip(*key) if key else ((), ())
        out.append(CopyPattern(patterns[key],
                               tuple(edge_list[i] for i in idxs),
                               tuple(bits)))
    return out


def _literals(edge_index, patterns):
    """The kernels' encoding: one tuple of (edge, bit) literals per pattern."""
    return [tuple(zip([edge_index[pair] for pair in pat.edges], pat.bits))
            for pat in patterns]


def _low_high_orientation(g):
    return OrientedGraph.from_arcs(g.n, g.edges())


def _certificate_from_assignment(g, covered, assignment):
    arcs = []
    value = dict(zip(covered, assignment))
    for u, v in g.edges():
        if (u, v) in value and value[(u, v)] == 1:
            arcs.append((v, u))
        else:
            arcs.append((u, v))
    return OrientedGraph.from_arcs(g.n, arcs)


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
    if h.n > PATTERN_MAX_VERTICES:
        raise TooLargeError(
            f"pattern on {h.n} vertices exceeds the {PATTERN_MAX_VERTICES}-vertex cap")
    _check_host(g)
    if not h.is_acyclic():
        return ArrowResult(False, _low_high_orientation(g), 0, 0)
    if h.e == 0:
        if g.n >= h.n:
            return ArrowResult(True, None, 0, 0)
        return ArrowResult(False, _low_high_orientation(g), 0, 0)

    patterns = enumerate_copies(g, h, max_embeddings=embed_budget)
    if not patterns:
        return ArrowResult(False, _low_high_orientation(g), 0, 0)

    covered = sorted({pair for pat in patterns for pair in pat.edges})
    literals = _literals({pair: i for i, pair in enumerate(covered)}, patterns)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    status, assignment, nodes = kernels.dpll_orientation_search(
        len(covered), literals, node_budget, deadline)
    if status == kernels.OUT_OF_BUDGET:
        raise BudgetExceededError(
            f"orientation search exceeded {node_budget} nodes", nodes=nodes)
    if status == kernels.OUT_OF_TIME:
        raise BudgetExceededError(
            f"orientation search exceeded {time_budget} s", nodes=nodes)
    if status == kernels.UNSAT:
        return ArrowResult(True, None, nodes, len(patterns))
    certificate = _certificate_from_assignment(g, covered, assignment)
    return ArrowResult(False, certificate, nodes, len(patterns))


@dataclass(frozen=True)
class ExhaustiveResult:
    verdict: bool
    free_count: int
    certificate: OrientedGraph | None


def arrow_exhaustive(g, h, max_edges=EXHAUSTIVE_MAX_EDGES):
    """Decide g -> h by scanning all 2^e(g) orientations (the oracle path)."""
    if g.e > max_edges:
        raise TooLargeError(f"exhaustive scan capped at {max_edges} edges")
    patterns = enumerate_copies(g, h)
    edge_list = g.edges()
    literals = _literals({pair: i for i, pair in enumerate(edge_list)}, patterns)
    count, first_free = kernels.exhaustive_scan(g.e, literals)
    if count == 0:
        return ExhaustiveResult(True, 0, None)
    arcs = []
    for i, (u, v) in enumerate(edge_list):
        arcs.append((v, u) if first_free >> i & 1 else (u, v))
    return ExhaustiveResult(False, count, OrientedGraph.from_arcs(g.n, arcs))


def contains_copy(d, h):
    """Direct subdigraph test: does the oriented graph d contain a copy
    of h?  Independent of the pattern machinery; used to audit
    certificates."""
    if h.e == 0:
        return d.n >= h.n
    if d.n < h.n:
        return False
    under = h.underlying()
    order, iso = _embedding_order(under)
    out_masks = [d.out_mask(v) for v in range(d.n)]
    in_masks = [d.in_mask(v) for v in range(d.n)]
    h_out = [h.out_mask(v) for v in range(h.n)]
    h_in = [h.in_mask(v) for v in range(h.n)]
    images = [-1] * h.n
    full = (1 << d.n) - 1

    def place(i, used):
        if i == len(order):
            return d.n - used.bit_count() >= len(iso)
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

    return place(0, 0)


def count_copies(d, h, max_embeddings=DEFAULT_EMBED_BUDGET):
    """Number of distinct arc subsets of d isomorphic to h."""
    if h.e == 0:
        raise ValueError("copy counting needs a pattern with at least one arc")
    under = h.underlying()
    order, iso = _embedding_order(under)
    out_masks = [d.out_mask(v) for v in range(d.n)]
    in_masks = [d.in_mask(v) for v in range(d.n)]
    h_out = [h.out_mask(v) for v in range(h.n)]
    h_in = [h.in_mask(v) for v in range(h.n)]
    images = [-1] * h.n
    full = (1 << d.n) - 1
    found = set()
    steps = 0

    def place(i, used):
        nonlocal steps
        if i == len(order):
            if d.n - used.bit_count() >= len(iso):
                found.add(frozenset((images[u], images[v]) for u, v in h.arcs))
            return
        v = order[i]
        cand = full & ~used
        for w in iter_bits(h_out[v]):
            if images[w] >= 0:
                cand &= in_masks[images[w]]
        for w in iter_bits(h_in[v]):
            if images[w] >= 0:
                cand &= out_masks[images[w]]
        for x in iter_bits(cand):
            steps += 1
            if steps > max_embeddings:
                raise BudgetExceededError("copy counting exceeded its budget")
            images[v] = x
            place(i + 1, used | (1 << x))
            images[v] = -1

    place(0, 0)
    return len(found)


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
