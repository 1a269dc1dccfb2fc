import random

import numpy as np

from orientramsey import (directed_path, in_out_star, transitive_tournament,
                          OrientedGraph, complete_graph)
from orientramsey.arrow import enumerate_copies
from orientramsey.experiments import sample_gnp
from orientramsey import kernels

from conftest import random_graph


# ---------------------------------------------------------------------------
# Test-only references: the scalar DPLL kernel over CSR pattern arrays and
# the loop form of the exhaustive scan.  The kernels under test must agree
# with them exactly.

def _reference_arrays(n_edges, literals):
    """CSR pattern arrays plus the edge->pattern incidence."""
    pat_ptr = np.zeros(len(literals) + 1, np.int32)
    flat_edge = []
    flat_bit = []
    for i, lits in enumerate(literals):
        for e, bit in lits:
            flat_edge.append(e)
            flat_bit.append(bit)
        pat_ptr[i + 1] = len(flat_edge)
    pat_edge = np.array(flat_edge, np.int32)
    pat_bit = np.array(flat_bit, np.uint8)
    counts = np.zeros(n_edges + 1, np.int32)
    for e in flat_edge:
        counts[e + 1] += 1
    inc_ptr = np.cumsum(counts).astype(np.int32)
    inc_pat = np.empty(len(flat_edge), np.int32)
    inc_bit = np.empty(len(flat_edge), np.uint8)
    cursor = inc_ptr[:-1].copy()
    for p in range(len(literals)):
        for t in range(pat_ptr[p], pat_ptr[p + 1]):
            e = pat_edge[t]
            inc_pat[cursor[e]] = p
            inc_bit[cursor[e]] = pat_bit[t]
            cursor[e] += 1
    return pat_ptr, pat_edge, pat_bit, inc_ptr, inc_pat, inc_bit


def _reference_dpll(n_edges, pat_ptr, pat_edge, pat_bit,
                    inc_ptr, inc_pat, inc_bit, node_budget, converse=False):
    """Scalar DPLL with per-pattern counters and trail-based undo.

    Same decision rule as the kernel: highest near-completion score, lowest
    edge on ties, then the value whose alive patterns weigh less (0 on a
    tie), chronological backtracking.  With converse the root decision
    gets no second value.  SAT as soon as every pattern has a mismatch,
    the undecided edges at 0.
    """
    n_pat = pat_ptr.shape[0] - 1
    assign = np.full(n_edges, -1, np.int8)
    unassigned = np.empty(n_pat, np.int32)
    mismatch = np.zeros(n_pat, np.int32)
    for p in range(n_pat):
        unassigned[p] = pat_ptr[p + 1] - pat_ptr[p]
    trail = np.empty(n_edges + 1, np.int32)
    trail_len = 0
    dec_edge = np.empty(n_edges + 1, np.int32)
    dec_val = np.empty(n_edges + 1, np.int8)
    dec_flipped = np.empty(n_edges + 1, np.uint8)
    dec_trail = np.empty(n_edges + 2, np.int32)
    n_dec = 0
    queue = np.empty(n_pat + n_edges + 8, np.int64)
    q_len = 0
    score = np.zeros(n_edges, np.int64)
    nodes = 0

    def weight(p):
        shift = 2 * (12 - unassigned[p])
        if shift < 0:
            shift = 0
        if shift > 40:
            shift = 40
        return np.int64(1) << shift

    for p in range(n_pat):
        if unassigned[p] == 1:
            t = pat_ptr[p]
            queue[q_len] = (np.int64(pat_edge[t]) << 1) | (1 - pat_bit[t])
            q_len += 1

    while True:
        conflict = False
        qi = 0
        while qi < q_len:
            lit = queue[qi]
            qi += 1
            e = np.int32(lit >> 1)
            v = np.int8(lit & 1)
            if assign[e] == v:
                continue
            if assign[e] == 1 - v:
                conflict = True
                break
            assign[e] = v
            trail[trail_len] = e
            trail_len += 1
            # every incidence of e must be counted even after a conflict,
            # or the backtracking undo would corrupt the counters
            for k in range(inc_ptr[e], inc_ptr[e + 1]):
                p = inc_pat[k]
                unassigned[p] -= 1
                if v != inc_bit[k]:
                    mismatch[p] += 1
                elif mismatch[p] == 0:
                    if unassigned[p] == 0:
                        conflict = True
                    elif unassigned[p] == 1:
                        for t in range(pat_ptr[p], pat_ptr[p + 1]):
                            e2 = pat_edge[t]
                            if assign[e2] < 0:
                                queue[q_len] = (np.int64(e2) << 1) | (1 - pat_bit[t])
                                q_len += 1
                                break
            if conflict:
                break
        q_len = 0

        if conflict:
            while True:
                if n_dec == 0:
                    return kernels.UNSAT, assign, nodes
                target = dec_trail[n_dec - 1]
                while trail_len > target:
                    trail_len -= 1
                    e = trail[trail_len]
                    v = assign[e]
                    assign[e] = -1
                    for k in range(inc_ptr[e], inc_ptr[e + 1]):
                        p = inc_pat[k]
                        unassigned[p] += 1
                        if v != inc_bit[k]:
                            mismatch[p] -= 1
                if dec_flipped[n_dec - 1] == 0:
                    dec_flipped[n_dec - 1] = 1
                    v2 = 1 - dec_val[n_dec - 1]
                    dec_val[n_dec - 1] = v2
                    nodes += 1
                    if nodes > node_budget:
                        return kernels.OUT_OF_BUDGET, assign, nodes
                    queue[0] = (np.int64(dec_edge[n_dec - 1]) << 1) | v2
                    q_len = 1
                    break
                n_dec -= 1
            continue

        if not (mismatch == 0).any():     # a full assignment included
            assign[assign < 0] = 0
            return kernels.SAT, assign, nodes

        for e in range(n_edges):
            score[e] = 0
        for p in range(n_pat):
            if mismatch[p] == 0:
                w = weight(p)
                for t in range(pat_ptr[p], pat_ptr[p + 1]):
                    e = pat_edge[t]
                    if assign[e] < 0:
                        score[e] += w
        best = -1
        best_score = np.int64(-1)
        for e in range(n_edges):
            if assign[e] < 0 and score[e] > best_score:
                best = e
                best_score = score[e]
        # split the score by the bit the alive patterns want on `best`
        side = [np.int64(0), np.int64(0)]
        for k in range(inc_ptr[best], inc_ptr[best + 1]):
            p = inc_pat[k]
            if mismatch[p] == 0:
                side[inc_bit[k]] += weight(p)
        v = 1 if side[1] < side[0] else 0
        nodes += 1
        if nodes > node_budget:
            return kernels.OUT_OF_BUDGET, assign, nodes
        dec_edge[n_dec] = best
        dec_val[n_dec] = v
        dec_flipped[n_dec] = 1 if converse and trail_len == 0 else 0
        dec_trail[n_dec] = trail_len
        n_dec += 1
        queue[0] = (np.int64(best) << 1) | v
        q_len = 1


def _reference_scan(n_edges, literals):
    """Loop over all 2^n_edges orientations; (free count, first free mask)."""
    pat_mask = [sum(1 << e for e, _ in lits) for lits in literals]
    pat_req = [sum(v << e for e, v in lits) for lits in literals]
    count, first_free = 0, -1
    for mask in range(1 << n_edges):
        if all(mask & pm != pr for pm, pr in zip(pat_mask, pat_req)):
            count += 1
            if first_free < 0:
                first_free = mask
    return count, first_free


# ---------------------------------------------------------------------------

def _instance(g, h):
    """(edge count, literals) as arrow hands them to the kernel: the
    literals index g.edges(), covered by some pattern or not."""
    return g.e, enumerate_copies(g, h)


def _compact(literals):
    """The covered edges in index order and the literals renumbered onto
    them: the scalar reference decides every edge it is given."""
    covered = sorted({e for lits in literals for e, _ in lits})
    index = {e: i for i, e in enumerate(covered)}
    return covered, [tuple((index[e], v) for e, v in lits) for lits in literals]


def _assignment_is_free(assign, literals):
    return not any(all(assign[e] == v for e, v in lits) for lits in literals)


def _closed_under_reversal(literals):
    """Does reversing every edge map the pattern set onto itself?"""
    pats = {frozenset(lits) for lits in literals}
    return all(frozenset((e, 1 - v) for e, v in lits) in pats for lits in literals)


def _agree(n_edges, literals, node_budget=10**6, converse=None):
    """The kernel on the host-indexed literals and on their compacted form
    against the reference on the compacted form: same status and nodes, the
    reference's assignment on the covered edges and 0 on the others.
    converse defaults to whether the literal set is closed under reversal,
    the flag arrow passes."""
    if converse is None:
        converse = _closed_under_reversal(literals)
    covered, compact = _compact(literals)
    ref_status, ref_assign, ref_nodes = _reference_dpll(
        len(covered), *_reference_arrays(len(covered), compact), node_budget,
        converse)
    expected = [0] * n_edges
    for e, v in zip(covered, ref_assign.tolist()):
        expected[e] = v
    for n, lits, want in ((n_edges, literals, expected),
                          (len(covered), compact, ref_assign.tolist())):
        status, assign, nodes = kernels.dpll_orientation_search(
            n, lits, node_budget, converse=converse)
        assert (status, nodes) == (int(ref_status), int(ref_nodes))
        if status == kernels.SAT:
            assert assign == want
            assert _assignment_is_free(assign, lits)
    return status


def test_kernel_matches_reference():
    """Status, node count and SAT assignment equal the scalar reference's,
    on seeded small hosts (single-arc and two-arc patterns included, so
    width-1 units and isolated pattern vertices are covered), on TT3
    sweep hosts at n = 40, and on width-6 TT4 hosts that backtrack, so
    cached decision scores are restored from their snapshots
    (G(30, 1/2, 3) backtracks past several decisions)."""
    rng = random.Random(99)
    patterns = [transitive_tournament(3), directed_path(3), directed_path(4),
                in_out_star(1, 2), OrientedGraph.from_arcs(3, [(0, 1)]),
                OrientedGraph.from_arcs(4, [(0, 1), (2, 3)])]
    statuses = set()
    flags = set()

    def agree(n_edges, literals):
        """Both flag values on a set closed under reversal, False otherwise."""
        closed = _closed_under_reversal(literals)
        flags.add(closed)
        for converse in {closed, False}:
            statuses.add(_agree(n_edges, literals, converse=converse))

    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 9), 14)
        for h in patterns:
            n_edges, literals = _instance(g, h)
            if literals:
                agree(n_edges, literals)
    for seed, p in enumerate((0.12, 0.15, 0.18, 0.2, 0.22, 0.25)):
        agree(*_instance(sample_gnp(40, p, seed), transitive_tournament(3)))
    tt4 = transitive_tournament(4)
    hosts = [complete_graph(7), sample_gnp(22, 0.55, 3), sample_gnp(30, 0.5, 3)]
    hosts += [sample_gnp(n, p, s) for n, p in ((12, 0.7), (14, 0.6), (16, 0.5))
              for s in range(3)]
    for g in hosts:
        agree(*_instance(g, tt4))
    assert statuses == {kernels.SAT, kernels.UNSAT}
    assert flags == {False, True}


def test_scan_paths_agree():
    rng = random.Random(31)
    tt3 = transitive_tournament(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 12)
        literals = enumerate_copies(g, tt3)
        assert kernels.exhaustive_scan(g.e, literals) == _reference_scan(g.e, literals)


def test_dpll_budget_status():
    n_edges, literals = _instance(complete_graph(4), transitive_tournament(3))
    status, _, nodes = kernels.dpll_orientation_search(n_edges, literals, 0)
    assert status == kernels.OUT_OF_BUDGET
    assert nodes == 1
    # the node budget cuts the search at the same node as the reference
    # (the whole search takes 5 nodes)
    for budget in (1, 2, 4):
        assert _agree(n_edges, literals, budget) == kernels.OUT_OF_BUDGET
    n_edges, literals = _instance(complete_graph(8), transitive_tournament(4))
    for budget in (50, 300):
        assert _agree(n_edges, literals, budget) == kernels.OUT_OF_BUDGET
    # boundary cuts: N - 1 nodes stop the search, N finish it with the
    # reference's status, nodes and assignment; a different decision order
    # moves N (K7 -> TT4 takes 14 nodes, G(22, .55, 3) -> TT4 67)
    for g, need in ((complete_graph(7), 14), (sample_gnp(22, 0.55, 3), 67)):
        n_edges, literals = _instance(g, transitive_tournament(4))
        assert _agree(n_edges, literals, need - 1) == kernels.OUT_OF_BUDGET
        assert _agree(n_edges, literals, need) == kernels.SAT


def test_dpll_skips_edges_in_no_pattern():
    """Edges in no pattern are never decided and come back 0: padding with
    them, after or between the covered edges, leaves status and nodes."""
    literals = [((0, 0), (1, 0), (2, 1)), ((0, 1), (1, 1), (2, 0))]
    spread = [tuple((2 * e + 1, v) for e, v in lits) for lits in literals]
    base = kernels.dpll_orientation_search(3, literals, 100)
    assert base[0] == kernels.SAT and base[2] == 2
    for n_edges, lits, covered in ((6, literals, (0, 1, 2)), (7, spread, (1, 3, 5))):
        status, assign, nodes = kernels.dpll_orientation_search(n_edges, lits, 100)
        assert (status, nodes) == (base[0], base[2])
        assert [assign[e] for e in covered] == base[1]
        assert [assign[e] for e in range(n_edges) if e not in covered] == \
            [0] * (n_edges - 3)


def test_converse_cut_halves_true_verdicts():
    """With converse=True the root decision takes one value: a true verdict
    costs 1 + N_sub nodes instead of 2 + 2 N_sub."""
    tt4 = transitive_tournament(4)
    for n in (8, 9):
        n_edges, literals = _instance(complete_graph(n), tt4)
        assert _closed_under_reversal(literals)
        full = kernels.dpll_orientation_search(n_edges, literals, 10**6)
        cut = kernels.dpll_orientation_search(n_edges, literals, 10**6, converse=True)
        assert full[0] == cut[0] == kernels.UNSAT
        assert 2 * cut[2] == full[2]
