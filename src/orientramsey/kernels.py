"""Search kernels: DPLL orientation search and exhaustive orientation scan.

Both kernels take the same encoding of the "forbidden patterns": pattern p
is a sequence of (edge, bit) literals, and an orientation realizes it iff
every listed edge takes the listed direction bit (0 = low->high,
1 = high->low).  An orientation is pattern-free iff it avoids every
pattern, so deciding the arrow relation is a SAT question over boolean
edge-direction variables with one blocking clause per pattern.

`dpll_orientation_search` answers it by backtracking search over Python
big-int bitsets that hold one bit per pattern.  It caches each edge's
decision score and rescores an edge only when one of its patterns moved
up a level or died since the last decision.  It tries first the value
whose patterns weigh less, so the heavier side dies.  Told that the
pattern set is closed under reversing every edge, it tries one value of
the root decision only.  It stops with SAT once every pattern has a
mismatched edge.  `exhaustive_scan` checks all 2^n_edges orientations
with numpy and serves as the oracle path.
"""

from __future__ import annotations

import time

import numpy as np

from .graphs import iter_bits

# perfbench's environment block reads these two names; no kernel is compiled.
JIT_ENV_FLAG = "ORIENTRAMSEY_NO_JIT"


def jit_enabled():
    """Always False: the kernels run as plain Python and numpy."""
    return False


# status codes returned by the DPLL kernel
SAT = 1          # a pattern-free orientation exists (assignment returned)
UNSAT = 0        # every orientation realizes some pattern
OUT_OF_BUDGET = -1
OUT_OF_TIME = -2

# The deadline is read once every DEADLINE_STRIDE nodes.
DEADLINE_STRIDE = 1024


def _bitsets(n_edges, patterns):
    """match[e][v]: the set of patterns with literal (e, v), as an int;
    [0, 0] for an edge in no pattern, built without a row."""
    size = (len(patterns) + 7) >> 3
    rows = [None] * n_edges
    for p, lits in enumerate(patterns):
        byte, bit = p >> 3, 1 << (p & 7)
        for e, v in lits:
            if rows[e] is None:
                rows[e] = (bytearray(size), bytearray(size))
            rows[e][v][byte] |= bit
    return [[int.from_bytes(r, "little") for r in pair] if pair else [0, 0]
            for pair in rows]


def dpll_orientation_search(n_edges, patterns, node_budget, deadline=None,
                            converse=False):
    """Search for an edge orientation avoiding every forbidden pattern.

    Every pattern has the same number k >= 1 of literals and every edge
    index lies in range(n_edges).  The state is `alive` (patterns with no
    mismatched edge) and level sets lev[0..k], lev[j] holding the patterns
    with j matched edges.  Unit propagation: an alive pattern with k - 1
    matched edges forces its last edge to the opposite bit; an alive
    pattern with k matched edges is a conflict.  Decisions pick the
    unassigned edge with the highest near-completion score (lowest edge on
    ties) and backtrack chronologically by restoring the immutable state
    saved with each decision.  Everything is integer arithmetic in fixed
    order, so results are deterministic.

    The decided edge's score splits as s0 + s1, s_v summing over the alive
    patterns with literal (edge, v).  Value v advances those patterns and
    kills the others, so the value with the smaller s_v goes first (0 on
    a tie) and the near-complete patterns die.

    converse=True promises that the pattern set is closed under reversing
    every edge.  The reverse of a pattern-free orientation is then
    pattern-free too, so both values of the root decision (nothing
    assigned yet) lead to the same verdict and the second one is never
    tried.

    Once no pattern is alive, every completion is pattern-free and the
    search returns SAT with the undecided edges at 0.

    Edge e's score, sum_j weight[j] * |either[e] & lev[j] & alive|, moves
    only when a pattern holding e moves up a level or dies, and only an
    assignment to one of that pattern's edges does that.  So each
    assignment adds the alive patterns of its edge to `changed`, a decision
    rescores just the unassigned edges that lie in a changed pattern and
    reuses the cached score of the others, and each decision saves the
    score list with its state; a backtrack restores that exact list.

    An edge that is in no pattern is never decided and comes back 0, so
    padding n_edges with such edges changes nothing else.

    `deadline` is a time.monotonic() value, checked every DEADLINE_STRIDE
    nodes.  Returns (status, assignment, nodes): assignment is a list with
    one bit per edge when status == SAT and None otherwise.
    """
    k = len(patterns[0]) if patterns else 0
    match = _bitsets(n_edges, patterns)
    either = [m0 | m1 for m0, m1 in match]
    weight = [1 << min(max(2 * (12 - (k - j)), 0), 40) for j in range(k + 1)]
    all_edges = sum(1 << e for e in range(n_edges) if either[e])
    alive = (1 << len(patterns)) - 1
    lev = [alive] + [0] * k
    assigned = ones = 0
    scores = [0] * n_edges  # exact for every unassigned edge at each decision
    changed = alive         # patterns moved or killed since the last decision
    stack = []          # decisions with a value untried: (edge, value, state before)
    nodes = 0
    # width-1 patterns are units from the start
    queue = [(lits[0][0], 1 - lits[0][1]) for lits in patterns] if k == 1 else []

    while True:
        # unit propagation to fixpoint; confluent, so the queue order is free
        conflict = False
        while queue:
            e, v = queue.pop()
            if assigned >> e & 1:
                if (ones >> e & 1) != v:
                    conflict = True
                    break
                continue
            changed |= either[e] & alive   # each moves up a level or dies
            assigned |= 1 << e
            ones |= v << e
            hit = match[e][v] & alive
            alive &= ~match[e][1 - v]
            for j in range(k - 1, -1, -1):    # top-down: each pattern moves once
                moved = lev[j] & hit
                if moved:
                    lev[j] ^= moved
                    lev[j + 1] |= moved
            if lev[k]:
                conflict = True
                break
            for p in iter_bits(lev[k - 1] & hit):
                for e2, v2 in patterns[p]:
                    if not assigned >> e2 & 1:
                        queue.append((e2, 1 - v2))
                        break

        if conflict:
            if not stack:
                return UNSAT, None, nodes
            e, v, (alive, saved, assigned, ones, scores) = stack.pop()
            lev = list(saved)
            changed = 0
            queue = [(e, v)]
        elif not alive:     # a conflict-free full assignment leaves none alive
            return SAT, [ones >> e & 1 for e in range(n_edges)], nodes
        else:
            # decision: most-constrained unassigned edge (near-complete
            # alive patterns weigh exponentially more); only an edge in a
            # changed pattern is rescored
            live = [(weight[j], s) for j in range(k) if (s := lev[j] & alive)]
            best, best_score = -1, -1
            for e in iter_bits(all_edges & ~assigned):
                mine = either[e]
                if mine & changed:
                    mine &= alive
                    score = 0
                    if mine:
                        for w, s in live:
                            score += w * (mine & s).bit_count()
                    scores[e] = score
                else:
                    score = scores[e]
                if score > best_score:
                    best, best_score = e, score
            # the lighter value first: s1 = best_score - s0
            s0 = 0
            for w, s in live:
                s0 += w * (match[best][0] & s).bit_count()
            v = int(best_score < 2 * s0)
            changed = 0
            if assigned or not converse:
                stack.append((best, 1 - v, (alive, tuple(lev), assigned, ones, scores[:])))
            queue = [(best, v)]
        nodes += 1
        if nodes > node_budget:
            return OUT_OF_BUDGET, None, nodes
        if (deadline is not None and nodes % DEADLINE_STRIDE == 0
                and time.monotonic() > deadline):
            return OUT_OF_TIME, None, nodes


def exhaustive_scan(n_edges, patterns):
    """Scan all 2^n_edges orientations; count the pattern-free ones.

    Orientation `mask` gives edge e the bit mask >> e & 1.  Returns
    (free_count, first_free_mask) with first_free_mask = -1 if none.
    """
    masks = np.arange(1 << n_edges, dtype=np.int64)
    contained = np.zeros(masks.size, dtype=bool)
    for lits in patterns:
        care = sum(1 << e for e, _ in lits)
        want = sum(v << e for e, v in lits)
        contained |= (masks & care) == want
    free = np.flatnonzero(~contained)
    if free.size == 0:
        return 0, -1
    return int(free.size), int(free[0])
