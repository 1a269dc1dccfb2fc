import hashlib
import math
import random

import numpy as np
import pytest

from orientramsey import (Graph, arrow, complete_graph, directed_path,
                          transitive_tournament)
from orientramsey.errors import BudgetExceededError
from orientramsey.experiments import (DEFAULT_TRIAL_NODE_BUDGET, ExperimentPlan,
                                      crossing_estimate, default_p_grid,
                                      disjoint_k4_packing,
                                      estimate_arrow_probability,
                                      fit_log_slope, sample_gnp,
                                      tree_threshold_probe, wilson_interval,
                                      PointEstimate, _run_trials)

from conftest import is_bipartite

TT3 = transitive_tournament(3)


def test_sample_gnp_extremes():
    assert sample_gnp(8, 0.0, 1).e == 0
    assert sample_gnp(8, 1.0, 1) == complete_graph(8)
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, 0)


def test_sample_gnp_deterministic():
    a = sample_gnp(20, 0.3, 42)
    b = sample_gnp(20, 0.3, 42)
    c = sample_gnp(20, 0.3, 43)
    assert a == b
    assert a != c


def test_sample_gnp_mean_edge_count():
    # binomial mean p*C(30,2) = 43.5, sd 6.26; the mean of 10^4 samples
    # sits within 3 standard errors
    total = 0
    for seed in range(10_000):
        total += sample_gnp(30, 0.1, seed).e
    mean = total / 10_000
    assert abs(mean - 43.5) <= 3 * 6.26 / math.sqrt(10_000)


def test_wilson_interval_properties():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    assert 0.0 <= lo and hi <= 1.0
    lo2, hi2 = wilson_interval(120, 400)
    assert (hi2 - lo2) < (hi - lo)
    assert (hi - lo) / (hi2 - lo2) == pytest.approx(2.0, rel=0.08)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_fit_log_slope_recovers_exact_line():
    xs = [math.log(n) for n in (10, 20, 40, 80)]
    ys = [2.5 - 0.75 * x for x in xs]
    slope, se = fit_log_slope(xs, ys)
    assert slope == pytest.approx(-0.75)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_default_p_grid_brackets_both_exponents():
    grid = default_p_grid(TT3, 40)
    assert len(grid) == 10                      # 9 geometric + triangle anchor
    assert min(grid) <= 40 ** (-2 / 3) <= max(grid)
    assert min(grid) <= 40 ** (-1 / 2) <= max(grid)
    assert list(grid) == sorted(grid)
    # tree patterns: no triangle, no anchor
    assert len(default_p_grid(directed_path(3), 40)) == 9


def test_crossing_estimate_brackets():
    def pt(p, succ, trials=100):
        return PointEstimate(10, p, 0, trials, succ, 0)
    points = [pt(0.1, 10), pt(0.2, 40), pt(0.4, 80), pt(0.8, 95)]
    est = crossing_estimate(points)
    assert 0.2 < est < 0.4
    assert crossing_estimate([pt(0.1, 80), pt(0.2, 90)]) is None
    # exhausted points are skipped
    flagged = PointEstimate(10, 0.3, 0, 100, 60, 30)
    assert crossing_estimate([pt(0.1, 10), flagged, pt(0.4, 80)]) is not None


def test_sweep_is_deterministic_and_parallel_invariant():
    plan = ExperimentPlan(pattern=TT3, pattern_name="tt3", n_list=(12, 16),
                          trials=20, seed=7)
    sweep1 = estimate_arrow_probability(plan)
    sweep2 = estimate_arrow_probability(plan)
    assert sweep1.csv_text() == sweep2.csv_text()
    par = ExperimentPlan(pattern=TT3, pattern_name="tt3", n_list=(12, 16),
                         trials=20, seed=7, jobs=2)
    par_sweep = estimate_arrow_probability(par)
    assert par_sweep.csv_text() == sweep1.csv_text()
    assert par_sweep.summary() == sweep1.summary()


def test_probe_is_parallel_invariant():
    """The probe's engine, empty-core counts included, gives the same
    counts on a pool of two processes as in one."""
    grids = {30: tuple(b / 30 for b in (0.5, 1.5, 3.0, 5.0))}
    args = (grids, directed_path(4), 13, 40, 5)
    assert _run_trials(*args, core_k=3, jobs=2) == _run_trials(*args, core_k=3)


def test_plan_rejects_bad_sizes():
    for n_list in ((0,), (-3,), (8, 8), (12, 12, 16)):
        with pytest.raises(ValueError):
            ExperimentPlan(pattern=TT3, pattern_name="tt3", n_list=n_list,
                           trials=2, seed=0)


def test_directed_p3_threshold_exponent_near_one():
    # the crossing for the two-arc path sits at p ~ const/n; the constant
    # still drifts at desk-scale hosts (n * p_half falls from ~1.40 at
    # n = 32 to ~1.24 at n = 64), so the window uses the largest sizes the
    # exact solver accepts.  Deterministic under the fixed seed.
    plan = ExperimentPlan(pattern=directed_path(3), pattern_name="p3",
                          n_list=(32, 40, 48, 56, 64), trials=300, seed=909,
                          jobs=2)
    sweep = estimate_arrow_probability(plan)
    assert sweep.gamma is not None
    assert 0.8 <= sweep.gamma <= 1.2


def test_sweep_probability_monotone_within_intervals():
    plan = ExperimentPlan(pattern=TT3, pattern_name="tt3", n_list=(30,),
                          trials=60, seed=3)
    sweep = estimate_arrow_probability(plan)
    pts = list(sweep.points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            lo_i, _ = pts[i].interval()
            _, hi_j = pts[j].interval()
            assert lo_i <= hi_j          # never significantly decreasing


def test_sweep_counts_budget_exhaustion_separately():
    plan = ExperimentPlan(pattern=TT3, pattern_name="tt3", n_list=(14,),
                          trials=10, seed=5, node_budget=0)
    sweep = estimate_arrow_probability(plan)
    for pt in sweep.points:
        assert pt.exhausted + pt.usable == pt.trials
        if pt.exhausted == pt.trials:
            assert pt.p_hat is None and pt.flagged
    assert all(n is None for n in sweep.p_half.values())
    assert sweep.gamma is None


def test_packing_examples():
    assert disjoint_k4_packing(complete_graph(4)).count == 1
    assert disjoint_k4_packing(complete_graph(7)).count == 1
    assert disjoint_k4_packing(complete_graph(7), exact=True).count == 1
    two = Graph.from_edges(9, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                              + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
                              + [(3, 4)])
    assert disjoint_k4_packing(two).count == 2
    assert disjoint_k4_packing(two, exact=True).count == 2
    assert disjoint_k4_packing(Graph.empty(6)).count == 0


def test_packing_invariants():
    rng = random.Random(44)
    for _ in range(12):
        g = sample_gnp(12, rng.uniform(0.3, 0.8), rng.randrange(10 ** 6))
        greedy = disjoint_k4_packing(g)
        exact = disjoint_k4_packing(g, exact=True)
        assert exact.exact and not greedy.exact
        assert greedy.count <= exact.count <= g.n // 4
        for res in (greedy, exact):
            used = set()
            for quad in res.copies:
                assert len(set(quad) & used) == 0
                used.update(quad)
                for u, v in ((a, b) for a in quad for b in quad if a < b):
                    assert g.has_edge(u, v)


def test_exact_packing_on_dense_20_vertex_hosts():
    """Hosts at the 20-vertex cap with 1,075-2,972 K4 copies: the exact
    search stays shallow and beats the greedy packing."""
    for p, seed in ((0.8, 0), (0.8, 2), (0.8, 4), (0.8, 5), (0.9, 0), (0.9, 1), (0.9, 5)):
        g = sample_gnp(20, p, seed)
        exact = disjoint_k4_packing(g, exact=True)
        assert (exact.count, disjoint_k4_packing(g).count) == (5, 4)
        assert sorted(v for quad in exact.copies for v in quad) == list(range(20))
        assert all(g.has_edge(a, b) for quad in exact.copies
                   for a in quad for b in quad if a < b)


def test_tree_probe_subcritical_regime():
    table = tree_threshold_probe(directed_path(4), [0.5], 50, 200, seed=11)
    row = table.rows[0]
    assert row.successes == 0 and row.exhausted == 0
    assert row.core_empty == 200
    assert table.core_k == 3


def test_tree_probe_monotone_in_b():
    table = tree_threshold_probe(directed_path(3), [0.5, 1.5, 3.0, 5.0],
                                 30, 60, seed=13)
    rows = list(table.rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            lo_i = wilson_interval(rows[i].successes, rows[i].usable)[0]
            hi_j = wilson_interval(rows[j].successes, rows[j].usable)[1]
            assert lo_i <= hi_j


def _coupled_hosts(n, grid, seed, trial):
    """One trial's hosts along the grid, rebuilt with numpy alone: the pair
    (u, v), u < v in lexicographic order, is kept at p when its uniform
    from the stream [seed, n, trial] is below p."""
    us, vs = np.triu_indices(n, 1)
    draws = np.random.default_rng(np.random.SeedSequence([seed, n, trial])).random(len(us))
    return [Graph.from_edges(n, zip(us[draws < p].tolist(), vs[draws < p].tolist()))
            for p in grid]


def test_tree_probe_p3_matches_bipartiteness():
    # every orientation of a non-bipartite graph has a directed P3 and a
    # bipartite graph admits one without: exact agreement per sample, at
    # the points the trial decided and at those it inferred
    n, trials, seed = 24, 80, 17
    bs = (0.5, 1, 1.5, 2, 2.5, 3, 4)
    table = tree_threshold_probe(directed_path(3), bs, n, trials, seed=seed)
    odd = [0] * len(bs)
    for trial in range(trials):
        for i, g in enumerate(_coupled_hosts(n, [b / n for b in bs], seed, trial)):
            odd[i] += not is_bipartite(g)
    assert [r.successes for r in table.rows] == odd
    assert odd == [1, 10, 43, 67, 78, 80, 80]
    assert all(r.exhausted == 0 for r in table.rows)


def _decide_every_point(pattern, n, grid, seed, trials, node_budget):
    """Per-point (successes, exhausted) from one solver call at every grid
    point of every trial, with a point counted as settled when a call at
    or below it was true or a call at or above it was false."""
    successes, exhausted = [0] * len(grid), [0] * len(grid)
    for trial in range(trials):
        verdicts = []
        for g in _coupled_hosts(n, grid, seed, trial):
            try:
                verdicts.append(arrow(g, pattern, node_budget=node_budget).verdict)
            except BudgetExceededError:
                verdicts.append(None)
        for i in range(len(grid)):
            if any(v is True for v in verdicts[:i + 1]):
                successes[i] += 1
            elif not any(v is False for v in verdicts[i:]):
                exhausted[i] += 1
    return list(zip(successes, exhausted))


def test_bisection_matches_deciding_every_point():
    """Bisecting each trial's nested hosts gives the counts of a solver call
    at every point; a starved budget exhausts some calls, and both sides
    settle the same points by monotonicity."""
    seed, trials = 7, 20
    for budget in (DEFAULT_TRIAL_NODE_BUDGET, 12):
        sweep = estimate_arrow_probability(ExperimentPlan(
            pattern=TT3, pattern_name="tt3", n_list=(12, 20), trials=trials,
            seed=seed, node_budget=budget))
        exhausted = 0
        for n in (12, 20):
            grid = default_p_grid(TT3, n)
            want = _decide_every_point(TT3, n, grid, seed, trials, budget)
            assert [(pt.successes, pt.exhausted) for pt in sweep.points if pt.n == n] == want
            exhausted += sum(e for _, e in want)
        assert (exhausted > 0) == (budget == 12)
        # bisection over 10 points: at most 4 calls per trial when none runs out
        if budget == DEFAULT_TRIAL_NODE_BUDGET:
            assert 2 * trials <= sweep.solver_calls <= 2 * trials * 4


def test_sweep_successes_non_decreasing_along_the_grid():
    """Each trial's hosts are nested in p, so with nothing exhausted the
    success counts never fall along an n's grid."""
    sweep = estimate_arrow_probability(ExperimentPlan(
        pattern=TT3, pattern_name="tt3", n_list=(12, 20, 30), trials=30, seed=3))
    for n in (12, 20, 30):
        pts = [pt for pt in sweep.points if pt.n == n]
        assert all(pt.exhausted == 0 for pt in pts)
        assert all(a.successes <= b.successes for a, b in zip(pts, pts[1:]))
    rows = tree_threshold_probe(directed_path(3), [0.5, 1, 1.5, 2, 3, 5], 30, 60,
                                seed=13).rows
    assert all(a.successes <= b.successes for a, b in zip(rows, rows[1:]))


def test_sweep_counts_do_not_depend_on_the_grid():
    """A sweep over every third grid point counts what the full grid
    counts at those points."""
    full_grids = {n: default_p_grid(TT3, n) for n in (16, 24)}
    full = estimate_arrow_probability(ExperimentPlan(
        pattern=TT3, pattern_name="tt3", n_list=(16, 24), trials=30, seed=11))
    sparse = estimate_arrow_probability(ExperimentPlan(
        pattern=TT3, pattern_name="tt3", n_list=(16, 24), trials=30, seed=11,
        p_grids={n: grid[::3] for n, grid in full_grids.items()}))
    want = [(pt.n, pt.p, pt.successes) for pt in full.points if pt.p_index % 3 == 0]
    assert [(pt.n, pt.p, pt.successes) for pt in sparse.points] == want
    assert sparse.solver_calls < full.solver_calls


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_trial_engine_outputs_pinned():
    """Probe and sweep CSVs are fixed by the seed, down to the last digit."""
    probe = tree_threshold_probe(directed_path(3), [0.5, 1.5, 3.0, 5.0], 30, 40, seed=13)
    assert _sha256(probe.csv_text()) == (
        "e16c082ab49381e21ca3c3c3de9104f779671967f1ec63a19906a7fdb4077e27")
    starved = tree_threshold_probe(directed_path(4), [0.5, 2.0, 4.0], 40, 30, seed=11,
                                   node_budget=5)
    assert [(r.successes, r.exhausted, r.core_empty) for r in starved.rows] == [
        (0, 1, 30), (0, 29, 30), (0, 29, 1)]
    assert _sha256(starved.csv_text()) == (
        "d17cb0fd4a7207b75fa00419a896471043c92650b2c4a364dc18aad161a4e18c")
    sweep = estimate_arrow_probability(ExperimentPlan(
        pattern=TT3, pattern_name="tt3", n_list=(12, 20), trials=20, seed=7))
    assert _sha256(sweep.csv_text()) == (
        "800da16c4e072c76d105b4e1b7bbc3d7488e5485a666292041c102267b6bf5f3")
    assert sweep.solver_calls == 145


def test_tree_probe_draws_the_sweep_hosts():
    """A probe row at b is the sweep point at p = b/n with the same seed."""
    p3, n, bs = directed_path(3), 24, (1, 2.5, 4)
    probe = tree_threshold_probe(p3, bs, n, 40, seed=17)
    sweep = estimate_arrow_probability(ExperimentPlan(
        pattern=p3, pattern_name="p3", n_list=(n,), trials=40, seed=17,
        p_grids={n: tuple(b / n for b in bs)}))
    got = [(r.successes, r.exhausted) for r in probe.rows]
    assert got == [(pt.successes, pt.exhausted) for pt in sweep.points]
    assert got == [(3, 0), (40, 0), (40, 0)]


def test_tree_probe_rejects_bad_b():
    with pytest.raises(ValueError):
        tree_threshold_probe(directed_path(3), [40.0], 20, 5, seed=0)
