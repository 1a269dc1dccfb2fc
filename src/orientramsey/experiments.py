"""Seeded random-graph experiments: arrow probabilities on G(n,p),
threshold crossings with a fitted exponent, and disjoint-K4 packings.

Determinism contract: every trial draws from a stream derived from
(seed, n, grid-index, trial-index), so results are byte-identical no
matter how trials are scheduled, including across worker processes.
Trials whose solver call runs out of budget are counted separately and
excluded from the estimates rather than imputed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrow import arrow
from .constructions import tree_params
from .density import m2
from .errors import BudgetExceededError, TooLargeError
from .graphs import Graph, OrientedGraph, iter_bits
from .witness import k_core

DEFAULT_TRIAL_NODE_BUDGET = 300_000
WILSON_Z = 1.96
P_GRID_SPREAD = 0.15      # half-width of the default grid, in the exponent of n


def _gnp_from_seedseq(n, p, seedseq):
    rng = np.random.Generator(np.random.PCG64(seedseq))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    hits = rng.random(len(pairs)) < p
    return Graph.from_edges(n, [pair for pair, hit in zip(pairs, hits) if hit])


def sample_gnp(n, p, seed):
    """G(n,p): each edge kept independently with probability p,
    deterministic under (n, p, seed)."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    p_bits = int(np.float64(p).view(np.uint64))
    return _gnp_from_seedseq(n, p, np.random.SeedSequence([seed, n, p_bits]))


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("needs at least one trial")
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def fit_log_slope(xs, ys):
    """Least-squares slope and its standard error for y against x."""
    k = len(xs)
    if k < 2:
        raise ValueError("needs at least two points")
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    if k == 2:
        return slope, 0.0
    sse = sum((y - (ybar + slope * (x - xbar))) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(sse / (k - 2) / sxx)


def default_p_grid(h, n, points=9):
    """Geometric grid around n^(-1/m2(pattern)), widened by P_GRID_SPREAD
    in the exponent, with an extra anchor at n^(-1/m(K4)) = n^(-2/3) when
    the underlying pattern contains a triangle (both candidate exponents
    end up bracketed)."""
    under = h.underlying()
    base_exp = float(1 / m2(under).value)
    exps = np.linspace(-base_exp - P_GRID_SPREAD, -base_exp + P_GRID_SPREAD, points)
    grid = {float(n ** e) for e in exps}
    if under.has_triangle():
        grid.add(float(n ** (-2.0 / 3.0)))
    return tuple(sorted(x for x in grid if 0 < x < 1))


@dataclass(frozen=True)
class ExperimentPlan:
    pattern: OrientedGraph
    pattern_name: str
    n_list: tuple
    trials: int
    seed: int
    p_grids: dict = None          # n -> tuple of p values; None = default grid
    node_budget: int = DEFAULT_TRIAL_NODE_BUDGET
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("plans need at least one trial per point")
        if self.p_grids:
            for grid in self.p_grids.values():
                if any(not 0 < p < 1 for p in grid):
                    raise ValueError("grid probabilities must lie in (0, 1)")

    def grid_for(self, n):
        if self.p_grids and n in self.p_grids:
            return tuple(sorted(self.p_grids[n]))
        return default_p_grid(self.pattern, n)


class _Estimate:
    """Row statistics; trials that ran out of budget are left out."""

    @property
    def usable(self):
        return self.trials - self.exhausted

    @property
    def p_hat(self):
        return self.successes / self.usable if self.usable else None

    def interval(self):
        if not self.usable:
            return None, None
        return wilson_interval(self.successes, self.usable)

    def csv_stats(self):
        """The p_hat,ci_lo,ci_hi CSV fields, empty without usable trials."""
        if not self.usable:
            return ",,"
        lo, hi = self.interval()
        return f"{self.p_hat!r},{lo!r},{hi!r}"


@dataclass(frozen=True)
class PointEstimate(_Estimate):
    n: int
    p: float
    p_index: int
    trials: int
    successes: int
    exhausted: int

    @property
    def flagged(self):
        return self.usable == 0 or self.exhausted * 5 > self.trials


def _run_point(pattern, seed, trials, node_budget, core_k, point):
    """(successes, exhausted, core_empty) over the trials at the grid point
    (n, index, p).  Empty core_k-cores are counted only when core_k is
    given, on the same hosts, so no host is drawn twice."""
    n, index, p = point
    successes = exhausted = core_empty = 0
    for trial in range(trials):
        g = _gnp_from_seedseq(n, p, np.random.SeedSequence([seed, n, index, trial]))
        if core_k is not None and not k_core(g, core_k).core:
            core_empty += 1
        try:
            if arrow(g, pattern, node_budget=node_budget).verdict:
                successes += 1
        except BudgetExceededError:
            exhausted += 1
    return successes, exhausted, core_empty


def _run_points(points, pattern, seed, trials, node_budget, core_k=None, jobs=1):
    """_run_point over every point, in a pool of `jobs` processes when
    jobs > 1; the seeded streams make the result the same either way."""
    run = partial(_run_point, pattern, seed, trials, node_budget, core_k)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, points))
    return [run(point) for point in points]


@dataclass(frozen=True)
class ThresholdSweep:
    pattern_name: str
    seed: int
    points: tuple
    p_half: dict          # n -> crossing estimate or None
    gamma: float          # fitted exponent of p_half ~ n^-gamma, or None
    gamma_stderr: float

    def csv_text(self):
        lines = ["pattern,n,p,trials,successes,p_hat,ci_lo,ci_hi,exhausted"]
        for pt in self.points:
            lines.append(f"{self.pattern_name},{pt.n},{pt.p!r},{pt.trials},"
                         f"{pt.successes},{pt.csv_stats()},{pt.exhausted}")
        return "\n".join(lines) + "\n"

    def summary(self):
        return {
            "pattern": self.pattern_name,
            "seed": self.seed,
            "p_half": {str(n): v for n, v in self.p_half.items()},
            "gamma": self.gamma,
            "gamma_stderr": self.gamma_stderr,
        }


def _logit(x):
    return math.log(x / (1 - x))


def crossing_estimate(points):
    """p at which the success curve crosses 1/2, by logit-linear
    interpolation in log p between the bracketing usable grid points;
    None when no adjacent pair brackets the crossing."""
    usable = [pt for pt in points if not pt.flagged]
    for a, b in zip(usable, usable[1:]):
        if a.p_hat <= 0.5 <= b.p_hat:
            eps_a = 1 / (2 * a.usable)
            eps_b = 1 / (2 * b.usable)
            ya = _logit(min(1 - eps_a, max(eps_a, a.p_hat)))
            yb = _logit(min(1 - eps_b, max(eps_b, b.p_hat)))
            xa, xb = math.log(a.p), math.log(b.p)
            if yb == ya:
                return math.exp((xa + xb) / 2)
            return math.exp(xa - ya * (xb - xa) / (yb - ya))
    return None


def estimate_arrow_probability(plan):
    """Monte Carlo sweep of P(G(n,p) -> pattern) over the plan's grid."""
    grid = [(n, i, p) for n in plan.n_list for i, p in enumerate(plan.grid_for(n))]
    outcomes = _run_points(grid, plan.pattern, plan.seed, plan.trials,
                           plan.node_budget, jobs=plan.jobs)
    points = [PointEstimate(n, p, i, plan.trials, successes, exhausted)
              for (n, i, p), (successes, exhausted, _) in zip(grid, outcomes)]
    p_half = {n: crossing_estimate([pt for pt in points if pt.n == n])
              for n in plan.n_list}
    fit_ns = [n for n in plan.n_list if p_half[n] is not None]
    gamma = gamma_se = None
    if len(fit_ns) >= 2:
        slope, se = fit_log_slope([math.log(n) for n in fit_ns],
                                  [math.log(p_half[n]) for n in fit_ns])
        gamma, gamma_se = -slope, se
    return ThresholdSweep(plan.pattern_name, plan.seed, tuple(points),
                          p_half, gamma, gamma_se)


# ---------------------------------------------------------------------------
# oriented-tree probe at p = b/n

@dataclass(frozen=True)
class ProbeRow(_Estimate):
    b: float
    p: float
    trials: int
    successes: int
    exhausted: int
    core_empty: int


@dataclass(frozen=True)
class ProbeTable:
    pattern_name: str
    n: int
    core_k: int
    seed: int
    rows: tuple

    def csv_text(self):
        lines = ["pattern,n,b,p,trials,successes,p_hat,ci_lo,ci_hi,"
                 "exhausted,core_k,core_empty"]
        for r in self.rows:
            lines.append(f"{self.pattern_name},{self.n},{r.b!r},{r.p!r},{r.trials},"
                         f"{r.successes},{r.csv_stats()},{r.exhausted},{self.core_k},"
                         f"{r.core_empty}")
        return "\n".join(lines) + "\n"


def tree_threshold_probe(t, b_grid, n, trials, seed,
                         node_budget=DEFAULT_TRIAL_NODE_BUDGET,
                         pattern_name="tree"):
    """Empirical P(G(n, b/n) -> t) per b, along with how often the
    a(t)-core is empty (the mechanism that kills the arrow relation in
    the sparse regime).  Row i is the sweep's grid point (n, i, b/n)."""
    if n < 1 or trials < 1:
        raise ValueError(f"probes need n >= 1 and trials >= 1, got n = {n}, "
                         f"trials = {trials}")
    params = tree_params(t)
    bs = sorted(b_grid)
    for b in bs:
        if not 0 <= b / n <= 1:
            raise ValueError(f"b = {b} gives p outside [0, 1]")
    grid = [(n, i, b / n) for i, b in enumerate(bs)]
    outcomes = _run_points(grid, t, seed, trials, node_budget, core_k=params.a)
    rows = tuple(ProbeRow(float(b), float(p), trials, *outcome)
                 for b, (_, _, p), outcome in zip(bs, grid, outcomes))
    return ProbeTable(pattern_name, n, params.a, seed, rows)


# ---------------------------------------------------------------------------
# vertex-disjoint K4 packing

@dataclass(frozen=True)
class PackingResult:
    count: int
    copies: tuple
    exact: bool


def _k4_copies(g):
    quads = []
    for u, v in g.edges():
        common = g.rows[u] & g.rows[v]
        for w in iter_bits(common):
            if w <= v:
                continue
            for x in iter_bits(common & g.rows[w]):
                if x > w:
                    quads.append((u, v, w, x))
    return quads


def disjoint_k4_packing(g, exact=False, node_budget=2_000_000):
    """Vertex-disjoint K4 copies: greedy maximal packing by default (a
    lower bound for the maximum), exact branch-and-bound for v <= 20.

    The exact search branches on which copy to add next, in the order of
    _k4_copies, so it is at most v/4 + 1 levels deep; node_budget bounds
    its nodes (one per packing it extends)."""
    quads = _k4_copies(g)
    masks = [sum(1 << v for v in quad) for quad in quads]
    chosen = []
    used = 0
    for quad, mask in zip(quads, masks):
        if not (mask & used):
            chosen.append(quad)
            used |= mask
    if not exact:
        return PackingResult(len(chosen), tuple(chosen), False)
    if g.n > 20:
        raise TooLargeError("exact packing capped at 20 vertices")

    best = [len(chosen), tuple(chosen)]
    nodes = [0]

    def search(start, used, picked):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetExceededError("packing search exceeded its node budget")
        if len(picked) > best[0]:
            best[0] = len(picked)
            best[1] = tuple(picked)
        free = g.n - used.bit_count()
        for j in range(start, len(quads)):
            if len(picked) + min(free // 4, len(quads) - j) <= best[0]:
                break
            if not (masks[j] & used):
                picked.append(quads[j])
                search(j + 1, used | masks[j], picked)
                picked.pop()

    try:
        search(0, 0, [])
    finally:
        del search      # search's closure cell refers to search: break the cycle
    return PackingResult(best[0], best[1], True)
