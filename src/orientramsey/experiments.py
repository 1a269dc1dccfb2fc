"""Seeded random-graph experiments: arrow probabilities on G(n,p),
threshold crossings with a fitted exponent, and disjoint-K4 packings.

Monte Carlo trials are coupled across the p-grid (Newman and Ziff, PRL
85:4104, 2000): trial t at size n draws one uniform U_e per vertex pair
from the stream keyed by (seed, n, t), and its host at p keeps the pairs
with U_e < p, so one trial's hosts are nested in p.  Forcing the pattern
is monotone under adding edges, so each trial bisects the sorted grid for
its first forcing point and infers every other point's verdict.

Determinism contract: a trial's draws depend only on (seed, n, trial
index), and the per-point counts are sums over trials, so results are
byte-identical no matter how trials are scheduled, including across
worker processes.  A point is `exhausted` in a trial when its verdict is
still unknown after inference: no point at or below it was decided true
and no point at or above it was decided false, because the solver calls
that would have settled it ran out of budget.  Exhausted trials are
counted separately and excluded from the estimates rather than imputed.
Without exhaustion, the verdict of each (trial, p) depends only on its
host, not on the rest of the grid.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

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


def _pair_uniforms(n, key):
    """One uniform in [0, 1) per vertex pair u < v, in lexicographic pair
    order, from the stream seeded by `key`."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    return rng.random(n * (n - 1) // 2)


def _host(n, uniforms, p):
    """The graph on the vertex pairs whose uniform falls below p."""
    pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph.from_edges(n, itertools.compress(pairs, uniforms < p))


def sample_gnp(n, p, seed):
    """G(n,p): each edge kept independently with probability p,
    deterministic under (n, p, seed)."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    p_bits = int(np.float64(p).view(np.uint64))
    return _host(n, _pair_uniforms(n, [seed, n, p_bits]), p)


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
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"host sizes must be at least 1, got {self.n_list}")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError(f"host sizes must not repeat, got {self.n_list}")
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


def _run_trial(pattern, seed, node_budget, core_k, n, grid, trial):
    """One trial at every point of the ascending grid: a tuple
    (success, exhausted, core_empty, solver_calls) of 0/1 flags per point.

    The trial's host at p keeps the pairs whose uniform, drawn once from
    the stream (seed, n, trial), falls below p.  The hosts are nested, so
    the trial bisects the grid over open intervals of undecided indices,
    calling arrow at each midpoint: a true verdict leaves the lower half
    to search, a false one the upper half, and a budget-exhausted call
    both.  Point i then succeeds iff a decided point at or below it is
    true, and is exhausted iff, besides, no decided point at or above it
    is false.  Hosts are built only where a call or a core_k-core needs
    them; empty cores are counted on every point's host when core_k is
    given."""
    uniforms = _pair_uniforms(n, [seed, n, trial])
    host = cache(lambda i: _host(n, uniforms, grid[i]))
    verdicts = {}           # decided index -> True, False or None (exhausted)
    undecided = [(-1, len(grid))]
    while undecided:
        lo, hi = undecided.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        try:
            verdicts[mid] = arrow(host(mid), pattern, node_budget=node_budget).verdict
        except BudgetExceededError:
            verdicts[mid] = None
        if verdicts[mid] is not False:
            undecided.append((lo, mid))
        if verdicts[mid] is not True:
            undecided.append((mid, hi))
    first_true = min((i for i, v in verdicts.items() if v), default=len(grid))
    last_false = max((i for i, v in verdicts.items() if v is False), default=-1)
    return tuple((int(i >= first_true), int(last_false < i < first_true),
                  int(core_k is not None and not k_core(host(i), core_k).core),
                  int(i in verdicts))
                 for i in range(len(grid)))


def _column_sums(outcomes):
    """Per grid point, the element-wise sums of the points' count tuples
    over several outcomes (each a sequence of one tuple per point)."""
    return [tuple(map(sum, zip(*point))) for point in zip(*outcomes)]


def _run_block(pattern, seed, node_budget, core_k, n, grid, trials):
    """_run_trial's flags summed over a range of trials, per grid point."""
    return _column_sums(_run_trial(pattern, seed, node_budget, core_k, n, grid, trial)
                        for trial in trials)


def _run_trials(grids, pattern, seed, trials, node_budget, core_k=None, jobs=1):
    """For each n of `grids` (n -> ascending grid), the list of per-point
    (successes, exhausted, core_empty, solver_calls) over `trials` trials.
    With jobs > 1 a pool of `jobs` processes runs blocks of consecutive
    trials of one n; the counts are sums, so the result is the same
    either way."""
    step = -(-trials // (4 * jobs))
    blocks = [(n, grid, range(start, min(start + step, trials)))
              for n, grid in grids.items() for start in range(0, trials, step)]
    run = partial(_run_block, pattern, seed, node_budget, core_k)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            sums = list(pool.map(run, *zip(*blocks)))
    else:
        sums = [run(*block) for block in blocks]
    return {n: _column_sums(block_sums for (m, _, _), block_sums in zip(blocks, sums)
                            if m == n)
            for n in grids}


@dataclass(frozen=True)
class ThresholdSweep:
    pattern_name: str
    seed: int
    points: tuple
    p_half: dict          # n -> crossing estimate or None
    gamma: float          # fitted exponent of p_half ~ n^-gamma, or None
    gamma_stderr: float
    solver_calls: int     # arrow calls made, over all trials and points

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
            "solver_calls": self.solver_calls,
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
    grids = {n: plan.grid_for(n) for n in plan.n_list}
    totals = _run_trials(grids, plan.pattern, plan.seed, plan.trials,
                         plan.node_budget, jobs=plan.jobs)
    points = [PointEstimate(n, p, i, plan.trials, successes, exhausted)
              for n, grid in grids.items()
              for i, (p, (successes, exhausted, _, _)) in enumerate(zip(grid, totals[n]))]
    p_half = {n: crossing_estimate([pt for pt in points if pt.n == n])
              for n in plan.n_list}
    fit_ns = [n for n in plan.n_list if p_half[n] is not None]
    gamma = gamma_se = None
    if len(fit_ns) >= 2:
        slope, se = fit_log_slope([math.log(n) for n in fit_ns],
                                  [math.log(p_half[n]) for n in fit_ns])
        gamma, gamma_se = -slope, se
    solver_calls = sum(calls for rows in totals.values() for *_, calls in rows)
    return ThresholdSweep(plan.pattern_name, plan.seed, tuple(points),
                          p_half, gamma, gamma_se, solver_calls)


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
    the sparse regime).  The rows share each trial's coupled hosts, as a
    sweep's grid points do: the row at b counts what a sweep at the same
    seed counts at p = b/n."""
    if n < 1 or trials < 1:
        raise ValueError(f"probes need n >= 1 and trials >= 1, got n = {n}, "
                         f"trials = {trials}")
    params = tree_params(t)
    bs = sorted(b_grid)
    for b in bs:
        if not 0 <= b / n <= 1:
            raise ValueError(f"b = {b} gives p outside [0, 1]")
    grid = tuple(b / n for b in bs)
    totals = _run_trials({n: grid}, t, seed, trials, node_budget, core_k=params.a)
    rows = tuple(ProbeRow(float(b), float(p), trials, *outcome[:3])
                 for b, p, outcome in zip(bs, grid, totals[n]))
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
