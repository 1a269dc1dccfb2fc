#!/usr/bin/env python3
"""The orientramsey benchmark: end-to-end metrics, a correctness gate and
traced per-layer timings for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-tt3 --seed 1 --seconds 30 --trace 0

Workloads are `sweep-tt3`, `solve-hard` and `small-hosts`; README.md in
this directory says why each was chosen and what every metric means.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it wraps the package's entry points and reports per-layer metrics instead.
A JSON report (environment, exact work counters, workload-specific
figures, gate failures) comes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "orientramsey" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: {SRC / 'orientramsey'} is missing; "
                     f"run from the root of a source checkout")
sys.path.insert(0, str(SRC))

import orientramsey as orm  # noqa: E402

if Path(orm.__file__).resolve().parent != (SRC / "orientramsey").resolve():
    raise SystemExit(f"perfbench: imported {orm.__file__}, not the checkout's sources")

# `import orientramsey.arrow` yields the re-exported arrow *function*, so
# the modules whose attributes get wrapped are taken from sys.modules.
ARROW = sys.modules["orientramsey.arrow"]
EXPERIMENTS = sys.modules["orientramsey.experiments"]
KERNELS = sys.modules["orientramsey.kernels"]

REPO_SEED = 20250808
SWEEP_N = (40, 56)
SWEEP_NODE_BUDGET = 300_000
SWEEP_REFERENCE = HERE / "sweep_reference.json"
# The sweep gate compares each point's Wilson interval at this z (a false
# alarm below 1e-4 per point) with the reference point's 95 % interval.
SWEEP_GATE_Z = 4.0
WILSON_Z = 1.96

# Work per run is fixed from --seconds by rates measured when the benchmark
# was defined (2-vCPU AMD EPYC VM, JIT off), not by the clock: every exact
# counter then repeats for a given (seed, seconds), on any commit.
SWEEP_TRIALS_PER_POINT_PER_S = 4.5   # 20 grid points at ~90 trials/s
SMALL_HOSTS_PER_S = 130              # hosts, 4 calls each, 3 passes at ~1,600 calls/s
SMALL_HOSTS_PASSES = 3
SOLVE_HARD_PASS_S = 27               # K8, K9 and G30 -> TT4 once each
SETUP_LAUNCHES = 11

# solve-hard node counts at the commit that defined the benchmark.
SOLVE_HARD_REFERENCE_NODES = {"K8": 1222, "K9": 1574, "G30": 6492}
SOLVE_HARD_SEED_NOTE = ("solve-hard ignores --seed: it decides fixed instances, because "
                        "seeded hard hosts vary over 100x in cost and would measure the draw")


@dataclass
class Outcome:
    """What one timed region of a workload did."""

    ops: int = 0             # operations attempted: trials, arrow calls or instances
    failed: int = 0          # operations that ran out of search budget
    elapsed: float = 0.0     # wall seconds of the timed region
    rates: list = field(default_factory=list)    # operations per second of each pass
    errors: list = field(default_factory=list)   # correctness-gate failures
    figures: dict = field(default_factory=dict)  # workload-specific timings
    exact: dict = field(default_factory=dict)    # work counters that must repeat exactly


class Tracer:
    """Call counts and summed span seconds per wrapped entry point.

    The spans nest in a fixed way (sweep -> arrow -> enumerate_copies and
    dpll), so per-name sums are enough to derive every layer's self time.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def add(self, name, seconds):
        self.seconds[name] += seconds
        self.calls[name] += 1

    def wrapped(self, fn, name, count=None):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
            if count is not None:
                count(self.counts, value)
            return value
        return traced


def _count_arrow(counts, result):
    counts["arrow.nodes"] += result.nodes
    counts["arrow.patterns"] += result.n_patterns


def _count_patterns(counts, patterns):
    counts["enumerate.patterns"] += len(patterns)


def _count_dpll(counts, value):
    counts["dpll.nodes"] += int(value[2])


@contextmanager
def tracing(tracer):
    """Wrap the package's entry points at their module boundaries for the
    duration of the block; a None tracer leaves everything untouched."""
    if tracer is None:
        yield
        return
    targets = [
        (ARROW, "arrow", "arrow", _count_arrow),
        (EXPERIMENTS, "arrow", "arrow", _count_arrow),
        (ARROW, "enumerate_copies", "enumerate_copies", _count_patterns),
        (ARROW, "verify_certificate", "verify_certificate", None),
        (KERNELS, "dpll_orientation_search", "dpll", _count_dpll),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for module, attr, name, count in targets:
            setattr(module, attr, tracer.wrapped(getattr(module, attr), name, count))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def wilson(successes, trials, z=WILSON_Z):
    """Wilson score interval, computed here independently of the package."""
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# sweep-tt3

def sweep_plan(seed, trials, reference):
    grids = defaultdict(list)
    for pt in reference["points"]:
        grids[pt["n"]].append(pt["p"])
    return orm.ExperimentPlan(pattern=orm.transitive_tournament(3), pattern_name="tt3",
                              n_list=SWEEP_N, trials=trials, seed=seed,
                              p_grids={n: tuple(ps) for n, ps in grids.items()},
                              node_budget=SWEEP_NODE_BUDGET, jobs=1)


def check_sweep(sweep, reference):
    """Every point usable, the program's Wilson intervals right, the curve
    monotone within them (the acceptance-7 rule) and every point consistent
    with the reference curve.  Statistical, so it holds under any valid
    keying of the trials."""
    errors = []
    ref = {(pt["n"], pt["p"]): pt for pt in reference["points"]}
    if len(sweep.points) != len(ref):
        errors.append(f"sweep returned {len(sweep.points)} points, reference has {len(ref)}")
    for pt in sweep.points:
        where = f"sweep n={pt.n} p={pt.p:.5f}"
        if pt.flagged:
            errors.append(f"{where}: unusable, {pt.exhausted} of {pt.trials} trials exhausted")
            continue
        lo, hi = pt.interval()
        mine = wilson(pt.successes, pt.usable)
        # at p_hat = 1 the upper end rounds to 1 - 2**-53
        if not (lo - 1e-12 <= pt.p_hat <= hi + 1e-12
                and all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip((lo, hi), mine))):
            errors.append(f"{where}: recorded interval {(lo, hi)} is not the Wilson "
                          f"interval {mine} of {pt.successes}/{pt.usable}")
        r = ref.get((pt.n, pt.p))
        if r is None:
            errors.append(f"{where}: not on the reference grid")
            continue
        run_lo, run_hi = wilson(pt.successes, pt.usable, SWEEP_GATE_Z)
        ref_lo, ref_hi = wilson(r["successes"], r["usable"])
        if run_hi < ref_lo or run_lo > ref_hi:
            errors.append(f"{where}: {pt.successes}/{pt.usable} successes is inconsistent "
                          f"with the reference {r['successes']}/{r['usable']}")
    for n in SWEEP_N:
        curve = [pt for pt in sweep.points if pt.n == n and not pt.flagged]
        for a, b in itertools.combinations(curve, 2):
            if a.interval()[0] > b.interval()[1]:
                errors.append(f"sweep n={n}: success curve falls from p={a.p:.5f} "
                              f"to p={b.p:.5f} beyond the Wilson intervals")
    return errors


def run_sweep(seed, trials, tracer=None):
    """One `estimate_arrow_probability` call over the pinned TT3 grid."""
    reference = json.loads(SWEEP_REFERENCE.read_text())
    plan = sweep_plan(seed, trials, reference)
    with tracing(tracer):
        start = time.perf_counter()
        sweep = EXPERIMENTS.estimate_arrow_probability(plan)
        elapsed = time.perf_counter() - start
    ops = sum(pt.trials for pt in sweep.points)
    out = Outcome(ops=ops, failed=sum(pt.exhausted for pt in sweep.points),
                  elapsed=elapsed, rates=[ops / elapsed],
                  errors=check_sweep(sweep, reference))
    out.figures = {"trials_per_s": {"value": ops / elapsed, "unit": "1/s"}}
    out.exact = {"trials_per_point": trials,
                 "successes": [pt.successes for pt in sweep.points]}
    if tracer is not None:
        tracer.add("experiments", elapsed)
        tracer.counts["experiments.trials"] += ops
        # The sweep samples through a private helper, so sampling cost is
        # measured by timing the public sample_gnp on the same grid.
        start = time.perf_counter()
        for n in plan.n_list:
            for p in plan.grid_for(n):
                for trial in range(trials):
                    orm.sample_gnp(n, p, seed + trial)
        tracer.seconds["sample_gnp"] += time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# small-hosts

def small_hosts_cases(seed, count):
    """The acceptance-1 corpus generator (hosts on 4-9 vertices, at most 14
    edges), run for `count` hosts, crossed with its four patterns.  At the
    repository seed the first 200 hosts are the acceptance-1 corpus."""
    rng = random.Random(seed)
    patterns = (orm.transitive_tournament(3), orm.directed_path(3),
                orm.directed_path(4), orm.in_out_star(1, 2))
    graphs = []
    while len(graphs) < count:
        n = rng.randint(4, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        want = rng.randint(0, min(14, len(pairs)))
        graphs.append(orm.Graph.from_edges(n, pairs[:want]))
    return [(g, h) for g in graphs for h in patterns]


def run_small_hosts(seed, hosts, tracer=None):
    """A corpus of `hosts` hosts decided in a few passes, one `arrow` call at
    a time; the exhaustive oracle runs once, outside the timed region.  A
    200-host corpus varies by over 30 % in cost from seed to seed, so the
    corpus grows with the run instead of being repeated."""
    cases = small_hosts_cases(seed, hosts)
    out = Outcome()
    latencies = []
    first = None
    with tracing(tracer):
        start = time.perf_counter()
        for k in range(SMALL_HOSTS_PASSES):
            pass_start = time.perf_counter()
            results = []
            for g, h in cases:
                t0 = time.perf_counter()
                try:
                    results.append(ARROW.arrow(g, h))
                except orm.BudgetExceededError:
                    results.append(None)
                latencies.append(time.perf_counter() - t0)
            out.rates.append(len(cases) / (time.perf_counter() - pass_start))
            if first is None:
                first = results
            elif [r and (r.verdict, r.nodes, r.n_patterns) for r in results] != \
                    [r and (r.verdict, r.nodes, r.n_patterns) for r in first]:
                out.errors.append(f"small-hosts pass {k} differs from pass 0")
        out.elapsed = time.perf_counter() - start
    out.ops = SMALL_HOSTS_PASSES * len(cases)
    out.failed = SMALL_HOSTS_PASSES * sum(r is None for r in first)
    for i, ((g, h), r) in enumerate(zip(cases, first)):
        if r is None:
            out.errors.append(f"small-hosts case {i}: budget exhausted")
        elif r.verdict != ARROW.arrow_exhaustive(g, h).verdict:
            out.errors.append(f"small-hosts case {i}: verdict {r.verdict} "
                              f"disagrees with arrow_exhaustive")
        elif not r.verdict and (r.certificate is None
                                or not ARROW.verify_certificate(g, h, r.certificate)):
            out.errors.append(f"small-hosts case {i}: false verdict without a valid "
                              f"certificate")
    deciles = statistics.quantiles(latencies, n=10)
    done = [r for r in first if r is not None]
    out.figures = {
        "solves_per_s": {"value": statistics.median(out.rates), "unit": "1/s"},
        "call_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "call_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
    }
    out.exact = {"hosts": hosts, "passes": SMALL_HOSTS_PASSES, "calls_per_pass": len(cases),
                 "true_verdicts_per_pass": sum(r.verdict for r in done),
                 "nodes_per_pass": sum(r.nodes for r in done),
                 "patterns_per_pass": sum(r.n_patterns for r in done)}
    return out


# ---------------------------------------------------------------------------
# solve-hard

def solve_hard_instances():
    """(name, host, pattern, expected verdict, expected host edges)."""
    tt4 = orm.transitive_tournament(4)
    return [("K8", orm.complete_graph(8), tt4, True, 28),
            ("K9", orm.complete_graph(9), tt4, True, 36),
            ("G30", orm.sample_gnp(30, 0.5, 1), tt4, False, 218)]


def run_solve_hard(seed, passes, tracer=None):
    """Each fixed instance decided with `arrow`, false verdicts checked by
    `verify_certificate` inside the timed region.  The seed is unused."""
    instances = solve_hard_instances()
    out = Outcome()
    times = defaultdict(list)
    nodes, patterns = {}, {}
    for name, g, _, _, edges in instances:
        if g.e != edges:
            out.errors.append(f"solve-hard {name}: host has {g.e} edges, expected {edges}")
    with tracing(tracer):
        start = time.perf_counter()
        for _ in range(passes):
            pass_start = time.perf_counter()
            for name, g, h, expected, _ in instances:
                t0 = time.perf_counter()
                try:
                    r = ARROW.arrow(g, h)
                    ok = r.verdict == expected and (r.verdict or (
                        r.certificate is not None
                        and ARROW.verify_certificate(g, h, r.certificate)))
                except orm.BudgetExceededError:
                    r, ok = None, False
                    out.failed += 1
                times[name].append(time.perf_counter() - t0)
                if not ok:
                    out.errors.append(f"solve-hard {name}: expected verdict {expected}, got "
                                      f"{'no verdict' if r is None else r.verdict}, or its "
                                      f"certificate fails verification")
                elif r is not None:
                    nodes[name], patterns[name] = r.nodes, r.n_patterns
            out.rates.append(len(instances) / (time.perf_counter() - pass_start))
        out.elapsed = time.perf_counter() - start
    out.ops = passes * len(instances)

    def median_total(names):
        return statistics.median(map(sum, zip(*(times[n] for n in names)))) if names else 0.0

    out.figures = {
        "instance_s": {n: statistics.median(t) for n, t in times.items()},
        "true_verdict_s": {"value": median_total([i[0] for i in instances if i[3]]),
                           "unit": "s"},
        "false_verdict_s": {"value": median_total([i[0] for i in instances if not i[3]]),
                            "unit": "s"},
        "reference_nodes": SOLVE_HARD_REFERENCE_NODES,
        "seed": SOLVE_HARD_SEED_NOTE,
    }
    out.exact = {"passes": passes, "nodes": nodes, "patterns": patterns}
    return out


# ---------------------------------------------------------------------------
# measurement

# name -> (run(seed, size, tracer), size for a --seconds budget)
WORKLOADS = {
    "sweep-tt3": (run_sweep,
                  lambda seconds: max(2, round(seconds * SWEEP_TRIALS_PER_POINT_PER_S))),
    "small-hosts": (run_small_hosts,
                    lambda seconds: max(2, round(seconds * SMALL_HOSTS_PER_S))),
    "solve-hard": (run_solve_hard,
                   lambda seconds: max(1, round(seconds / SOLVE_HARD_PASS_S))),
}


def scratch_dir():
    path = ROOT / ".bench_build"
    path.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="perfbench-", dir=path))


def measure_setup():
    """Median wall time of a fresh `python -m orientramsey arrow K4 TT3`
    process: interpreter, imports, argparse, one solve and the manifest.
    One launch before the timed ones compiles the bytecode."""
    work = scratch_dir()
    errors = []
    times = []
    try:
        (work / "k4.txt").write_text(orm.dumps(orm.complete_graph(4)))
        (work / "tt3.txt").write_text(orm.dumps(orm.transitive_tournament(3)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        cmd = [sys.executable, "-m", "orientramsey", "arrow", "k4.txt", "tt3.txt",
               "--out-dir", "out"]
        for i in range(SETUP_LAUNCHES + 1):
            shutil.rmtree(work / "out", ignore_errors=True)
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=120)
            took = time.perf_counter() - start
            try:
                verdict = json.loads(proc.stdout)["verdict"]
            except (ValueError, KeyError, TypeError):
                verdict = None
            if proc.returncode != 0 or verdict is not True:
                errors.append(f"setup launch {i}: exit {proc.returncode}, verdict {verdict}, "
                              f"stderr {proc.stderr.decode(errors='replace')[-200:]!r}")
            if i:
                times.append(took)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return statistics.median(times), errors


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Wrapped entry points and the span that calls them.  A child with no
# calls while its parent has some means the wrapper missed the call path
# (say, after a refactor), so its metrics are withheld, never reported as 0.
TRACE_EDGES = (("arrow", "experiments"), ("enumerate_copies", "arrow"), ("dpll", "arrow"))


def layer_metrics(tracer, wall, untraced_wall):
    """Per-layer metrics of a traced region of `wall` seconds whose
    identical untraced run took `untraced_wall` seconds."""
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    unobserved = sorted(child for child, parent in TRACE_EDGES
                        if calls[parent] and not calls[child])
    dpll_s, enum_s, verify_s = s["dpll"], s["enumerate_copies"], s["verify_certificate"]
    arrow_self = s["arrow"] - enum_s - dpll_s
    experiments_self = s["experiments"] - s["arrow"] if calls["experiments"] else 0.0
    rows = [
        ("kernels.dpll_s", dpll_s, "s", {"dpll"}),
        ("kernels.dpll_calls", calls["dpll"], "count", {"dpll"}),
        ("kernels.dpll_us_per_node", ratio(1e6 * dpll_s, counts["dpll.nodes"]), "us",
         {"dpll"}),
        ("kernels.dpll_us_per_call", ratio(1e6 * dpll_s, calls["dpll"]), "us", {"dpll"}),
        ("arrow.nodes", counts["arrow.nodes"], "count", {"arrow"}),
        ("arrow.patterns", counts["arrow.patterns"], "count", {"arrow"}),
        ("arrow.enumerate_copies_s", enum_s, "s", {"enumerate_copies"}),
        ("arrow.enumerate_copies_us_per_pattern",
         ratio(1e6 * enum_s, counts["enumerate.patterns"]), "us", {"enumerate_copies"}),
        ("arrow.self_s", arrow_self, "s", {"arrow", "enumerate_copies", "dpll"}),
        ("arrow.self_us_per_call", ratio(1e6 * arrow_self, calls["arrow"]), "us",
         {"arrow", "enumerate_copies", "dpll"}),
        ("arrow.verify_certificate_s", verify_s, "s", set()),
        ("experiments.sample_gnp_s", s["sample_gnp"], "s", set()),
        ("experiments.self_s", experiments_self, "s", {"arrow"}),
        ("experiments.arrow_calls_per_trial",
         ratio(calls["arrow"], counts["experiments.trials"]), "ratio", {"arrow"}),
        ("experiments.share", experiments_self / wall, "ratio", {"arrow"}),
        ("arrow.share", (arrow_self + enum_s + verify_s) / wall, "ratio",
         {"arrow", "enumerate_copies", "dpll"}),
        ("kernels.share", dpll_s / wall, "ratio", {"dpll"}),
        ("trace_overhead", wall / untraced_wall, "ratio", set()),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, needs in rows
               if not needs.intersection(unobserved)}
    accounted = experiments_self + s["arrow"] + verify_s
    return metrics, unobserved, accounted / wall


def environment():
    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "numba": numba, "jit_enabled": KERNELS.jit_enabled(),
            "ORIENTRAMSEY_NO_JIT": os.environ.get(KERNELS.JIT_ENV_FLAG),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result line, report)."""
    run, size_for = WORKLOADS[workload]
    size = size_for(seconds)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    if not trace:
        setup_s, errors = measure_setup()
        out = run(seed, size)
        errors += out.errors
        attempted, failed = out.ops, out.failed
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "ops_per_s": {"value": statistics.median(out.rates), "unit": "1/s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
        report.update(figures=out.figures, exact=out.exact)
    else:
        # The same inputs run untraced, then traced: their ratio is the
        # tracing overhead.
        half = max(1, size // 2)
        base = run(seed, half)
        tracer = Tracer()
        out = run(seed, half, tracer)
        errors = base.errors + out.errors
        if base.exact != out.exact:
            errors.append(f"traced run did other work than the untraced one: "
                          f"{out.exact} against {base.exact}")
        attempted, failed = base.ops + out.ops, base.failed + out.failed
        metrics, unobserved, accounted = layer_metrics(tracer, out.elapsed, base.elapsed)
        report.update(figures=out.figures, exact=out.exact, unobserved=unobserved,
                      accounted_share=accounted)
    report["failed_frac"] = {"value": ratio(failed, attempted), "unit": "ratio"}
    report["errors"] = errors
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description="orientramsey benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REPO_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in report["errors"]:
        print(f"perfbench: gate failed: {error}", file=sys.stderr)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
