#!/usr/bin/env python3
"""Regenerate perfbench/sweep_reference.json, the success curve that the
sweep-tt3 correctness gate compares against.

It records P(G(n,p) -> TT3) on the default p-grid for the sweep's host
sizes at 440 trials per point with the repository seed: the same draws as
acceptance criterion 7 at those sizes.  The grid stored here is also the
grid the workload sweeps, so a later change to `default_p_grid` does not
change the workload.  Run from the root of a checkout:

    python3 perfbench/make_reference.py [--jobs 2]
"""

import argparse
import json

import run as bench

TRIALS = 440


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    orm = bench.orm
    plan = orm.ExperimentPlan(pattern=orm.transitive_tournament(3), pattern_name="tt3",
                              n_list=bench.SWEEP_N, trials=TRIALS, seed=bench.REPO_SEED,
                              node_budget=bench.SWEEP_NODE_BUDGET, jobs=args.jobs)
    sweep = orm.estimate_arrow_probability(plan)
    if any(pt.exhausted for pt in sweep.points):
        raise SystemExit("a reference trial ran out of budget; no reference written")
    points = [{"n": pt.n, "p": pt.p, "successes": pt.successes, "usable": pt.usable}
              for pt in sweep.points]
    bench.SWEEP_REFERENCE.write_text(json.dumps(
        {"pattern": "tt3", "seed": bench.REPO_SEED, "trials": TRIALS,
         "node_budget": bench.SWEEP_NODE_BUDGET, "points": points}, indent=1) + "\n")
    print(f"wrote {bench.SWEEP_REFERENCE}")


if __name__ == "__main__":
    main()
