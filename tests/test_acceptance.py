"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read the captured output).

Criterion 7 is the long pole: a fixed-seed Monte Carlo sweep of the
transitive-triangle arrow probability over five host sizes.  It takes
under a minute on a 2-vCPU machine; the stated ceiling is two hours.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

from orientramsey import (arrow, arrow_exhaustive, complete_graph, d2,
                          directed_path, dumps, in_out_star, m, m2,
                          nonisomorphic_graphs, nonisomorphic_oriented_graphs,
                          oriented_ramsey_number, transitive_tournament)
from orientramsey.cli import run_command
from orientramsey.constructions import rooted_product, rooted_tt3_variants
from orientramsey.containers import (analytic_degree, build_container_hypergraph,
                                     co_degree_profile, tau_power)
from orientramsey.experiments import (ExperimentPlan, estimate_arrow_probability)
from orientramsey.graphs import Graph
from orientramsey.witness import chromatic_number, k_core, star_free_extension

# Fixed once for the repository: every randomized acceptance artifact
# derives from this seed.
REPO_SEED = 20250808

CORPUS_PATTERNS = {
    "tt3": transitive_tournament(3),
    "p3": directed_path(3),
    "p4": directed_path(4),
    "star_1_2": in_out_star(1, 2),
}


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _corpus(count=200, max_edges=14):
    rng = random.Random(REPO_SEED)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(4, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        want = rng.randint(0, min(max_edges, len(pairs)))
        graphs.append(Graph.from_edges(n, pairs[:want]))
    return graphs


def test_acceptance_1_solver_matches_exhaustive_oracle():
    start = time.monotonic()
    disagreements = 0
    for g in _corpus():
        for h in CORPUS_PATTERNS.values():
            if arrow(g, h).verdict != arrow_exhaustive(g, h).verdict:
                disagreements += 1
    elapsed = time.monotonic() - start
    print(f"  corpus: 200 graphs x 4 patterns in {elapsed:.1f}s")
    _report(1, "solver equals exhaustive enumeration",
            disagreements == 0 and elapsed < 300)


def test_acceptance_2_exact_small_facts():
    tt3 = transitive_tournament(3)
    ok = (arrow(complete_graph(4), tt3).verdict
          and oriented_ramsey_number(tt3) == 4
          and m(complete_graph(4)).value == Fraction(3, 2)
          and m2(complete_graph(3)).value == Fraction(2)
          and d2(complete_graph(2)) == Fraction(1, 2))
    _report(2, "exact small facts", ok)


def test_acceptance_3_directed_path_arrow_equals_chromatic_bound():
    start = time.monotonic()
    exceptions = 0
    checked = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            chi = chromatic_number(g).value
            for t in range(1, 7):
                checked += 1
                if arrow(g, directed_path(t)).verdict != (t <= chi):
                    exceptions += 1
    elapsed = time.monotonic() - start
    print(f"  {checked} host/path pairs in {elapsed:.1f}s")
    _report(3, "directed-path arrows track the chromatic number",
            exceptions == 0 and elapsed < 600)


def _star_centre(oriented, a, b):
    indeg = oriented.in_degrees()
    outdeg = oriented.out_degrees()
    for v in range(oriented.n):
        if indeg[v] >= a and outdeg[v] >= b:
            return v
    return None


def test_acceptance_4_star_arrows_reduce_to_cores():
    exceptions = 0
    extensions = 0
    stars = [(a, b) for a in range(4) for b in range(4) if 1 <= a + b <= 3]
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            for a, b in stars:
                s = in_out_star(a, b)
                dec = k_core(g, a + b)
                full = arrow(g, s)
                core = arrow(dec.core_graph(g), s)
                if full.verdict != core.verdict:
                    exceptions += 1
                    continue
                if not core.verdict:
                    ext = star_free_extension(g, core.certificate, a, b)
                    extensions += 1
                    if ext.underlying() != g or _star_centre(ext, a, b) is not None:
                        exceptions += 1
    print(f"  {extensions} certified star-free extensions")
    _report(4, "star arrows reduce to cores", exceptions == 0)


def test_acceptance_5_container_degree_calculus():
    patterns = [directed_path(2), directed_path(3), transitive_tournament(3)]
    mismatches = 0
    for h in patterns:
        for n in range(max(3, h.n), 7):
            hg = build_container_hypergraph(n, h)
            for j in range(1, h.e + 1):
                for subset in itertools.combinations(hg.vertices, j):
                    if hg.degree(subset) != analytic_degree(subset, h, n):
                        mismatches += 1
    bound_failures = 0
    for h in [transitive_tournament(3), directed_path(3), directed_path(4)]:
        l, hh = h.e, h.n
        for d_factor in (1, 2, 4, 8):
            bound = Fraction(2 ** comb(l, 2) * hh ** (hh - 2), d_factor)
            for n in (10, 100, 1000):
                profile = co_degree_profile(h, n, tau_power(h, n, d_factor))
                if not profile.delta_at_most(bound):
                    bound_failures += 1
    print(f"  degree mismatches: {mismatches}, bound failures: {bound_failures}")
    _report(5, "container degree calculus", mismatches == 0 and bound_failures == 0)


def _is_forest(g):
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [(start, -1)]
        seen[start] = True
        while stack:
            v, parent = stack.pop()
            for w in range(g.n):
                if g.has_edge(v, w):
                    if not seen[w]:
                        seen[w] = True
                        stack.append((w, v))
                    elif w != parent:
                        return False
    return True


def test_acceptance_6_rooted_product_structure():
    smalls = [g for n in range(1, 5) for g in nonisomorphic_oriented_graphs(n)]
    count_failures = 0
    pairs = 0
    for f in smalls:
        for h0 in smalls:
            for root in range(h0.n):
                h = h0.with_root(root)
                prod = rooted_product(f, h)
                pairs += 1
                if prod.n != f.n * h.n or prod.e != f.e + f.n * h.e:
                    count_failures += 1
    density_failures = 0
    forests = [g for g in smalls if _is_forest(g.underlying())]
    for f in forests:
        for variant in rooted_tt3_variants():
            if m2(rooted_product(f, variant).underlying()).value != 2:
                density_failures += 1
    print(f"  {pairs} product pairs, {len(forests)} forests x 3 roots")
    _report(6, "rooted product structure",
            count_failures == 0 and density_failures == 0)


def test_acceptance_7_monte_carlo_threshold_exponent():
    start = time.monotonic()
    plan = ExperimentPlan(pattern=transitive_tournament(3), pattern_name="tt3",
                          n_list=(24, 32, 40, 48, 56), trials=440,
                          seed=REPO_SEED, node_budget=300_000, jobs=2)
    sweep = estimate_arrow_probability(plan)
    elapsed = time.monotonic() - start

    usable_ok = all(pt.usable >= 400 for pt in sweep.points)
    monotone_ok = True
    for n in plan.n_list:
        pts = [pt for pt in sweep.points if pt.n == n]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i].interval()[0] > pts[j].interval()[1]:
                    monotone_ok = False
    gamma_ok = sweep.gamma is not None and 0.55 <= sweep.gamma <= 0.85
    print(f"  gamma = {sweep.gamma:.3f} +- {sweep.gamma_stderr:.3f}, "
          f"p_half = { {n: round(v, 4) for n, v in sweep.p_half.items()} }, "
          f"{elapsed:.0f}s")
    _report(7, "threshold exponent nearer 2/3 than 1/2",
            usable_ok and monotone_ok and gamma_ok and elapsed < 7200)


def test_acceptance_8_manifest_determinism(tmp_path):
    tt3_file = tmp_path / "tt3.txt"
    tt3_file.write_text(dumps(transitive_tournament(3)))
    k3_file = tmp_path / "k3.txt"
    k3_file.write_text(dumps(complete_graph(3)))

    commands = {
        "sweep": ["--seed", str(REPO_SEED), "sweep", str(tt3_file),
                  "--n-list", "12,16", "--trials", "25"],
        "profile": ["containers", "profile", str(tt3_file),
                    "--n", "1000", "--tau-d", "4", "--csv", "profile.csv"],
        "arrow": ["arrow", str(k3_file), str(tt3_file)],
    }
    reproduced = True
    for name, argv in commands.items():
        first = tmp_path / f"{name}_run1"
        code1, out1 = run_command(argv + ["--out-dir", str(first)])
        replay = tmp_path / f"{name}_run2"
        code2, out2 = run_command(["rerun", str(first / "manifest.json"),
                                   "--out-dir", str(replay)])
        payload = json.loads(out2)
        if code2 != 0 or not payload["reproduced"]:
            reproduced = False
            continue
        manifest1 = json.loads((first / "manifest.json").read_text())
        for rel in manifest1["outputs"]:
            if (first / rel).read_bytes() != (replay / rel).read_bytes():
                reproduced = False
    _report(8, "manifests replay byte-identically", reproduced)
