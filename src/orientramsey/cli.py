"""Batch command-line front end with reproducible, manifest-tracked runs.

Exit codes: 0 success; 1 arrow verdict false (certificate written) or, for
`orient starfree`, no star-free orientation exists; 2 usage; 3 resource
budget exhausted; 4 malformed input.

Every run writes a manifest recording the command, parameters and sha256
digests of all outputs (including captured stdout); `rerun` re-executes a
manifest into a fresh directory and verifies the digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from math import comb

from . import __version__
from .arrow import (arrow, oriented_ramsey_number, verify_certificate)
from .constructions import rooted_product
from .containers import co_degree_profile, tau_power
from .density import m as density_m
from .density import m2 as density_m2
from .errors import (BudgetExceededError, GraphFormatError,
                     HypothesisUnmetError, TooLargeError)
from .experiments import (ExperimentPlan, default_p_grid,
                          estimate_arrow_probability, tree_threshold_probe)
from .graphs import Graph, OrientedGraph, dumps, in_out_star, loads, make_family
from .witness import chromatic_number, ghrv_orientation, k_core, star_free_extension

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


class _Tracker:
    """Writes output files under the run directory and records digests."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.outputs = {}

    def write_text(self, name, text):
        rel = os.path.normpath(name)
        if os.path.isabs(rel) or rel.startswith(".."):
            raise ValueError(f"output path {name!r} must stay inside the run directory")
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.outputs[rel] = hashlib.sha256(data).hexdigest()
        return rel


def _load(path, want=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = loads(fh.read())
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}")
    if want is Graph and not isinstance(obj, Graph):
        raise GraphFormatError(f"{path} holds an oriented graph; need an undirected one")
    if want is OrientedGraph and not isinstance(obj, OrientedGraph):
        raise GraphFormatError(f"{path} holds an undirected graph; need an oriented one")
    return obj


def _size_list(text):
    """argparse type: one or more comma-separated distinct host sizes, each
    at least 1."""
    try:
        sizes = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not sizes or any(n < 1 for n in sizes) or len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"expected distinct sizes >= 1, got {text!r}")
    return sizes


def _float_list(text):
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _at_least(kind, low):
    """argparse type: a `kind` (int or float) value of at least `low`."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not value >= low:        # also rejects nan
            raise argparse.ArgumentTypeError(f"expected a number >= {low}, got {text!r}")
        return value
    return parse


def _add_run_flags(parser, top_level):
    """Shared flags, usable before or after the subcommand.  Subparsers
    use SUPPRESS defaults so they don't clobber values parsed up front."""
    miss = argparse.SUPPRESS
    parser.add_argument("--seed", type=int,
                        default=0 if top_level else miss, help="global random seed")
    parser.add_argument("--budget-nodes", type=int,
                        default=2_000_000 if top_level else miss,
                        help="search node budget per solver call")
    parser.add_argument("--budget-seconds", type=_at_least(float, 0),
                        default=None if top_level else miss,
                        help="wall-clock budget per solver call")
    parser.add_argument("--out-dir",
                        default="." if top_level else miss,
                        help="directory for output files")
    parser.add_argument("--manifest",
                        default="manifest.json" if top_level else miss,
                        help="manifest filename within the output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orientramsey",
        description="Exact arrow-relation solver and G(n,p) threshold workbench")
    _add_run_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrow", help="decide G -> H with certificate")
    p.add_argument("g_file")
    p.add_argument("h_file")
    p.add_argument("--certificate", default="certificate.txt",
                   help="where to write the H-free orientation on a false verdict")
    p.add_argument("--check-certificate", default=None, metavar="FILE",
                   help="verify FILE is an H-free orientation of G instead of solving")

    p = sub.add_parser("ramsey", help="least n with K_n -> H")
    p.add_argument("h_file")
    p.add_argument("--nmax", type=int, default=10)

    p = sub.add_parser("density", help="exact density parameters of a graph")
    p.add_argument("g_file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--m2", action="store_true", help="maximum 2-density (default)")
    mode.add_argument("--m", action="store_true", help="maximum density")

    p = sub.add_parser("construct", help="build graphs")
    csub = p.add_subparsers(dest="construct_command", required=True)
    cp = csub.add_parser("product", help="rooted product of two oriented graphs")
    cp.add_argument("f_file")
    cp.add_argument("h_file")
    cp.add_argument("--out", required=True)
    cf = csub.add_parser("family", help="named family member")
    cf.add_argument("kind", help="complete | cycle | path | directed_path | "
                                 "transitive_tournament | in_out_star")
    cf.add_argument("params", type=int, nargs="*")
    cf.add_argument("--root", type=int, default=None,
                    help="root vertex for oriented outputs")
    cf.add_argument("--out", required=True)

    p = sub.add_parser("orient", help="constructive orientations")
    osub = p.add_subparsers(dest="orient_command", required=True)
    og = osub.add_parser("ghrv", help="colour-increasing orientation (exact colouring)")
    og.add_argument("g_file")
    og.add_argument("--out", required=True)
    ost = osub.add_parser("starfree", help="orientation avoiding an in/out star")
    ost.add_argument("g_file")
    ost.add_argument("--in-arcs", type=int, required=True, help="in-arcs of the star")
    ost.add_argument("--out-arcs", type=int, required=True, help="out-arcs of the star")
    ost.add_argument("--core-orientation", default=None,
                     help="star-free orientation of the (a+b)-core; derived if omitted")
    ost.add_argument("--out", required=True)

    p = sub.add_parser("containers", help="copy-hypergraph degree calculus")
    hsub = p.add_subparsers(dest="containers_command", required=True)
    hp = hsub.add_parser("profile", help="degree/co-degree profile at tau = D n^(-1/m2)")
    hp.add_argument("h_file")
    hp.add_argument("--n", type=int, required=True)
    hp.add_argument("--tau-d", default="1", help="the constant D (rational ok)")
    hp.add_argument("--csv", default=None, help="also write j,d_j,delta_j rows")

    p = sub.add_parser("sweep", help="Monte Carlo arrow-probability sweep over G(n,p)")
    p.add_argument("h_file")
    p.add_argument("--n-list", type=_size_list, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--p-points", type=_at_least(int, 1), default=9,
                   help="points in each n's default p grid")
    p.add_argument("--jobs", type=_at_least(int, 1), default=1)
    p.add_argument("--csv", default="sweep.csv")

    p = sub.add_parser("trees", help="oriented-tree threshold experiments")
    tsub = p.add_subparsers(dest="trees_command", required=True)
    tp = tsub.add_parser("probe", help="P(G(n,b/n) -> T) along a grid of b")
    tp.add_argument("t_file")
    tp.add_argument("--b-grid", type=_float_list, required=True)
    tp.add_argument("--n", type=int, required=True)
    tp.add_argument("--trials", type=int, required=True)
    tp.add_argument("--csv", default="probe.csv")

    p = sub.add_parser("rerun", help="re-execute a manifest and verify digests")
    p.add_argument("manifest_file")

    for leaf in (sub.choices["arrow"], sub.choices["ramsey"], sub.choices["density"],
                 csub.choices["product"], csub.choices["family"],
                 osub.choices["ghrv"], osub.choices["starfree"],
                 hsub.choices["profile"], sub.choices["sweep"],
                 tsub.choices["probe"], sub.choices["rerun"]):
        _add_run_flags(leaf, top_level=False)
    return parser


def _frac_str(x):
    return str(Fraction(x))


def _cmd_arrow(args, tracker):
    g = _load(args.g_file, Graph)
    h = _load(args.h_file, OrientedGraph)
    if args.check_certificate:
        cert = _load(args.check_certificate, OrientedGraph)
        ok = verify_certificate(g, h, cert)
        return (EXIT_OK if ok else EXIT_FALSE), {
            "command": "arrow", "mode": "verify", "certificate_valid": ok}
    res = arrow(g, h, node_budget=args.budget_nodes, time_budget=args.budget_seconds)
    payload = {"command": "arrow", "verdict": res.verdict, "nodes": res.nodes,
               "patterns": res.n_patterns, "certificate": None}
    if res.verdict:
        return EXIT_OK, payload
    payload["certificate"] = tracker.write_text(args.certificate, dumps(res.certificate))
    return EXIT_FALSE, payload


def _cmd_ramsey(args, tracker):
    h = _load(args.h_file, OrientedGraph)
    r = oriented_ramsey_number(h, n_max=args.nmax)
    return EXIT_OK, {"command": "ramsey", "n_max": args.nmax,
                     "ramsey": r if r is not None else "exceeds n_max"}


def _cmd_density(args, tracker):
    g = _load(args.g_file, Graph)
    report = density_m(g) if args.m else density_m2(g)
    return EXIT_OK, {
        "command": "density", "kind": report.kind, "value": _frac_str(report.value),
        "witness_vertices": list(report.vertices),
        "witness_edges": [list(e) for e in report.edges]}


def _cmd_construct(args, tracker):
    if args.construct_command == "product":
        f = _load(args.f_file, OrientedGraph)
        h = _load(args.h_file, OrientedGraph)
        out = rooted_product(f, h)
    else:
        out = make_family(args.kind, *args.params)
        if args.root is not None:
            if not isinstance(out, OrientedGraph):
                raise ValueError("--root applies only to oriented families")
            out = out.with_root(args.root)
    rel = tracker.write_text(args.out, dumps(out))
    payload = {"command": "construct", "file": rel, "vertices": out.n,
               "size": out.e, "oriented": isinstance(out, OrientedGraph)}
    return EXIT_OK, payload


def _cmd_orient(args, tracker):
    g = _load(args.g_file, Graph)
    if args.orient_command == "ghrv":
        chrom = chromatic_number(g)
        oriented = ghrv_orientation(g, chrom.coloring)
        rel = tracker.write_text(args.out, dumps(oriented))
        return EXIT_OK, {"command": "orient-ghrv", "chi": chrom.value, "file": rel}
    a, b = args.in_arcs, args.out_arcs
    dec = k_core(g, a + b)
    if args.core_orientation:
        core_orientation = _load(args.core_orientation, OrientedGraph)
    else:
        star = in_out_star(a, b)
        res = arrow(dec.core_graph(g), star, node_budget=args.budget_nodes,
                    time_budget=args.budget_seconds)
        if res.verdict:
            return EXIT_FALSE, {
                "command": "orient-starfree", "exists": False,
                "reason": "the core forces the star, so no star-free "
                          "orientation of the graph exists"}
        core_orientation = res.certificate
    oriented = star_free_extension(g, core_orientation, a, b)
    rel = tracker.write_text(args.out, dumps(oriented))
    return EXIT_OK, {"command": "orient-starfree", "exists": True,
                     "core_size": len(dec.core), "file": rel}


def _cmd_containers(args, tracker):
    h = _load(args.h_file, OrientedGraph)
    d_factor = Fraction(args.tau_d)
    if d_factor <= 0:
        raise ValueError("--tau-d must be positive")
    profile = co_degree_profile(h, args.n, tau_power(h, args.n, d_factor))
    l = h.e
    bound = Fraction(2 ** comb(l, 2) * h.n ** (h.n - 2)) / d_factor
    payload = {
        "command": "containers-profile", "n": args.n, "tau_d": _frac_str(d_factor),
        "l": l, "h": h.n,
        "f": list(profile.f),
        "d": [str(x) for x in profile.d],
        "d1": str(profile.d1),
        "delta": profile.delta.exact_str(),
        "codegree_bound": _frac_str(bound),
        "bound_holds": profile.delta_at_most(bound),
    }
    if args.csv:
        lines = ["j,d_j,delta_j"]
        for j, dj, delta in profile.csv_rows():
            lines.append(f"{j},{dj},{delta.exact_str()}")
        payload["csv"] = tracker.write_text(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK, payload


def _cmd_sweep(args, tracker):
    h = _load(args.h_file, OrientedGraph)
    grids = {n: default_p_grid(h, n, args.p_points) for n in args.n_list}
    plan = ExperimentPlan(pattern=h, pattern_name=os.path.basename(args.h_file),
                          n_list=args.n_list, trials=args.trials, seed=args.seed,
                          p_grids=grids, node_budget=args.budget_nodes, jobs=args.jobs)
    sweep = estimate_arrow_probability(plan)
    rel = tracker.write_text(args.csv, sweep.csv_text())
    payload = {"command": "sweep", "csv": rel}
    payload.update(sweep.summary())
    return EXIT_OK, payload


def _cmd_trees(args, tracker):
    t = _load(args.t_file, OrientedGraph)
    table = tree_threshold_probe(t, args.b_grid, args.n, args.trials, args.seed,
                                 node_budget=args.budget_nodes,
                                 pattern_name=os.path.basename(args.t_file))
    rel = tracker.write_text(args.csv, table.csv_text())
    return EXIT_OK, {"command": "trees-probe", "csv": rel, "n": args.n,
                     "core_k": table.core_k}


_DISPATCH = {
    "arrow": _cmd_arrow,
    "ramsey": _cmd_ramsey,
    "density": _cmd_density,
    "construct": _cmd_construct,
    "orient": _cmd_orient,
    "containers": _cmd_containers,
    "sweep": _cmd_sweep,
    "trees": _cmd_trees,
}


def _strip_run_flags(argv):
    """Drop --out-dir/--manifest (and their values) from an argv list."""
    out = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok in ("--out-dir", "--manifest"):
            skip = True
            continue
        if tok.startswith("--out-dir=") or tok.startswith("--manifest="):
            continue
        out.append(tok)
    return out


def run_command(argv):
    """Execute one command line; returns (exit_code, stdout_text).

    Also writes the run manifest next to the outputs.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rerun":
        return _rerun(args)
    tracker = _Tracker(args.out_dir)
    try:
        code, payload = _DISPATCH[args.command](args, tracker)
    except BudgetExceededError as exc:
        code, payload = EXIT_BUDGET, {"command": args.command, "error": str(exc)}
    except (GraphFormatError, TooLargeError, HypothesisUnmetError, ValueError) as exc:
        code, payload = EXIT_BAD_INPUT, {"command": args.command, "error": str(exc)}
    stdout_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "argv": _strip_run_flags(list(argv)),
        "seed": args.seed,
        "budget_nodes": args.budget_nodes,
        "budget_seconds": args.budget_seconds,
        "exit_code": code,
        "outputs": tracker.outputs,
        "stdout_sha256": hashlib.sha256(stdout_text.encode()).hexdigest(),
    }
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, args.manifest), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return code, stdout_text


def _check_manifest(manifest):
    """Raise ValueError unless manifest holds the fields that rerun replays."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    argv = manifest.get("argv")
    if not isinstance(argv, list) or not all(isinstance(tok, str) for tok in argv):
        raise ValueError("manifest field 'argv' must be a list of strings")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict) or not all(isinstance(v, str) for v in outputs.values()):
        raise ValueError("manifest field 'outputs' must map file names to digests")
    if not isinstance(manifest.get("exit_code"), int):
        raise ValueError("manifest field 'exit_code' must be an integer")
    if not isinstance(manifest.get("stdout_sha256"), str):
        raise ValueError("manifest field 'stdout_sha256' must be a string")


def _rerun(args):
    try:
        with open(args.manifest_file, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        _check_manifest(manifest)
    except (OSError, ValueError) as exc:
        return EXIT_BAD_INPUT, json.dumps(
            {"command": "rerun", "error": str(exc)}, sort_keys=True, indent=2) + "\n"
    argv = manifest["argv"] + ["--out-dir", args.out_dir, "--manifest", args.manifest]
    code, stdout_text = run_command(argv)
    replay = {
        "exit_code": code == manifest["exit_code"],
        "stdout": hashlib.sha256(stdout_text.encode()).hexdigest()
                  == manifest["stdout_sha256"],
    }
    new_outputs = {}
    for rel in manifest["outputs"]:
        path = os.path.join(args.out_dir, rel)
        try:
            with open(path, "rb") as fh:
                new_outputs[rel] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            new_outputs[rel] = None
        replay[rel] = new_outputs[rel] == manifest["outputs"][rel]
    ok = all(replay.values())
    payload = {"command": "rerun", "reproduced": ok, "checks": replay}
    return (EXIT_OK if ok else EXIT_FALSE,
            json.dumps(payload, sort_keys=True, indent=2) + "\n")


def main(argv=None):
    code, stdout_text = run_command(sys.argv[1:] if argv is None else list(argv))
    sys.stdout.write(stdout_text)
    return code


if __name__ == "__main__":
    sys.exit(main())
