"""Self-test of the benchmark code: every metric that BENCHMARK.json names
is emitted, and the correctness gate rejects wrong verdicts.

Run from the root of a checkout (well under a minute):

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny_solve_hard(monkeypatch):
    """solve-hard's real instances take half a minute; these run the same
    code in milliseconds."""
    tt3 = bench.orm.transitive_tournament(3)
    monkeypatch.setattr(bench, "solve_hard_instances", lambda: [
        ("K5", bench.orm.complete_graph(5), tt3, True, 10),
        ("K3", bench.orm.complete_graph(3), tt3, False, 3)])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    result, report = bench.measure(workload, seed=1, seconds=1, trace=bool(trace))
    assert result["correct"], report["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert report["unobserved"] == []


def _flip(original, only_first):
    calls = []

    def arrow(g, h, **kwargs):
        result = original(g, h, **kwargs)
        calls.append(None)
        if only_first and len(calls) > 1:
            return result
        return dataclasses.replace(result, verdict=not result.verdict)
    return arrow


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_gate_rejects_a_wrong_verdict(workload, monkeypatch):
    # One wrong trial among thousands is invisible to the sweep's
    # statistical gate, so there every verdict is flipped.
    only_first = workload != "sweep-tt3"
    monkeypatch.setattr(bench.ARROW, "arrow", _flip(bench.ARROW.arrow, only_first))
    monkeypatch.setattr(bench.EXPERIMENTS, "arrow", _flip(bench.EXPERIMENTS.arrow, only_first))
    result, report = bench.measure(workload, seed=1, seconds=1, trace=False)
    assert not result["correct"] and report["errors"]


def test_missed_wrapper_is_unobserved(monkeypatch):
    """A kernel reached by another path than the wrapped attribute must be
    reported as unobserved, not as zero seconds."""
    kernels = bench.KERNELS
    monkeypatch.setattr(bench, "KERNELS", types.SimpleNamespace(
        dpll_orientation_search=kernels.dpll_orientation_search,
        jit_enabled=kernels.jit_enabled, JIT_ENV_FLAG=kernels.JIT_ENV_FLAG))
    result, report = bench.measure("solve-hard", seed=1, seconds=1, trace=True)
    assert report["unobserved"] == ["dpll"]
    assert "kernels.dpll_s" not in result["metrics"]
    assert "arrow.self_s" not in result["metrics"]


def test_sweep_gate_accepts_every_all_success_point():
    """At p_hat = 1 the recorded Wilson upper end rounds just below 1."""
    reference = {"points": [{"n": 40, "p": 0.5, "successes": 440, "usable": 440}]}
    for trials in range(1, 300):
        pt = bench.EXPERIMENTS.PointEstimate(40, 0.5, 0, trials, trials, 0)
        assert bench.check_sweep(types.SimpleNamespace(points=[pt]), reference) == []
