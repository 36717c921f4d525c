"""Tests of the benchmark harness itself, on problems small enough to run in
well under a second.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
import sparsevr
import tracing
from tracing import Tracer, self_times
from workloads import Workload

BENCH = Path(__file__).resolve().parents[1]


def tiny_workload(problem_cls=sparsevr.LeastSquaresProblem, **cfg):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 12))
    b = a @ rng.standard_normal(12)
    config = dict(eta=0.05, m=5, T=3, B=40, b=5, k1=2, k2=2,
                  record_grad_norm=False)
    config.update(cfg)
    return Workload("tiny", problem_cls(a, b), config)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [["root", 0, 100, -1],
             ["a", 10, 30, 0],
             ["b", 20, 50, 0],     # overlaps a: the union 10..50 counts once
             ["c", 90, 120, 0],    # sticks out of root: only 90..100 counts
             ["a.inner", 12, 15, 1]]
    assert self_times(spans) == [50, 17, 30, 30, 3]


def test_tracer_nests_spans_and_self_times_sum_to_root():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    tracer.wrap("root", lambda: (mid(), leaf()))()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["root", "mid", "leaf", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == root[2] - root[1]


@pytest.mark.parametrize("algorithm", ["sparse", "dense"])
def test_meter_identity_holds_and_catches_a_wrong_total(algorithm):
    wl = tiny_workload()
    f0 = harness.initial_loss(wl)
    out = harness.run_one(wl, algorithm, seed=5, f0=f0)
    assert out.ok, out.failure
    cfg = wl.run_config(5)
    fn = getattr(sparsevr, harness.ALGORITHMS[algorithm])
    x, record = fn(cfg)
    dense = algorithm == "dense"
    k = 12 if dense else 4
    assert harness.expected_units(cfg, record.rows, dense) == (
        Fraction(40) * 3 + Fraction(2 * 5 * k, 12) * 15)
    assert harness.check_run(cfg, x, record, dense, f0) == []
    record.meter.units += Fraction(1, 12)
    assert any("meter" in p for p in harness.check_run(cfg, x, record, dense, f0))


class RaisingRestricted(sparsevr.LeastSquaresProblem):
    def grad_batch_restricted(self, idx, x, coords):
        raise ValueError("values contain NaN or Inf")


def test_raising_run_counts_in_fail_share_and_the_benchmark_goes_on():
    wl = tiny_workload(RaisingRestricted)
    outcomes = harness.measure(wl, harness.run_seeds(1), seconds=0.0,
                               f0=harness.initial_loss(wl))
    assert len(outcomes) == 2 * harness.MIN_PAIRS
    failed = [o for o in outcomes if not o.ok]
    assert {o.algorithm for o in failed} == {"sparse"}
    assert len(failed) / len(outcomes) == 0.5
    assert all("ValueError" in o.failure for o in failed)
    metrics = harness.end_to_end_metrics(outcomes, setup_s=0.1, peak_rss_mb=1.0)
    assert metrics["dense.steps_per_s"]["value"] > 0


def test_missed_target_is_a_failure():
    wl = tiny_workload(T=1, target_grad_norm=1e-12, record_grad_norm=True)
    out = harness.run_one(wl, "dense", seed=2, f0=harness.initial_loss(wl))
    assert out.failure is not None and "missed target" in out.failure


def test_traced_twin_is_identical_and_absent_names_do_not_fail(monkeypatch):
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + [
        (sparsevr.optimize, "helper_removed_by_a_refactor", "optimize.gone")])
    wl = tiny_workload()
    outcomes, traced, absent = harness.measure_traced(
        wl, harness.run_seeds(4), seconds=0.0, f0=harness.initial_loss(wl))
    assert all(o.ok for o in outcomes), [o.failure for o in outcomes]
    assert "sparsevr.optimize.helper_removed_by_a_refactor" in absent
    assert not hasattr(sparsevr.optimize, "helper_removed_by_a_refactor")
    values = harness.per_layer_values(traced)
    # Grad-norm recording is off, so full_grad is never called: reported as 0.
    assert values["sparse.problems.full_grad.calls"]["value"] == 0
    assert values["sparse.problems.restricted_grad.calls"]["value"] == 2 * 15
    assert values["dense.problems.inner_grad.calls"]["value"] == 2 * 15
    assert values["sparse.diagnostics.meter.calls"]["value"] == 3 + 15
    # Every wrapper is removed again after the traced run.
    assert "grad_batch" not in vars(wl.problem)
    assert sparsevr.optimize.sample_batch is sparsevr.sampling.sample_batch


def test_traced_run_that_diverges_from_untraced_is_a_failure(monkeypatch):
    wl = tiny_workload()
    real_wrap = Tracer.wrap

    def perturbing_wrap(self, name, fn):
        if name != "problems.full_loss":
            return real_wrap(self, name, fn)
        return real_wrap(self, name, lambda x: fn(x) + 1e-12)

    monkeypatch.setattr(Tracer, "wrap", perturbing_wrap)
    outcomes, _, _ = harness.measure_traced(
        wl, harness.run_seeds(4), seconds=0.0, f0=harness.initial_loss(wl))
    assert any(o.failure and "differs" in o.failure for o in outcomes)


def test_benchmark_json_lists_the_harness_metrics_and_layer_map_covers_them():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_metrics()
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(layer_map["workloads"])
