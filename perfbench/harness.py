"""Runs both algorithms over a seed list, checks every output, aggregates metrics.

One (algorithm, seed) run is timed around the public `run_*` call only;
its output checks (abort, target or loss decrease, exact meter identity)
run outside the timed region.  A run that raises, aborts or fails a check
is counted as failed and the benchmark carries on.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import sparsevr
from tracing import ROOT, Tracer, self_times

ALGORITHMS = {"sparse": "run_sparse_spiderboost", "dense": "run_spiderboost_dense"}

# Run seeds are taken from the fixed list of MAX_PAIRS until the time budget
# is spent, but never fewer than MIN_PAIRS, so even a very short run
# reports a median of three.
MIN_PAIRS = 3
MAX_PAIRS = 200

END_TO_END = [
    ("setup_s", "s"),
    ("sparse.steps_per_s", "1/s"), ("dense.steps_per_s", "1/s"),
    ("sparse.time_to_target_s", "s"), ("dense.time_to_target_s", "s"),
    ("sparse.units_to_target", "count"), ("dense.units_to_target", "count"),
    ("peak_rss_mb", "MB"),
]

# Span names timed per call: (layer, unit of the per-call median, algorithms).
TIMED_LAYERS = [
    ("problems.restricted_grad", "us", ("sparse",)),
    ("problems.inner_grad", "us", ("dense",)),
    ("problems.snapshot", "ms", ("sparse", "dense")),
    ("problems.full_grad", "ms", ("sparse", "dense")),
    ("problems.full_loss", "ms", ("sparse", "dense")),
    ("sampling.sample_batch", "us", ("sparse", "dense")),
    ("sparsity.draw_support", "us", ("sparse",)),
    ("sparsity.select_top_k1", "us", ("sparse",)),
    ("sparsity.build_update", "us", ("sparse",)),
    ("optimize.ema_update", "us", ("sparse", "dense")),
    ("diagnostics.meter", "us", ("sparse", "dense")),
    ("diagnostics.entropy", "us", ("sparse", "dense")),
]
SCALE = {"us": 1e-3, "ms": 1e-6}   # nanoseconds -> unit


def per_layer_metrics():
    """Names and units of every per-layer metric, in a fixed order."""
    out = []
    for alg in ALGORITHMS:
        for layer, unit, algs in TIMED_LAYERS:
            if alg in algs:
                out += [(f"{alg}.{layer}.{unit}", unit),
                        (f"{alg}.{layer}.calls", "count")]
        if alg == "sparse":
            out.append(("sparse.problems.restricted_over_dense", "ratio"))
        out += [(f"{alg}.sampling.subset.calls", "count"),
                (f"{alg}.sampling.subset.busy_ms", "ms"),
                (f"{alg}.optimize.self_share", "ratio"),
                (f"{alg}.diagnostics.meter.events", "count"),
                (f"{alg}.trace.overhead_share", "ratio")]
    return out


def run_seeds(workload_seed: int, count: int = MAX_PAIRS) -> list[int]:
    """The fixed seed list of one benchmark run, derived from its workload seed."""
    state = np.random.SeedSequence([workload_seed, 7]).generate_state(count)
    return [int(s) for s in state]


def expected_units(cfg, rows, dense: bool) -> Fraction:
    """min(B,n) per outer loop plus 2*b*k/d per inner step, with k=d for dense."""
    d = cfg.problem.d
    k = d if dense else cfg.k1 + cfg.k2
    inner = sum(row.n_inner for row in rows)
    return Fraction(min(cfg.B, cfg.problem.n)) * len(rows) + Fraction(2 * cfg.b * k, d) * inner


def check_run(cfg, x, record, dense: bool, f0: float) -> list[str]:
    """Every output check of one run; an empty list means it passed."""
    if record.aborted:
        return [f"aborted: {record.abort_reason}"]
    if not record.rows:
        return ["no outer loop recorded"]
    problems = []
    target = cfg.target_grad_norm
    if target is not None:
        reached = record.rows[-1].grad_norm
        actual = float(np.linalg.norm(cfg.problem.full_grad(x)))
        if reached is None or reached > target or actual > target:
            problems.append(f"missed target {target} within T={cfg.T}: "
                            f"recorded {reached}, recomputed {actual}")
    else:
        loss = cfg.problem.full_loss(x)
        if not (math.isfinite(loss) and loss < f0):
            problems.append(f"final loss {loss} is not finite and below {f0}")
    want = expected_units(cfg, record.rows, dense)
    if record.meter.units != want:
        problems.append(f"meter {record.meter.units} != expected {want}")
    return problems


@dataclass
class Outcome:
    """What one (algorithm, seed) run produced and whether it passed."""

    algorithm: str
    seed: int
    wall_s: float = 0.0
    steps: int = 0
    units: Fraction = Fraction(0)
    x: np.ndarray | None = None
    losses: list = field(default_factory=list)
    meter_events: int | None = None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def initial_loss(workload) -> float:
    x0 = np.zeros(workload.problem.d) if workload.x0 is None else workload.x0
    return workload.problem.full_loss(x0)


def run_one(workload, algorithm: str, seed: int, f0: float,
            tracer: Tracer | None = None, **overrides) -> Outcome:
    """Time one public run_* call and check its outputs; never raises."""
    out = Outcome(algorithm, seed)
    try:
        cfg = workload.run_config(seed, **overrides)
        fn = getattr(sparsevr, ALGORITHMS[algorithm])
        if tracer is None:
            tic = time.perf_counter()
            x, record = fn(cfg)
            out.wall_s = time.perf_counter() - tic
        else:
            with tracer.installed(workload.problem, cfg.b):
                tic = time.perf_counter()
                x, record = tracer.wrap(ROOT, fn)(cfg)
                out.wall_s = time.perf_counter() - tic
        out.steps = sum(row.n_inner for row in record.rows)
        out.units = record.meter.units
        out.x = np.array(x, dtype=np.float64)
        out.losses = [row.loss for row in record.rows]
        events = getattr(record.meter, "events", None)
        out.meter_events = None if events is None else len(events)
        problems = check_run(cfg, x, record, algorithm == "dense", f0)
        if problems:
            out.failure = "; ".join(problems)
    except Exception as exc:  # a raising run is a counted failure, not a crash
        traceback.print_exc(file=sys.stderr)
        out.failure = f"raised {type(exc).__name__}: {exc}"
    if out.failure:
        print(f"FAILED {workload.name} {algorithm} seed={seed}: {out.failure}",
              file=sys.stderr)
    return out


def pair_order(i: int):
    """Alternate which algorithm runs first so drift hits both alike."""
    return ("sparse", "dense") if i % 2 == 0 else ("dense", "sparse")


def warm_up(workload, f0: float) -> None:
    """One short run per algorithm so lazy set-up and caches are not timed."""
    for alg in ALGORITHMS:
        run_one(workload, alg, seed=0, f0=f0, T=1, target_grad_norm=None)


def measure(workload, seeds, seconds: float, f0: float) -> list[Outcome]:
    """Untraced runs of both algorithms over `seeds` until `seconds` pass."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    for i, seed in enumerate(seeds):
        for alg in pair_order(i):
            out = run_one(workload, alg, seed, f0)
            out.x = None   # holding every iterate would inflate peak_rss_mb
            outcomes.append(out)
        if i + 1 >= MIN_PAIRS and time.perf_counter() >= deadline:
            break
    return outcomes


def identical(a: Outcome, b: Outcome) -> bool:
    """Bit-identical final iterates, meter totals and loss records."""
    return (a.x is not None and b.x is not None
            and a.x.tobytes() == b.x.tobytes() and a.units == b.units
            and np.array_equal(np.array(a.losses), np.array(b.losses)))


@dataclass
class TracedRun:
    """Span summary of one traced run, plus its untraced twin's wall time."""

    algorithm: str
    durations: dict          # span name -> list of durations (ns)
    root_ns: int
    root_self_ns: int
    plain_wall_s: float
    traced_wall_s: float
    meter_events: int | None
    spans: list


def summarize_spans(algorithm, spans, plain: Outcome, traced: Outcome) -> TracedRun:
    selfs = self_times(spans)
    durations = {}
    root_ns = root_self = 0
    for span, own in zip(spans, selfs):
        name, start, end, _ = span
        if name == ROOT:
            root_ns, root_self = end - start, own
        else:
            durations.setdefault(name, []).append(end - start)
    return TracedRun(algorithm, durations, root_ns, root_self,
                     plain.wall_s, traced.wall_s, traced.meter_events, spans)


def measure_traced(workload, seeds, seconds: float, f0: float):
    """Per seed and algorithm: an untraced run and a traced twin, in turns first.

    Returns (outcomes, traced runs, absent names).  A twin whose iterate,
    meter total or loss record differs from the untraced run is a failure.
    """
    outcomes, traced_runs, absent = [], [], set()
    deadline = time.perf_counter() + seconds
    for i, seed in enumerate(seeds):
        for alg in pair_order(i):
            tracer = Tracer()
            if i % 2 == 0:
                plain = run_one(workload, alg, seed, f0)
                twin = run_one(workload, alg, seed, f0, tracer=tracer)
            else:
                twin = run_one(workload, alg, seed, f0, tracer=tracer)
                plain = run_one(workload, alg, seed, f0)
            absent.update(tracer.absent)
            if plain.ok and twin.ok and not identical(plain, twin):
                plain.failure = "traced run differs from the untraced run"
                print(f"FAILED {workload.name} {alg} seed={seed}: {plain.failure}",
                      file=sys.stderr)
            elif plain.ok and not twin.ok:
                plain.failure = f"traced run failed: {twin.failure}"
            plain.x = None
            outcomes.append(plain)
            if twin.ok:
                traced_runs.append(summarize_spans(alg, tracer.spans, plain, twin))
        if i + 1 >= MIN_PAIRS and time.perf_counter() >= deadline:
            break
    return outcomes, traced_runs, sorted(absent)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(outcomes, setup_s: float, peak_rss_mb: float) -> dict:
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for alg in ALGORITHMS:
        good = [o for o in outcomes if o.algorithm == alg and o.ok]
        values[f"{alg}.steps_per_s"] = _median([o.steps / o.wall_s for o in good])
        values[f"{alg}.time_to_target_s"] = _median([o.wall_s for o in good])
        values[f"{alg}.units_to_target"] = _median([float(o.units) for o in good])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_values(traced_runs) -> dict:
    """Per-layer metric values; a layer with no calls reads 0 (absent)."""
    values = {}
    for alg in ALGORITHMS:
        runs = [r for r in traced_runs if r.algorithm == alg]
        for layer, unit, algs in TIMED_LAYERS:
            if alg not in algs:
                continue
            pooled = [ns for r in runs for ns in r.durations.get(layer, ())]
            values[f"{alg}.{layer}.{unit}"] = _median(pooled) * SCALE[unit]
            values[f"{alg}.{layer}.calls"] = _median(
                [len(r.durations.get(layer, ())) for r in runs])
        values[f"{alg}.sampling.subset.calls"] = _median(
            [len(r.durations.get("sampling.subset", ())) for r in runs])
        values[f"{alg}.sampling.subset.busy_ms"] = _median(
            [sum(r.durations.get("sampling.subset", ())) * 1e-6 for r in runs])
        values[f"{alg}.optimize.self_share"] = _median(
            [r.root_self_ns / r.root_ns for r in runs if r.root_ns])
        values[f"{alg}.diagnostics.meter.events"] = _median(
            [r.meter_events for r in runs if r.meter_events is not None])
        values[f"{alg}.trace.overhead_share"] = _median(
            [r.traced_wall_s / r.plain_wall_s - 1.0 for r in runs])
    dense_inner = values["dense.problems.inner_grad.us"]
    values["sparse.problems.restricted_over_dense"] = (
        values["sparse.problems.restricted_grad.us"] / dense_inner
        if dense_inner else 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_metrics()}
