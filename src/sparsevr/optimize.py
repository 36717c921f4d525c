"""Sparse variance-reduced optimization: the main algorithm and baselines.

One SpiderBoost loop serves both the sparse method and the dense
baseline.  It keeps a variance-reduction direction nu, refreshed by a
size-B snapshot gradient at the top of every outer loop and corrected at
every inner step by a sparsified small-batch gradient difference.  The
sparsification support (top-k1 scored by the memory vector, plus k2
random slots, split across the problem's parameter blocks) is drawn
before any gradient work, so both restricted gradient evaluations return
only the selected coordinates and the query meter charges 2*b*(k1+k2)/d
per inner step.  The correction is `rtop` applied block by block: the
loop draws each block's support with `draw_support` and weights the slots
with `slot_scale`, the two pieces `rtop` itself is built from.  The
restricted oracle is each problem's one gradient kernel read at the
selected coordinates (see `problems`): it still runs the dense kernel (for
the network, the dense backprop) and gathers from it, so the k/d saving
is in the meter, not in its wall-clock.
Each block's top-k1 selection scans only the memory entries not below the
smallest one at its previous selection (see `draw_support`).  The inner
step runs the algorithm only: criterion 09 (`checks`) checks from outside
the loop that each restricted result equals the dense gradient at its
coordinates.  The dense baseline is the same loop at k1+k2 = d, where
every block is the identity and the step uses the dense batch gradient.
The memory vector exists only to score the top-k1 slots, so the identity
path keeps none: no memory, no EMA and no entropy (its rows report None),
and a capture probe, which scores by memory, is a config error there.  The
memory starts as |nu| of the first snapshot, so every gradient pass the
loop makes is metered.

The d-vectors each sparse inner step derives from nu, the step eta_t*nu
and the memory increment alpha*|nu|, are kept next to nu.  They are built
in full after each snapshot and, for the step, whenever eta_t differs from
the value it was built with; otherwise a sparse step rewrites them at its
k coordinates only, right after it updates nu there.  The identity path,
where nu changes everywhere, rebuilds the step only.  Each entry gets the
same IEEE operations as when both are formed from nu afresh, so the step
costs one pass over d (`x - step`) and the EMA two.

A snapshot replaces nu, so the loop drops the outgoing nu before the
snapshot pass, and the outgoing and the new nu are never alive together:
the pass starts with x, the step and, on the sparse path, the memory and
its increment.  The step and the increment stay allocated across the
pass, since the loop rewrites them in place right after it: freeing
either one as well, and allocating it again after the pass, raised
mlp-wide's peak RSS above that of dropping nu alone, because the new
buffer lands elsewhere in glibc's heap.

Diagnostics take one data pass per outer loop (and per SGD checkpoint):
the fused `loss_grad_batch` when a gradient norm is recorded or targeted,
`full_loss` otherwise; a capture probe reuses the fused gradient at the
outer-loop iterate and measures the residual outside the top-k1 set the
next step selects, block by block.  Each row reports that time as
`diag_ms`, which is part of its `wall_ms`.  The divergence ceiling needs
f(x0), but no finite loss at or below DIVERGENCE_FACTOR can pass it, so
f(x0) is evaluated only when a loss first does, at most once per run; a
run whose losses stay below that makes no data pass at x0.

Also here: plain batch SGD, the exponential-moving-average memory
update, and the two hyperparameter calculators.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import QueryMeter, entropy_bits, measure_g_G
from .problems import FiniteSumProblem, ProblemConstants
from .sampling import (STREAM_BATCH, STREAM_CAPTURE, STREAM_GEOM,
                       STREAM_OPERATOR, STREAM_OUTPUT, RngStream,
                       draw_geometric_many, geometric_ratio, sample_batch)
from .sparsity import SparsityParams, draw_support, select_top_k1, slot_scale
from .vecops import as_vector

log = logging.getLogger("sparsevr")

# A run aborts once its loss is not finite or exceeds this multiple of
# max(|f(x0)|, 1).  The ceiling is never below the factor itself, so f(x0)
# is evaluated only once a finite loss exceeds DIVERGENCE_FACTOR.
DIVERGENCE_FACTOR = 1e6


def _ema_step(memory: np.ndarray, increment: np.ndarray, alpha: float) -> np.ndarray:
    """memory = (1-alpha)*memory + increment in place, where increment is
    alpha*|nu|; the one definition of the EMA formula."""
    memory *= 1.0 - alpha
    memory += increment
    return memory


def _check_step(name: str, value: float | None) -> None:
    """ValueError unless the step size `value` is None or in (0, inf)."""
    if value is not None and not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _check_target(target_grad_norm: float | None) -> None:
    if target_grad_norm is not None and not target_grad_norm >= 0:
        raise ValueError("target_grad_norm must be nonnegative")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Full configuration of one SpiderBoost run, checked when built (by
    `dataclasses.replace` too): a value no run accepts raises ValueError.
    Configs compare and hash by identity, as their problem and `x0` do."""

    problem: FiniteSumProblem
    eta: float
    m: int
    T: int
    B: int
    b: int
    alpha: float = 0.5
    k1: int = 0
    k2: int = 0
    theory: bool = False    # Geom(m) inner loops and a uniformly drawn output
    seed: int = 0
    x0: np.ndarray | None = None
    eta_end: float | None = None     # linear inner-loop interpolation when set
    record_grad_norm: bool = True
    record_capture: bool = False
    keep_iterates: bool = False
    target_grad_norm: float | None = None

    def __post_init__(self):
        d, n = self.problem.d, self.problem.n
        _check_step("eta", self.eta)
        if self.m < 1 or self.T < 1:
            raise ValueError("m and T must be at least 1")
        if self.B < 1 or self.b < 1:
            raise ValueError("B and b must be at least 1")
        if self.b > min(self.B, n):
            raise ValueError("need b <= min(B, n)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        _operator_blocks(self)  # validates the budget and its per-block split
        if self.record_capture and self.k1 + self.k2 == d:
            raise ValueError("record_capture needs k1+k2 < d: the identity "
                             "operator keeps no memory to score a top-k1 set")
        if not isinstance(self.theory, bool):
            raise ValueError("theory must be True or False")
        if self.theory:
            geometric_ratio(self.m)  # Geom(m) must have a finite draw
        if self.x0 is not None:
            as_vector(self.x0, d)
        _check_step("eta_end", self.eta_end)
        _check_target(self.target_grad_norm)


@dataclass(frozen=True, eq=False)
class SgdConfig:
    """Full configuration of one plain batch SGD run, checked when built
    like `RunConfig`.  `eta_decay`, when set, multiplies the learning rate
    by that factor once per epoch (ceil(n/b) steps); a row is recorded
    every `record_every` steps (default max(1, steps // 100)) and after
    the last."""

    problem: FiniteSumProblem
    eta: float
    b: int
    steps: int
    seed: int = 0
    x0: np.ndarray | None = None
    eta_decay: float | None = None
    record_every: int | None = None
    record_grad_norm: bool = True
    target_grad_norm: float | None = None

    def __post_init__(self):
        _check_step("eta", self.eta)
        if not 1 <= self.b <= self.problem.n:
            raise ValueError("need 1 <= b <= n")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.x0 is not None:
            as_vector(self.x0, self.problem.d)
        _check_step("eta_decay", self.eta_decay)
        if self.record_every is not None and not self.record_every >= 1:
            raise ValueError("record_every must be at least 1")
        _check_target(self.target_grad_norm)


@dataclass
class RunRow:
    """One outer-loop (or SGD checkpoint) record."""

    j: int
    n_inner: int
    loss: float
    grad_norm: float | None
    units: float
    entropy: float | None   # of the memory; None where there is none
    wall_ms: float
    diag_ms: float   # part of wall_ms: loss, gradient norm, entropy, capture
    g: float | None = None
    G: float | None = None
    R: float | None = None


@dataclass
class RunRecord:
    """Everything one run produced besides the final iterate."""

    algorithm: str
    seed: int
    n: int
    d: int
    rows: list[RunRow] = field(default_factory=list)
    meter: QueryMeter = field(default_factory=QueryMeter)
    aborted: bool = False
    abort_reason: str = ""
    iterates: list | None = None

    def inner_lengths(self):
        return [row.n_inner for row in self.rows]


def _inner_eta(cfg: RunConfig, t: int) -> float:
    if cfg.eta_end is None:
        return cfg.eta
    # interpolates from eta at t=0 down to eta_end at t=m
    frac = min(t, cfg.m) / cfg.m
    return cfg.eta_end + (cfg.eta - cfg.eta_end) * (1.0 - frac)


def _largest_remainder(total: int, weights: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Apportion `total` integer slots by weight, respecting per-entry caps."""
    weights = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.int64)
    if total > caps.sum():
        raise ValueError("not enough capacity for the requested allocation")
    if total == 0:
        return np.zeros(len(caps), dtype=np.int64)
    quota = total * weights / weights.sum()
    alloc = np.minimum(np.floor(quota).astype(np.int64), caps)
    remainder = quota - alloc
    order = np.argsort(-remainder, kind="stable")
    left = total - int(alloc.sum())
    while left > 0:
        for i in order:
            if left == 0:
                break
            if alloc[i] < caps[i]:
                alloc[i] += 1
                left -= 1
    return alloc


def allocate_block_sparsity(k1: int, k2: int, block_sizes) -> list[SparsityParams]:
    """Split a global (k1, k2) budget across parameter blocks.

    Shares are proportional to block size with largest-remainder rounding.
    Every block that is not fully covered by its top slots gets at least
    one random slot, so the blocked operator stays unbiased; the totals
    are preserved exactly.  When k1+k2 = d each block degenerates to the
    identity.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.min() < 1:
        raise ValueError("block sizes must be positive")
    d = int(sizes.sum())
    SparsityParams(k1, k2, d)  # validates the global budget
    k1_b = _largest_remainder(k1, sizes, caps=sizes)
    cap2 = sizes - k1_b
    if k1 + k2 == d:
        k2_b = cap2
    else:
        base = (cap2 >= 1).astype(np.int64)
        mandatory = int(base.sum())
        if k2 < mandatory:
            raise ValueError(
                f"k2={k2} is too small for per-block allocation: every block "
                f"with free coordinates needs one random slot ({mandatory} blocks)")
        k2_b = base + _largest_remainder(k2 - mandatory, sizes, caps=cap2 - base)
    return [SparsityParams(int(a), int(b), int(s))
            for a, b, s in zip(k1_b, k2_b, sizes)]


def _operator_blocks(cfg: RunConfig) -> list[tuple[int, SparsityParams]]:
    """One (offset, SparsityParams) per parameter block of the problem, or
    a single (0, d) block, splitting the run's (k1, k2) budget."""
    ranges = cfg.problem.param_blocks() or [(0, cfg.problem.d)]
    return list(zip([lo for lo, _ in ranges], allocate_block_sparsity(
        cfg.k1, cfg.k2, [hi - lo for lo, hi in ranges])))


class _Aborted(Exception):
    def __init__(self, reason):
        self.reason = reason


def _guard_finite(x: np.ndarray, what: str = "iterate") -> None:
    if not np.isfinite(x).all():
        raise _Aborted(f"non-finite {what}")


def _initial_iterate(problem: FiniteSumProblem, x0) -> np.ndarray:
    """x0 as a float64 d-vector, zeros when None; not copied if it is one."""
    return np.zeros(problem.d) if x0 is None else as_vector(x0, problem.d)


def _start(problem: FiniteSumProblem, x0):
    """Starting iterate, and the loss above which the run counts as diverged,
    DIVERGENCE_FACTOR * max(|f(x0)|, 1), as a function that evaluates f(x0)
    on its first call only."""

    @functools.cache
    def ceiling() -> float:
        f0 = problem.full_loss(_initial_iterate(problem, x0))
        return DIVERGENCE_FACTOR * max(abs(f0), 1.0)

    return _initial_iterate(problem, x0).copy(), ceiling


def _check_loss(loss: float, ceiling: Callable[[], float], where: str) -> None:
    if not math.isfinite(loss) or (loss > DIVERGENCE_FACTOR
                                   and loss > ceiling()):
        raise _Aborted(f"divergence: loss {loss:.3e} at {where}")


def _loss_and_norm(problem: FiniteSumProblem, x: np.ndarray, want_norm: bool,
                   ceiling: Callable[[], float], where: str):
    """f(x), checked against the divergence ceiling, then ||grad f(x)|| and
    grad f(x) when `want_norm` (else None, None), from one pass over the
    data."""
    if want_norm:
        loss, grad = problem.loss_grad_batch(slice(None), x)
    else:
        loss, grad = problem.full_loss(x), None
    _check_loss(loss, ceiling, where)
    return loss, None if grad is None else float(np.linalg.norm(grad)), grad


def _abort(record: RunRecord, ab: _Aborted) -> None:
    record.aborted = True
    record.abort_reason = ab.reason
    log.warning("%s run (seed %d) aborted: %s", record.algorithm, record.seed,
                ab.reason)


def _spider_loop(cfg: RunConfig, algorithm: str):
    """The SpiderBoost outer/inner loop with operator budget (k1, k2).

    The operator is one (offset, SparsityParams) block per parameter block
    of the problem, or a single (0, d) block.  At k1+k2 = d every block is
    the identity: the inner step uses the dense batch gradient and the loop
    keeps no operator state and no memory.  Each block's `draw_support` call
    stays here, under the name this module imports, so perfbench's tracer,
    which wraps that name, sees one call per block.
    """
    prob = cfg.problem
    n, d = prob.n, prob.d
    snap = min(cfg.B, n)

    batch_rng = RngStream(cfg.seed, STREAM_BATCH)
    geom_rng = RngStream(cfg.seed, STREAM_GEOM)
    op_rng = RngStream(cfg.seed, STREAM_OPERATOR)
    out_rng = RngStream(cfg.seed, STREAM_OUTPUT)
    capture_rng = RngStream(cfg.seed, STREAM_CAPTURE)

    x, loss_ceiling = _start(prob, cfg.x0)
    record = RunRecord(algorithm=algorithm, seed=cfg.seed, n=n, d=d)
    record.iterates = [] if cfg.keep_iterates else None
    meter = record.meter

    k = cfg.k1 + cfg.k2
    identity = k == d
    want_norm = cfg.record_grad_norm or cfg.target_grad_norm is not None
    out_index = out_rng.integers(1, cfg.T + 1) if cfg.theory else None
    x_stash = None

    if not identity:
        blocks = _operator_blocks(cfg)
        # Per-slot factor in the [top, rand] order of `coords` below.
        scales = slot_scale(p for _, p in blocks)
        # Each block's last top-k1 selection; it bounds the next one from below.
        tops = [None] * len(blocks)
        increment = np.empty(d)
    # eta_t*nu, kept in step with nu like alpha*|nu| (see the module docstring);
    # step_eta is the eta that `step` holds, None when it is stale.
    step, step_eta = np.empty(d), None

    try:
        for j in range(1, cfg.T + 1):
            tic = time.perf_counter()
            i_snap = sample_batch(n, snap, batch_rng)
            nu = None  # the stale direction goes before the pass replaces it
            nu = prob.grad_batch(i_snap, x)
            step_eta = None
            if not identity:
                if j == 1:  # the memory starts as |nu| of the first snapshot
                    memory = np.abs(nu)
                np.multiply(np.abs(nu, out=increment), cfg.alpha, out=increment)
            meter.charge_snapshot(cfg.B, n)
            n_j = (int(draw_geometric_many(cfg.m, geom_rng, 1)[0])
                   if cfg.theory else cfg.m)

            for t in range(n_j):
                eta_t = _inner_eta(cfg, t)
                if eta_t != step_eta:
                    np.multiply(nu, eta_t, out=step)
                    step_eta = eta_t
                x_new = x - step
                _guard_finite(x_new)
                i_t = sample_batch(n, cfg.b, batch_rng)

                if identity:
                    nu += prob.grad_batch(i_t, x_new) - prob.grad_batch(i_t, x)
                    step_eta = None
                else:
                    parts = []
                    for i, (lo, p) in enumerate(blocks):
                        top, rand = draw_support(memory[lo:lo + p.d], p,
                                                 op_rng, tops[i])
                        tops[i] = top
                        parts += [lo + top, lo + rand]
                    coords = np.concatenate(parts)
                    diff = (prob.grad_batch_restricted(i_t, x_new, coords)
                            - prob.grad_batch_restricted(i_t, x, coords))
                    nu[coords] += scales * diff
                    nu_k = nu[coords]
                    step[coords] = step_eta * nu_k
                    increment[coords] = cfg.alpha * np.abs(nu_k)
                    _ema_step(memory, increment, cfg.alpha)
                meter.charge_inner(cfg.b, k, d)
                x = x_new

            _guard_finite(nu, "direction")
            diag_tic = time.perf_counter()
            loss, grad_norm, grad = _loss_and_norm(prob, x, want_norm,
                                                   loss_ceiling, f"outer loop {j}")
            ent = entropy_bits(memory) if not identity and memory.sum() > 0 else None

            g_val = big_g_val = r_val = None
            if cfg.record_capture:
                # the top-k1 set the next step selects, block by block
                top = np.concatenate([lo + select_top_k1(memory[lo:lo + p.d],
                                                         p.k1)
                                      for lo, p in blocks])
                x_virtual = x - _inner_eta(cfg, n_j) * nu
                cap = measure_g_G(prob, top, x_virtual, x, cfg.b,
                                  rng=capture_rng, grad_prev=grad)
                g_val, big_g_val, r_val = cap.g, cap.G, cap.R

            toc = time.perf_counter()
            record.rows.append(RunRow(
                j=j, n_inner=n_j, loss=loss, grad_norm=grad_norm,
                units=float(meter.units), entropy=ent,
                wall_ms=(toc - tic) * 1e3,
                diag_ms=(toc - diag_tic) * 1e3, g=g_val, G=big_g_val, R=r_val))
            if record.iterates is not None:
                record.iterates.append(x.copy())
            if out_index is not None and j == out_index:
                x_stash = x.copy()
            if (cfg.target_grad_norm is not None and grad_norm is not None
                    and grad_norm <= cfg.target_grad_norm):
                break
    except _Aborted as ab:
        _abort(record, ab)

    if (x_stash is not None and not record.aborted
            and cfg.target_grad_norm is None):
        return x_stash, record
    return x, record


def run_sparse_spiderboost(cfg: RunConfig):
    """Variance reduction with sparsified gradient-difference corrections.

    Outer loop: refresh nu from a size-min(B,n) snapshot batch.  Inner loop
    (m steps, or Geom(m) steps in theory mode): step x by -eta*nu, then add
    the sparsified small-batch gradient difference to nu and fold |nu| into
    the memory vector.  Returns the last iterate, or in theory mode a
    uniformly chosen outer-loop iterate.  A run that aborts, or that has a
    gradient-norm target, returns its last iterate.
    """
    return _spider_loop(cfg, "sparse-spiderboost")


def run_spiderboost_dense(cfg: RunConfig):
    """The same loop with the identity operator (k1=0, k2=d); the k1 and k2
    of `cfg` are ignored.  Inner steps cost the full 2b units.  SpiderBoost
    has no memory vector, so rows report no entropy and `record_capture` is
    rejected."""
    return _spider_loop(replace(cfg, k1=0, k2=cfg.problem.d), "spiderboost")


def run_sgd(cfg: SgdConfig):
    """Plain batch SGD baseline; one size-b gradient (b cost units) per step."""
    prob = cfg.problem
    n, d = prob.n, prob.d
    batch_rng = RngStream(cfg.seed, STREAM_BATCH)
    x, loss_ceiling = _start(prob, cfg.x0)
    record = RunRecord(algorithm="sgd", seed=cfg.seed, n=n, d=d)
    meter = record.meter
    record_every = cfg.record_every or max(1, cfg.steps // 100)
    steps_per_epoch = max(1, math.ceil(n / cfg.b))
    want_norm = cfg.record_grad_norm or cfg.target_grad_norm is not None

    tic = time.perf_counter()
    try:
        for t in range(1, cfg.steps + 1):
            step_eta = (cfg.eta if cfg.eta_decay is None else
                        cfg.eta * cfg.eta_decay ** ((t - 1) // steps_per_epoch))
            idx = sample_batch(n, cfg.b, batch_rng)
            x = x - step_eta * prob.grad_batch(idx, x)
            meter.charge_sgd(cfg.b)
            _guard_finite(x)
            if t % record_every == 0 or t == cfg.steps:
                diag_tic = time.perf_counter()
                loss, grad_norm, _ = _loss_and_norm(prob, x, want_norm,
                                                    loss_ceiling, f"step {t}")
                toc = time.perf_counter()
                record.rows.append(RunRow(
                    j=t, n_inner=1, loss=loss, grad_norm=grad_norm,
                    units=float(meter.units), entropy=None,
                    wall_ms=(toc - tic) * 1e3,
                    diag_ms=(toc - diag_tic) * 1e3))
                tic = time.perf_counter()
                if (cfg.target_grad_norm is not None and grad_norm is not None
                        and grad_norm <= cfg.target_grad_norm):
                    break
    except _Aborted as ab:
        _abort(record, ab)
    return x, record


@dataclass(frozen=True)
class HyperparamInputs:
    """Inputs to the two parameter rules, checked when built."""

    epsilon: float
    constants: ProblemConstants
    b: int
    k1: int
    k2: int
    d: int
    n: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.epsilon * self.epsilon < math.inf:
            raise ValueError(f"epsilon={self.epsilon:g}: its square "
                             "underflows to 0 or overflows")
        if self.b < 1 or self.d < 1 or self.n < 1:
            raise ValueError("b, d, n must be positive")
        SparsityParams(self.k1, self.k2, self.d)  # the sparsity budget


def _snapshot_size(raw: float, inp: HyperparamInputs) -> int:
    # ceil(raw ∧ n), then lifted to at least the small batch so the run
    # configuration stays valid (a larger snapshot only helps).
    return int(min(inp.n, max(math.ceil(min(raw, inp.n)), inp.b, 1)))


def _outer_loops(num: float, den: float) -> int:
    """T = ceil(num / den), at least 1, for num = c * delta_f and
    den = eta * m * eps^2; ValueError when that is not a finite count (an
    infinite delta_f, or a den that is 0 or underflows to it)."""
    raw = num / den if den > 0 else math.inf
    if not math.isfinite(raw):
        raise ValueError(f"T = {num:g} / {den:g} is not a finite count: "
                         "delta_f must be finite and eta * m * epsilon^2 "
                         "positive")
    return max(1, math.ceil(raw))


def _rule(inp: HyperparamInputs, c_b: float, c_t: float,
          eta_sq: Callable[[int], float]) -> dict:
    """B = ceil(c_b*sigma^2/eps^2 ∧ n), m = ceil(B*d/(b*(k1+k2))),
    eta = sqrt(eta_sq(m))/L, T = ceil(c_t*delta_f/(eta*m*eps^2)): the body
    both parameter rules share."""
    c = inp.constants
    big_b = _snapshot_size(c_b * c.sigma2 / inp.epsilon ** 2, inp)
    m = max(1, math.ceil(big_b * inp.d / (inp.b * (inp.k1 + inp.k2))))
    eta = math.sqrt(eta_sq(m)) / c.L
    big_t = _outer_loops(c_t * c.delta_f, eta * m * inp.epsilon ** 2)
    return {"B": big_b, "m": m, "eta": eta, "T": big_t}


def worst_case_hyperparams(inp: HyperparamInputs) -> dict:
    """Parameter rule with guarantees independent of gradient structure:
    B = ceil(2*sigma^2/eps^2 ∧ n), m = ceil(B*d/(b*(k1+k2))),
    eta = sqrt(k2/(6*d*m))/L, T = ceil(4*delta_f/(eta*m*eps^2))."""
    return _rule(inp, 2.0, 4.0, lambda m: inp.k2 / (6.0 * inp.d * m))


def data_adaptive_hyperparams(inp: HyperparamInputs) -> dict:
    """Parameter rule whose guarantee tightens when the selection captures
    the gradient-difference energy: B = ceil(3*sigma^2/eps^2 ∧ n),
    m = ceil(B*d/(b*(k1+k2))), eta = sqrt((b ∧ m)/(3m))/L,
    T = ceil(6*delta_f/(eta*m*eps^2))."""
    return _rule(inp, 3.0, 6.0, lambda m: min(inp.b, m) / (3.0 * m))
