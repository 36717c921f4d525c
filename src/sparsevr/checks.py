"""Fast exactness criteria, defined once for the tests and `sparsevr check`.

Each criterion returns its PASS detail and raises AssertionError when a
requirement fails.  `_require` raises explicitly, so `python -O` cannot
skip a requirement.  The statistical criteria 06 and 07 are test-only.
Two references serve the tests as well: `spiderboost_replay`, plain
SpiderBoost on a run's batch stream, and `run_with_checked_oracle`, a
sparse run whose restricted oracle is checked against the dense one.
"""

import copy
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .diagnostics import entropy_bits
from .optimize import (RunConfig, _initial_iterate, _inner_eta,
                       run_sparse_spiderboost, run_spiderboost_dense)
from .problems import (LeastSquaresProblem, LogisticProblem,
                       MatrixFactorizationProblem, MLPProblem, gen_class_blobs,
                       gen_gaussian_ls, gen_logistic_blobs,
                       gen_low_rank_ratings, gen_planted_ls)
from .sampling import STREAM_BATCH, RngStream, check_geom_lemma, sample_batch
from .sparsity import (SparsityParams, draw_support, rtop, rtop_enumerate,
                       top_neg_k1)
from .vecops import norm2_sq


def _require(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def spiderboost_replay(cfg: RunConfig) -> list:
    """Plain SpiderBoost on the batch stream of `cfg`'s seed, for fixed-length
    inner loops; returns the iterate after each outer loop.

    The stream is drawn in the loop's order: each snapshot batch, then its
    inner batches.  Each step is x - eta_t*nu and each correction
    nu + (g(x_new) - g(x)), with g the problem's grad_batch on the inner
    batch.  The identity operator (k1+k2 = d) must reproduce it bit for bit.
    """
    _require(not cfg.theory, "the replay runs fixed inner loops")
    prob, n = cfg.problem, cfg.problem.n
    rng = RngStream(cfg.seed, STREAM_BATCH)
    x = _initial_iterate(prob, cfg.x0)
    iterates = []
    for _ in range(cfg.T):
        nu = prob.grad_batch(sample_batch(n, min(cfg.B, n), rng), x)
        for t in range(cfg.m):
            x_new = x - _inner_eta(cfg, t) * nu
            i_t = sample_batch(n, cfg.b, rng)
            nu = nu + (prob.grad_batch(i_t, x_new) - prob.grad_batch(i_t, x))
            x = x_new
        iterates.append(x)
    return iterates


def run_with_checked_oracle(cfg: RunConfig):
    """Sparse run of `cfg` whose every restricted oracle call is checked.

    The run uses a shallow copy of the problem whose instance attribute
    grad_batch_restricted overrides the oracle (the caller's problem and its
    class are untouched): each call must return grad_batch(idx, x)[coords]
    bit for bit.  The run must complete, make at least two restricted calls
    per inner step and end away from its start.  Returns (x, record).
    """
    prob = copy.copy(cfg.problem)
    real = prob.grad_batch_restricted
    calls = 0

    def checked(idx, x, coords):
        nonlocal calls
        calls += 1
        out = real(idx, x, coords)
        _require(_same_bits(out, prob.grad_batch(idx, x)[coords]),
                 f"{type(prob).__name__}: restricted gradient differs from "
                 f"the dense one at its coordinates (call {calls})")
        return out

    prob.grad_batch_restricted = checked
    x, record = run_sparse_spiderboost(replace(cfg, problem=prob))
    name = type(prob).__name__
    _require(not record.aborted, f"{name}: {record.abort_reason}")
    steps = sum(record.inner_lengths())
    _require(calls >= 2 * steps,
             f"{name}: {calls} restricted calls for {steps} inner steps")
    _require(not np.array_equal(x, _initial_iterate(prob, cfg.x0)),
             f"{name}: the run never moved")
    return x, record


def fd_grad(problem, x, h=1e-5):
    """Central finite-difference gradient of problem.full_loss at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (problem.full_loss(x + e) - problem.full_loss(x - e)) / (2.0 * h)
    return g


def criterion_01_operator_exactness():
    """200 random instances, d <= 12: enumerated mean equals the input and
    enumerated variance matches the closed form."""
    tic = time.time()
    rng = np.random.default_rng(20_240_601)
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 13))
        k1 = int(rng.integers(0, d + 1))
        k2 = int(rng.integers(0, d - k1 + 1))
        if k1 + k2 < 1 or (k2 == 0 and k1 != d):
            continue
        score = (rng.integers(-4, 5, size=d).astype(float)
                 if rng.random() < 0.3 else rng.standard_normal(d))
        y = rng.standard_normal(d) * float(rng.choice([0.1, 1.0, 25.0]))
        p = SparsityParams(k1, k2, d)
        mean, var = rtop_enumerate(score, y, p)
        _require(np.max(np.abs(mean - y)) <= 1e-12, f"mean != y at {p}")
        expect = ((d - k1 - k2) / k2 * norm2_sq(top_neg_k1(score, y, k1))
                  if k2 else 0.0)
        _require(abs(var - expect) <= 1e-9 * max(expect, 1e-9),
                 f"variance {var} != closed form {expect} at {p}")
        checked += 1
    elapsed = time.time() - tic
    _require(elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s")
    return (f"200 instances exact (mean <=1e-12 abs, variance <=1e-9 rel) "
            f"in {elapsed:.1f}s")


def criterion_02_worked_example_bit_exact():
    """The seeded stream that draws random slot 1 on the textbook instance
    makes rtop reproduce (0, -96, 0, 0, 11) bit for bit, with enumerated
    variance 4542."""
    score = np.array([11.0, 12.0, 13.0, -14.0, -15.0])
    y = np.array([-25.0, -24.0, 13.0, 12.0, 11.0])
    p = SparsityParams(1, 1, 5)
    expect = np.array([0.0, -96.0, 0.0, 0.0, 11.0])
    top, rand = draw_support(score, p, RngStream(1, 3))
    _require(top.tolist() == [4] and rand.tolist() == [1], "seeded support")
    _require(np.array_equal(rtop(score, y, p, RngStream(1, 3)), expect),
             "seeded update")
    _, var = rtop_enumerate(score, y, p)
    _require(var == 4542.0, f"variance {var} != 4542")
    return "(0, -96, 0, 0, 11) reproduced bit-exactly; variance == 4542"


def criterion_03_entropy_base_pin():
    """Uniform memory over 308310 coordinates has 18.234 +- 0.001 bits."""
    tic = time.time()
    h = entropy_bits(np.ones(308_310))
    elapsed = time.time() - tic
    _require(abs(h - 18.234) <= 1e-3, f"entropy {h:.4f} bits != 18.234")
    _require(elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    return f"entropy_bits(uniform, d=308310) = {h:.4f}"


def criterion_04_meter_identity():
    """50 random completed runs: meter units equal the per-outer-loop cost
    sum min(B,n) + 2*b*N_j*(k1+k2)/d exactly, in rational arithmetic."""
    tic = time.time()
    rng = np.random.default_rng(404)
    a, b_vec, _ = gen_gaussian_ls(80, 12, seed=99)
    problem = LeastSquaresProblem(a, b_vec)
    for trial in range(50):
        big_b = int(rng.integers(2, 120))
        small_b = int(rng.integers(1, min(big_b, problem.n) + 1))
        k1 = int(rng.integers(0, problem.d))
        k2 = int(rng.integers(1, problem.d - k1 + 1))
        cfg = RunConfig(problem=problem, eta=0.05,
                        m=int(rng.integers(1, 7)), T=int(rng.integers(1, 7)),
                        B=big_b, b=small_b, alpha=float(rng.random()),
                        k1=k1, k2=k2,
                        theory=trial % 2 == 1,
                        seed=trial, record_grad_norm=False)
        _, record = run_sparse_spiderboost(cfg)
        _require(not record.aborted, f"trial {trial} aborted")
        expect = Fraction(0)
        for n_j in record.inner_lengths():
            expect += (Fraction(min(big_b, problem.n))
                       + Fraction(2 * small_b * (k1 + k2), problem.d) * n_j)
        _require(record.meter.units == expect,
                 f"trial {trial}: meter {record.meter.units} != {expect}")
    elapsed = time.time() - tic
    _require(elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    return f"50 runs with exact rational meter equality in {elapsed:.1f}s"


def criterion_05_dense_equivalence():
    """k1+k2 = d runs and the dense baseline reproduce plain SpiderBoost,
    replayed from the same batch stream, iterate for iterate and bit for
    bit, across 10 seeds on logistic desk problems."""
    tic = time.time()
    a, y = gen_logistic_blobs(200, 25, seed=55, separation=2.5)
    problem = LogisticProblem(a, y, ridge=0.01)
    for seed in range(10):
        cfg = RunConfig(problem=problem, eta=0.5, m=8, T=6, B=50, b=10,
                        alpha=0.5, k1=7, k2=problem.d - 7, seed=seed,
                        keep_iterates=True, record_grad_norm=False)
        want = spiderboost_replay(cfg)
        for run in (run_sparse_spiderboost, run_spiderboost_dense):
            _, record = run(cfg)
            _require(len(record.iterates) == len(want) == 6,
                     f"seed {seed}: iterate count")
            _require(all(map(_same_bits, record.iterates, want)),
                     f"seed {seed}: {run.__name__} differs from the replay")
    elapsed = time.time() - tic
    _require(elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    return (f"10 seeds, full-budget sparse and dense, bit-identical to a "
            f"SpiderBoost replay in {elapsed:.1f}s")


def criterion_08_geometrization_lemma():
    """Quadratic sequence check at m in {3, 10}: both estimates agree with
    the analytic value -(2m+1) within 5% at 10^6 trials."""
    tic = time.time()
    for m, stream in ((3.0, 31), (10.0, 32)):
        lhs, rhs = check_geom_lemma(m, lambda t: t.astype(float) ** 2,
                                    1_000_000, RngStream(808, stream))
        analytic = -(2.0 * m + 1.0)  # from E N^2 = 2m^2 + m
        _require(abs(lhs - analytic) <= 0.05 * abs(analytic), f"lhs {lhs:.3f}")
        _require(abs(rhs - analytic) <= 0.05 * abs(analytic), f"rhs {rhs:.3f}")
        _require(abs(lhs - rhs) <= 0.05 * abs(analytic), "lhs-rhs gap")
    elapsed = time.time() - tic
    _require(elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s")
    return (f"m in {{3, 10}} within 5% of -(2m+1) at 1e6 trials "
            f"in {elapsed:.1f}s")


def criterion_09_restricted_gradient_fidelity():
    """Every restricted oracle call of full sparse runs on every problem
    kind, from a seeded nonzero start, returns the dense batch gradient at
    its coordinates bit for bit (`run_with_checked_oracle`)."""
    tic = time.time()
    a, b_vec, _ = gen_planted_ls(300, 30, 4, seed=91)
    al, yl = gen_logistic_blobs(300, 30, seed=92)
    xs, labs = gen_class_blobs(120, 6, 3, seed=93)
    rows, cols, vals, _, _ = gen_low_rank_ratings(15, 12, 2, seed=94,
                                                  density=0.5)
    problems = [
        LeastSquaresProblem(a, b_vec, ridge=0.01),
        LogisticProblem(al, yl, ridge=0.01),
        MLPProblem([6, 10, 3], xs, labs),
        MatrixFactorizationProblem(rows, cols, vals, 15, 12, 2, ridge=0.01),
    ]
    for problem in problems:
        k1 = max(2, problem.d // 10)
        k2 = max(3, problem.d // 10)
        x0 = 0.3 * np.random.default_rng(9).standard_normal(problem.d)
        run_with_checked_oracle(RunConfig(
            problem=problem, eta=0.1, m=10, T=8, B=min(60, problem.n),
            b=min(12, problem.n), alpha=0.5, k1=k1, k2=k2, seed=7, x0=x0,
            record_grad_norm=False))
    elapsed = time.time() - tic
    _require(elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s")
    return (f"every restricted call == the dense gradient at its "
            f"coordinates, on all four problem kinds, in {elapsed:.1f}s")


def criterion_10_gradient_correctness():
    """Finite-difference agreement at the documented tolerances: 1e-6 for
    least squares and logistic, 1e-4 relative for the network."""
    tic = time.time()
    rng = np.random.default_rng(1001)

    a, b_vec, _ = gen_gaussian_ls(40, 8, seed=95)
    ls = LeastSquaresProblem(a, b_vec, ridge=0.02)
    al, yl = gen_logistic_blobs(40, 8, seed=96)
    lo = LogisticProblem(al, yl, ridge=0.02)
    for problem in (ls, lo):
        for _ in range(3):
            x = rng.standard_normal(problem.d)
            err = np.max(np.abs(problem.full_grad(x) - fd_grad(problem, x)))
            _require(err <= 1e-6, f"{type(problem).__name__} error {err:.1e}")

    xs, labs = gen_class_blobs(8, 4, 2, seed=97)
    mlp = MLPProblem([4, 2, 2], xs, labs)
    x = 0.8 * rng.standard_normal(mlp.d)
    g, fd = mlp.full_grad(x), fd_grad(mlp, x)
    rel = np.max(np.abs(g - fd)) / (np.max(np.abs(fd)) + 1e-12)
    _require(rel <= 1e-4, f"MLP rel error {rel:.1e}")

    rows, cols, vals, _, _ = gen_low_rank_ratings(8, 6, 2, seed=98,
                                                  density=0.5)
    mf = MatrixFactorizationProblem(rows, cols, vals, 8, 6, 2, ridge=0.01)
    x = rng.standard_normal(mf.d)
    g, fd = mf.full_grad(x), fd_grad(mf, x)
    rel_mf = np.max(np.abs(g - fd)) / (np.max(np.abs(fd)) + 1e-12)
    _require(rel_mf <= 1e-6, f"MF rel error {rel_mf:.1e}")
    elapsed = time.time() - tic
    _require(elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    return (f"finite differences agree (ls/logistic <=1e-6, "
            f"mlp rel {rel:.1e} <= 1e-4, mf rel {rel_mf:.1e} <= 1e-6) "
            f"in {elapsed:.1f}s")


CRITERIA = (
    criterion_01_operator_exactness,
    criterion_02_worked_example_bit_exact,
    criterion_03_entropy_base_pin,
    criterion_04_meter_identity,
    criterion_05_dense_equivalence,
    criterion_08_geometrization_lemma,
    criterion_09_restricted_gradient_fidelity,
    criterion_10_gradient_correctness,
)
