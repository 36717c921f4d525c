"""End-to-end acceptance suite: one test per release criterion.

Criteria 01-05 and 08-10 are defined in `sparsevr.checks`, which
`sparsevr check` also runs; 06 and 07 are statistical desk experiments
defined here.  Each test prints a PASS line with the measured quantity
once its requirements hold (run with `pytest -s` to see them).  Criteria
with runtime budgets are sized to finish comfortably inside them on a
laptop core.
"""

import math
import time

import numpy as np

from sparsevr import checks
from sparsevr.optimize import (HyperparamInputs, RunConfig,
                               run_sparse_spiderboost, run_spiderboost_dense,
                               worst_case_hyperparams)
from sparsevr.problems import (LeastSquaresProblem, estimate_constants,
                               gen_gaussian_ls, gen_planted_ls)


def _report(number, detail):
    print(f"PASS criterion {number}: {detail}")


def _criterion_test(criterion):
    def test():
        print(f"PASS {criterion.__name__}: {criterion()}")
    return test


for _criterion in checks.CRITERIA:  # test_criterion_NN_x runs criterion_NN_x
    globals()["test_" + _criterion.__name__] = _criterion_test(_criterion)


def test_criterion_06_worst_case_desk_guarantee():
    """Planted least squares (d=100, n=10^4, b=10, k1=k2=5), constants from
    the direct solve, worst-case rule at eps=0.1: the mean output gradient
    norm over 20 seeds in theory mode is at most eps."""
    tic = time.time()
    eps = 0.1
    a, b_vec, _ = gen_planted_ls(10_000, 100, 5, seed=606,
                                 signal_norm=1.0, tau=0.01, noise=0.05)
    problem = LeastSquaresProblem(a, b_vec)
    x_star, _ = problem.reference_minimum()
    x0 = np.zeros(100)
    consts = estimate_constants(
        problem, [x0, x_star, x_star + 2.0 * (x0 - x_star)])
    assert consts.f_star_exact
    frag = worst_case_hyperparams(HyperparamInputs(
        epsilon=eps, constants=consts, b=10, k1=5, k2=5, d=100, n=10_000))
    norms = []
    for seed in range(20):
        cfg = RunConfig(problem=problem, eta=frag["eta"], m=frag["m"],
                        T=frag["T"], B=frag["B"], b=10, alpha=0.5, k1=5, k2=5,
                        theory=True, seed=seed, record_grad_norm=False)
        x_out, record = run_sparse_spiderboost(cfg)
        assert not record.aborted
        norms.append(float(np.linalg.norm(problem.full_grad(x_out))))
    mean_norm = float(np.mean(norms))
    elapsed = time.time() - tic
    assert mean_norm <= eps
    assert elapsed < 300.0
    _report(6, f"mean ||grad f(x_out)|| = {mean_norm:.4f} <= {eps} "
               f"(B={frag['B']}, m={frag['m']}, T={frag['T']}) in {elapsed:.0f}s")


def test_criterion_07_sparsity_advantage():
    """On planted-sparse least squares (5 of 100 active): the sparse variant
    reaches the gradient-norm target with at most half the query units of
    the dense baseline (median over 20 paired seeds), and its residual
    capture measure is at most a tenth of the isotropic control's."""
    tic = time.time()
    eps = 0.004
    a, b_vec, _ = gen_planted_ls(4000, 100, 5, seed=707, signal_norm=1.0,
                                 tau=0.005, noise=0.02)
    planted = LeastSquaresProblem(a, b_vec)

    def units_to_target(runner, k1, k2, seed):
        cfg = RunConfig(problem=planted, eta=0.35, m=10, T=400, B=1000, b=100,
                        alpha=0.5, k1=k1, k2=k2, seed=seed,
                        target_grad_norm=eps)
        _, record = runner(cfg)
        last = record.rows[-1]
        assert last.grad_norm is not None and last.grad_norm <= eps
        return last.units

    ratios = []
    for seed in range(20):
        sparse_units = units_to_target(run_sparse_spiderboost, 5, 5, seed)
        dense_units = units_to_target(run_spiderboost_dense, 0, 100, seed)
        ratios.append(sparse_units / dense_units)
    median_ratio = float(np.median(ratios))
    assert median_ratio <= 0.5

    # capture measure vs an isotropic control of equal scale (same L by row
    # normalization, initial suboptimality matched through the signal norm)
    delta_p = planted.full_loss(np.zeros(100)) - planted.reference_minimum()[1]
    signal = math.sqrt(delta_p * 2 * 100)
    ac, bc, _ = gen_gaussian_ls(4000, 100, seed=808, signal_norm=signal,
                                noise=0.02)
    control = LeastSquaresProblem(ac, bc)
    delta_c = control.full_loss(np.zeros(100)) - control.reference_minimum()[1]
    assert abs(delta_c - delta_p) <= 0.1 * delta_p

    def mean_capture(problem, seed):
        cfg = RunConfig(problem=problem, eta=0.35, m=10, T=5, B=1000, b=100,
                        alpha=0.5, k1=5, k2=5, seed=seed, record_capture=True,
                        record_grad_norm=False)
        _, record = run_sparse_spiderboost(cfg)
        return float(np.mean([row.R for row in record.rows]))

    r_planted = float(np.mean([mean_capture(planted, s) for s in range(3)]))
    r_control = float(np.mean([mean_capture(control, s) for s in range(3)]))
    capture_ratio = r_planted / r_control
    elapsed = time.time() - tic
    assert capture_ratio <= 0.1
    assert elapsed < 600.0
    _report(7, f"median query ratio {median_ratio:.3f} <= 0.5; "
               f"capture ratio {capture_ratio:.4f} <= 0.1 in {elapsed:.0f}s")
