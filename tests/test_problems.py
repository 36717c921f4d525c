import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (BAD_LABELED_FILES, BAD_RATINGS_FILES, fd_grad,
                      long_gradient_descent)

from sparsevr import problems
from sparsevr.problems import (LeastSquaresProblem, LogisticProblem,
                               MatrixFactorizationProblem, MLPProblem,
                               estimate_constants, gen_class_blobs,
                               gen_gaussian_ls, gen_logistic_blobs,
                               gen_low_rank_ratings, gen_planted_ls,
                               load_labeled_dataset, load_ratings_dataset,
                               save_labeled_dataset, save_ratings_dataset)
from sparsevr.problems import _sigmoid


def all_desk_problems():
    a, b, _ = gen_gaussian_ls(24, 6, seed=1)
    ls = LeastSquaresProblem(a, b, ridge=0.01)
    al, yl = gen_logistic_blobs(24, 6, seed=2)
    lo = LogisticProblem(al, yl, ridge=0.01)
    xs, labs = gen_class_blobs(16, 4, 3, seed=3)
    mlp = MLPProblem([4, 5, 3], xs, labs)
    rows, cols, vals, _, _ = gen_low_rank_ratings(6, 5, 2, seed=4, density=0.5)
    mf = MatrixFactorizationProblem(rows, cols, vals, 6, 5, 2, ridge=0.01)
    return [ls, lo, mlp, mf]


def traced_peak(fn):
    """(bytes traced at the peak of fn(), its result); numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestLeastSquares:
    def test_identity_design_gradient_matches_fd(self):
        # f(x) = (x1^2 + x2^2)/4 under the 1/n averaging, so grad = x/2;
        # the finite-difference oracle fixes the expected value.
        p = LeastSquaresProblem(np.eye(2), np.zeros(2), ridge=0.0)
        x = np.array([3.0, 4.0])
        fd = fd_grad(p, x)
        np.testing.assert_allclose(fd, [1.5, 2.0], atol=1e-8)
        np.testing.assert_allclose(p.full_grad(x), fd, atol=1e-8)

    def test_gradient_vanishes_at_lstsq_solution(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        p = LeastSquaresProblem(a, b, ridge=0.0)
        assert np.linalg.norm(p.full_grad(x_star)) <= 1e-8

    def test_reference_minimum_agrees_with_lstsq(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((30, 5))
        b = rng.standard_normal(30)
        p = LeastSquaresProblem(a, b, ridge=0.0)
        x_ref, f_ref = p.reference_minimum()
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(x_ref, x_star, atol=1e-8)
        assert f_ref <= p.full_loss(np.zeros(5))

    def test_restricted_is_masked_batch(self):
        p = LeastSquaresProblem(np.eye(3), np.arange(3.0), ridge=0.1)
        idx = np.array([0, 2])
        x = np.array([1.0, -2.0, 0.5])
        dense = p.grad_batch(idx, x)
        coords = np.array([0])
        restricted = p.grad_batch_restricted(idx, x, coords)
        assert restricted.shape == (1,)
        assert np.array_equal(dense[coords], restricted)

    def test_fd_agreement(self):
        rng = np.random.default_rng(7)
        a, b, _ = gen_gaussian_ls(20, 6, seed=8)
        p = LeastSquaresProblem(a, b, ridge=0.05)
        for _ in range(3):
            x = rng.standard_normal(6)
            np.testing.assert_allclose(p.full_grad(x), fd_grad(p, x), atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LeastSquaresProblem(np.eye(3), np.zeros(2))


class TestLogistic:
    def test_gradient_at_zero(self):
        a, y = gen_logistic_blobs(30, 5, seed=9)
        p = LogisticProblem(a, y, ridge=0.0)
        expect = -(a * y[:, None]).mean(axis=0) / 2.0  # sigmoid(0) = 1/2
        np.testing.assert_allclose(p.full_grad(np.zeros(5)), expect, atol=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LogisticProblem(np.eye(2), np.array([0.0, 1.0]))

    def test_fd_agreement(self):
        rng = np.random.default_rng(10)
        a, y = gen_logistic_blobs(25, 6, seed=11)
        p = LogisticProblem(a, y, ridge=0.02)
        for _ in range(3):
            x = rng.standard_normal(6)
            assert np.max(np.abs(p.full_grad(x) - fd_grad(p, x))) <= 1e-6

    def test_gradient_norm_tiny_at_gd_optimum(self):
        # separable blobs with ridge: the long full-gradient-descent oracle
        # finds a minimizer with negligible gradient
        a, y = gen_logistic_blobs(40, 4, seed=12, separation=4.0)
        p = LogisticProblem(a, y, ridge=0.05)
        x_hat = long_gradient_descent(p, tol=1e-9)
        assert np.linalg.norm(p.full_grad(x_hat)) <= 1e-6

    def test_loss_is_stable_for_huge_margins(self):
        a = np.array([[1000.0], [-1000.0]])
        y = np.array([1.0, -1.0])
        p = LogisticProblem(a, y)
        assert math.isfinite(p.full_loss(np.array([5.0])))
        assert math.isfinite(p.full_loss(np.array([-5.0])))


class TestMLP:
    def test_fd_agreement_4_2_2(self):
        xs, labs = gen_class_blobs(8, 4, 2, seed=13)
        p = MLPProblem([4, 2, 2], xs, labs)
        rng = np.random.default_rng(14)
        x = 0.7 * rng.standard_normal(p.d)
        g, fd = p.full_grad(x), fd_grad(p, x)
        rel = np.max(np.abs(g - fd)) / (np.max(np.abs(fd)) + 1e-12)
        assert rel <= 1e-4

    def test_restricted_in_the_loops_block_order(self):
        # Per layer: top slots then random slots, each ascending, so the
        # coords are unsorted and mix weights and biases of both layers.
        xs, labs = gen_class_blobs(10, 3, 2, seed=15)
        # weights 0..11 and biases 12..15, then weights 16..23 and biases 24, 25
        p = MLPProblem([3, 4, 2], xs, labs)
        rng = np.random.default_rng(20)
        x = rng.standard_normal(p.d)
        idx = np.array([0, 3, 8])
        coords = np.array([2, 13, 7, 12, 14, 17, 24, 19, 25])
        restricted = p.grad_batch_restricted(idx, x, coords)
        assert restricted.shape == (len(coords),)
        assert np.array_equal(p.grad_batch(idx, x)[coords], restricted)

    def test_sample_permutation_invariance(self):
        xs, labs = gen_class_blobs(12, 3, 2, seed=17)
        p1 = MLPProblem([3, 4, 2], xs, labs)
        perm = np.random.default_rng(18).permutation(12)
        p2 = MLPProblem([3, 4, 2], xs[perm], labs[perm])
        rng = np.random.default_rng(19)
        x = rng.standard_normal(p1.d)
        np.testing.assert_allclose(p1.full_grad(x), p2.full_grad(x), atol=1e-12)

    def test_param_blocks_tile_the_vector(self):
        xs, labs = gen_class_blobs(6, 5, 3, seed=20)
        p = MLPProblem([5, 7, 3], xs, labs)
        blocks = p.param_blocks()
        assert blocks[0][0] == 0 and blocks[-1][1] == p.d
        for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
            assert hi == lo

    def test_rejects_mismatched_data(self):
        with pytest.raises(ValueError):
            MLPProblem([3, 2, 2], np.zeros((4, 5)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            MLPProblem([3, 2], np.zeros((4, 3)), np.zeros(4, dtype=int))


def masked_sigmoid(z):
    """The masked-gather sigmoid that `_sigmoid` replaced, kept as the
    reference for its bits."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def copyto_sigmoid(z):
    """`_sigmoid` as it was when a masked copy set the numerator to 1 where
    z >= 0, kept as the reference for the bits of its max form."""
    pos = z >= 0
    e = np.exp(-np.abs(z))
    den = e + 1.0
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, den, out=e)


def per_layer_mlp(p, idx, x, coords=None):
    """The MLP oracle as it was before the one-buffer kernels, kept as the
    reference for their bits: masked sigmoid, `z @ w + b`, deltas
    `(G @ W.T) * z * (1 - z)`, per-layer sums copied piece by piece into a
    fresh zeros(d), and, for `coords`, one mask pass per piece.  Returns
    (loss, gradient), or the gradient's values at `coords`."""
    params = [(x[w_lo:w_hi].reshape(nin, nout), x[b_lo:b_hi])
              for w_lo, w_hi, b_lo, b_hi, nin, nout in p._layout]
    acts = [p.X[idx]]
    for li, (w, b) in enumerate(params):
        a = acts[-1] @ w + b
        acts.append(a if li == len(params) - 1 else masked_sigmoid(a))
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    rows = np.arange(len(logp))
    loss = float(-np.mean(logp[rows, p.labels[idx]]))
    deltas = [None] * len(params)
    deltas[-1] = np.exp(logp)
    deltas[-1][rows, p.labels[idx]] -= 1.0
    for li in range(len(params) - 2, -1, -1):
        z = acts[li + 1]
        deltas[li] = (deltas[li + 1] @ params[li + 1][0].T) * z * (1.0 - z)
    sums = [(w_lo, b_lo, (acts[li].T @ deltas[li]).ravel(),
             deltas[li].sum(axis=0))
            for li, (w_lo, _, b_lo, _, _, _) in enumerate(p._layout)]
    scale = 1.0 / len(rows)
    if coords is None:
        grad = np.zeros(p.d)
        for w_lo, b_lo, gw, gb in sums:
            np.multiply(gw, scale, out=grad[w_lo:b_lo])
            np.multiply(gb, scale, out=grad[b_lo:b_lo + gb.size])
        return loss, grad
    out = np.empty(coords.size)
    for w_lo, b_lo, gw, gb in sums:
        for lo, g in ((w_lo, gw), (b_lo, gb)):
            at = np.flatnonzero((coords >= lo) & (coords < lo + g.size))
            out[at] = g[coords[at] - lo] * scale
    return out


def block_order_coords(p, rng, per_block):
    """Coordinates as the sparse loop passes them: per parameter block, a
    sorted "top" set, then a sorted disjoint "random" set."""
    parts = []
    for lo, hi in p.param_blocks():
        pick = rng.choice(hi - lo, size=min(2 * per_block, hi - lo), replace=False)
        half = pick.size // 2
        parts += [lo + np.sort(pick[:half]), lo + np.sort(pick[half:])]
    return np.concatenate(parts)


class TestSameBitsAsTheMaskedKernels:
    """The branch-free sigmoid and the one-buffer MLP kernels give the bits
    of the formulations they replaced."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0,
               1e308, -1e308, 709.78, -709.78, 36.8, -36.8, 5e-324, -5e-324]

    def test_sigmoid_sweep(self):
        rng = np.random.default_rng(48)
        chunks = [np.array(self.SPECIAL)]
        for exponent in range(-10, 7):   # 17 scales x 300,000 values
            chunks.append(rng.standard_normal(300_000) * 10.0 ** exponent)
        with np.errstate(over="raise", invalid="raise"):
            for z in chunks:
                want = masked_sigmoid(z)
                assert _sigmoid(z).tobytes() == want.tobytes()
                aliased = z.copy()
                assert _sigmoid(aliased, out=aliased) is aliased
                assert aliased.tobytes() == want.tobytes()
            block = chunks[5][:2560].reshape(10, 256)   # a hidden layer's shape
            assert _sigmoid(block).tobytes() == masked_sigmoid(block).tobytes()

    def test_max_numerator_has_the_masked_copy_bits(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308,
                            -2.2e-308, 745.0, -745.0, 1e308, -1e308])
        rng = np.random.default_rng(51)
        for z in (special, rng.standard_normal(200_000) * 40.0,
                  rng.standard_normal(1_000) * 1e-310,   # subnormal
                  rng.standard_normal((10, 256))):       # a hidden layer
            want = copyto_sigmoid(z)
            assert _sigmoid(z).tobytes() == want.tobytes()
            aliased = z.copy()
            assert _sigmoid(aliased, out=aliased).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layers", [[6, 9, 4], [6, 9, 7, 4]],
                             ids=["one-hidden", "two-hidden"])
    @pytest.mark.parametrize("b", [1, 10, 40])
    def test_mlp_oracles(self, layers, b):
        xs, labs = gen_class_blobs(40, 6, 4, seed=49)
        p = MLPProblem(layers, xs, labs)
        rng = np.random.default_rng(50 + b)
        for trial in range(5):
            # large weights put hidden units in both tails of the sigmoid
            x = (0.5 + trial) * rng.standard_normal(p.d)
            idx = (slice(None) if b == p.n else
                   np.sort(rng.choice(p.n, size=b, replace=False)))
            loss, grad = per_layer_mlp(p, idx, x)
            fused_loss, fused_grad = p.loss_grad_batch(idx, x)
            assert fused_loss == loss
            assert fused_grad.tobytes() == grad.tobytes()
            assert p.grad_batch(idx, x).tobytes() == grad.tobytes()
            coords = block_order_coords(p, rng, per_block=3)
            assert (p.grad_batch_restricted(idx, x, coords).tobytes()
                    == per_layer_mlp(p, idx, x, coords).tobytes())


class TestMatrixFactorization:
    def test_planted_factors_have_zero_loss(self):
        rows, cols, vals, pf, qf = gen_low_rank_ratings(5, 4, 1, seed=21,
                                                        density=0.6)
        p = MatrixFactorizationProblem(rows, cols, vals, 5, 4, 1, ridge=0.0)
        x = np.concatenate([pf.ravel(), qf.ravel()])
        assert p.full_loss(x) <= 1e-24

    def test_fd_agreement(self):
        rows, cols, vals, _, _ = gen_low_rank_ratings(6, 5, 2, seed=22,
                                                      density=0.5)
        p = MatrixFactorizationProblem(rows, cols, vals, 6, 5, 2, ridge=0.01)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(p.d)
        g, fd = p.full_grad(x), fd_grad(p, x)
        rel = np.max(np.abs(g - fd)) / (np.max(np.abs(fd)) + 1e-12)
        assert rel <= 1e-6

    def test_single_observation_touches_2r_coordinates(self):
        p = MatrixFactorizationProblem([1], [2], [0.7], 3, 4, 2, ridge=0.0)
        rng = np.random.default_rng(24)
        x = rng.standard_normal(p.d)
        g = p.full_grad(x)
        assert np.count_nonzero(g) <= 4
        support = set(np.flatnonzero(g).tolist())
        expect = {1 * 2, 1 * 2 + 1, 3 * 2 + 2 * 2, 3 * 2 + 2 * 2 + 1}
        assert support <= expect

    def test_duplicate_batch_rows_accumulate(self):
        p = MatrixFactorizationProblem([0, 0], [1, 1], [0.3, 0.3], 2, 2, 1)
        rng = np.random.default_rng(25)
        x = rng.standard_normal(p.d)
        both = p.grad_batch(np.array([0, 1]), x)
        single = p.grad_batch(np.array([0]), x)
        np.testing.assert_allclose(both, single, atol=1e-14)

    def test_rejects_empty_ratings(self):
        with pytest.raises(ValueError):
            MatrixFactorizationProblem([], [], [], 2, 2, 1)


class TestOracleConsistency:
    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_batch_equals_mean_of_singletons(self, problem):
        rng = np.random.default_rng(26)
        x = 0.5 * rng.standard_normal(problem.d)
        idx = rng.choice(problem.n, size=min(8, problem.n), replace=False)
        batch = problem.grad_batch(idx, x)
        singles = np.mean([problem.grad_batch(np.array([i]), x) for i in idx],
                          axis=0)
        np.testing.assert_allclose(batch, singles, atol=1e-10)

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_grad_components_match_singleton_batches(self, problem):
        rng = np.random.default_rng(27)
        x = 0.5 * rng.standard_normal(problem.d)
        idx = rng.choice(problem.n, size=min(6, problem.n), replace=False)
        comps = problem.grad_components(idx, x)
        for row, i in zip(comps, idx):
            np.testing.assert_allclose(
                row, problem.grad_batch(np.array([i]), x), atol=1e-12)

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_restricted_equals_masked_dense(self, problem):
        rng = np.random.default_rng(28)
        for _ in range(100):
            x = 0.5 * rng.standard_normal(problem.d)
            size = int(rng.integers(1, min(8, problem.n) + 1))
            idx = rng.choice(problem.n, size=size, replace=False)
            k = int(rng.integers(1, problem.d + 1))
            coords = np.sort(rng.choice(problem.d, size=k, replace=False))
            restricted = problem.grad_batch_restricted(idx, x, coords)
            assert restricted.shape == (len(coords),)
            assert np.array_equal(problem.grad_batch(idx, x)[coords], restricted)

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_restricted_full_mask_equals_dense(self, problem):
        # The dense gradient is the restricted one at full support.
        rng = np.random.default_rng(16)
        for size in (1, 3, problem.n):
            x = rng.standard_normal(problem.d)
            idx = np.sort(rng.choice(problem.n, size=size, replace=False))
            restricted = problem.grad_batch_restricted(idx, x,
                                                       np.arange(problem.d))
            assert (restricted.tobytes()
                    == problem.grad_batch(idx, x).tobytes())

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_full_loss_matches_component_mean(self, problem):
        rng = np.random.default_rng(29)
        x = 0.5 * rng.standard_normal(problem.d)
        mean = np.mean([problem.loss_batch([i], x) for i in range(problem.n)])
        assert abs(problem.full_loss(x) - mean) <= 1e-10

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_full_data_oracles_equal_batch_over_all_rows(self, problem):
        rng = np.random.default_rng(45)
        x = 0.5 * rng.standard_normal(problem.d)
        every = np.arange(problem.n)
        assert np.array_equal(problem.full_grad(x), problem.grad_batch(every, x))
        assert problem.full_loss(x) == problem.loss_batch(every, x)

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_negative_component_index(self, problem):
        x = 0.5 * np.random.default_rng(46).standard_normal(problem.d)
        assert (problem.loss_batch([-1], x)
                == problem.loss_batch([problem.n - 1], x))


class TestFusedOracle:
    """loss_grad_batch(idx, x) is (loss_batch(idx, x), grad_batch(idx, x)),
    bit for bit, for every kind of selection."""

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_equals_separate_kernels(self, problem):
        rng = np.random.default_rng(47)
        x = 0.5 * rng.standard_normal(problem.d)
        selections = [slice(None),
                      np.sort(rng.choice(problem.n, size=5, replace=False)),
                      np.array([problem.n - 2])]
        if isinstance(problem, MatrixFactorizationProblem):
            selections.append(np.array([1, 4, 4, 0, 1, 4]))
        for idx in selections:
            loss, grad = problem.loss_grad_batch(idx, x)
            assert loss == problem.loss_batch(idx, x)
            assert np.array_equal(grad, problem.grad_batch(idx, x))

    @pytest.mark.parametrize("problem", all_desk_problems(),
                             ids=lambda p: type(p).__name__)
    def test_no_problem_class_defines_a_public_oracle(self, problem):
        # Every public oracle is composed in FiniteSumProblem from one
        # `_pass`; a class of its own would be a second pass to keep in step.
        oracles = {"loss_batch", "grad_batch", "grad_batch_restricted",
                   "loss_grad_batch", "grad_components", "full_loss",
                   "full_grad"}
        mro = type(problem).__mro__
        for cls in mro[:mro.index(problems.FiniteSumProblem)]:
            assert not oracles & set(vars(cls)), cls.__name__


class LinearModelTiles:
    """Every pass of a linear model goes over its rows in tiles.  With
    TILE_FLOATS cut to a few rows, every selection below spans several
    tiles; at four-row tiles the selections of 37 and 29 rows end in a lone
    row that joins the tile before it.  The products are small enough for
    the BLAS to run them on one thread.  The residuals are phi's
    derivatives w_i in a_i.x, which the gradient sum and the components
    read.  A subclass names the model: `make(a, b, ridge)` builds it on the
    least-squares data (a, b), and `untiled` gives the products, residuals,
    loss and gradient of one product over the rows."""

    N, D, RIDGE = 37, 7, 0.05

    @classmethod
    def problem(cls):
        a, b, _ = gen_gaussian_ls(cls.N, cls.D, seed=60)
        return cls.make(a, b, ridge=cls.RIDGE)

    def selections(self, rng):
        return [slice(None), slice(2, None, 3),
                np.sort(rng.choice(self.N, size=23, replace=False)),
                rng.integers(0, self.N, size=29),   # unsorted, with repeats
                list(range(0, self.N, 2))]

    def test_a_gathered_pass_holds_one_tile(self):
        # 1,000 rows at d = 1,000 are eight gathered tiles of up to
        # 1,024,000 bytes; the pass frees each before gathering the next.
        a, b, _ = gen_gaussian_ls(1_200, 1_000, seed=62)
        p = self.make(a, b)
        rng = np.random.default_rng(63)
        idx = np.sort(rng.choice(p.n, size=1_000, replace=False))
        x = rng.standard_normal(p.d)
        peak, _ = traced_peak(lambda: p.grad_batch(idx, x))
        assert peak < problems.TILE_FLOATS * 8 + 2 ** 16

    @pytest.mark.parametrize("rows", [1, 4, 10])
    def test_residuals_and_loss_are_the_untiled_bits(self, monkeypatch, rows):
        monkeypatch.setattr(problems, "TILE_FLOATS", rows * self.D)
        p, rng = self.problem(), np.random.default_rng(61)
        for _ in range(10):
            x = rng.standard_normal(self.D)
            for idx in self.selections(rng):
                z, w, loss, grad = self.untiled(p, idx, x)
                _, _, tiled_z, _, tiled_w, _ = p._state(idx, x)
                assert tiled_z.tobytes() == z.tobytes()
                assert tiled_w.tobytes() == w.tobytes()
                fused_loss, fused_grad = p.loss_grad_batch(idx, x)
                assert fused_loss == loss == p.loss_batch(idx, x)
                err = np.max(np.abs(fused_grad - grad))
                assert err <= 1e-12 * np.max(np.abs(grad))

    @pytest.mark.parametrize("rows", [1, 4, 10])
    def test_every_gradient_oracle_reads_one_sum(self, monkeypatch, rows):
        monkeypatch.setattr(problems, "TILE_FLOATS", rows * self.D)
        p, rng = self.problem(), np.random.default_rng(62)
        summed_in_tiles = False
        for _ in range(10):
            x = rng.standard_normal(self.D)
            assert (p.full_grad(x).tobytes()
                    == p.grad_batch(np.arange(self.N), x).tobytes())
            for idx in self.selections(rng):
                dense = p.grad_batch(idx, x)
                assert p.loss_grad_batch(idx, x)[1].tobytes() == dense.tobytes()
                coords = rng.permutation(self.D)[:int(rng.integers(1, self.D + 1))]
                assert (p.grad_batch_restricted(idx, x, coords).tobytes()
                        == dense[coords].tobytes())
                summed_in_tiles |= not np.array_equal(dense,
                                                      self.untiled(p, idx, x)[3])
        # the sums really were taken tile by tile: some differ in low bits
        assert summed_in_tiles

    def test_one_tile_is_the_one_product(self, monkeypatch):
        monkeypatch.setattr(problems, "TILE_FLOATS", 8 * self.D)
        p, rng = self.problem(), np.random.default_rng(63)
        for size in (1, 2, 5, 8, 9):   # 9 rows: 8 plus a lone last row
            x = rng.standard_normal(self.D)
            idx = rng.choice(self.N, size=size, replace=False)
            _, _, loss, grad = self.untiled(p, idx, x)
            assert p.loss_grad_batch(idx, x)[0] == loss
            assert p.grad_batch(idx, x).tobytes() == grad.tobytes()
            coords = rng.permutation(self.D)[:3]
            assert (p.grad_batch_restricted(idx, x, coords).tobytes()
                    == grad[coords].tobytes())

    def test_an_inner_batch_of_the_benchmark_shape_is_one_tile(self):
        # 100 rows at d = 1,000, as in the ls-target workload's inner steps
        a, b, _ = gen_planted_ls(120, 1000, s_active=10, seed=64, tau=0.005)
        p = self.make(a, b)
        rng = np.random.default_rng(65)
        x, idx = rng.standard_normal(1000), rng.choice(120, size=100, replace=False)
        want = self.untiled(p, idx, x)[3]
        assert p.grad_batch(idx, x).tobytes() == want.tobytes()

    def test_loss_oracles_agree_above_the_blas_threading_threshold(self):
        # At the default TILE_FLOATS and 1,099 x 1,000, a pass spans nine
        # tiles and each tile's products are large enough for a threaded
        # BLAS to split; the loss-only and the fused oracle run the same
        # products, so they agree at any thread count.
        a, b, _ = gen_gaussian_ls(1099, 1000, seed=67)
        p = self.make(a, b, ridge=self.RIDGE)
        rng = np.random.default_rng(68)
        for _ in range(3):
            x = rng.standard_normal(1000)
            for idx in (slice(None), rng.integers(0, 1099, size=1000)):
                loss, grad = p.loss_grad_batch(idx, x)
                assert loss == p.loss_batch(idx, x)
                assert grad.tobytes() == p.grad_batch(idx, x).tobytes()
            assert p.loss_grad_batch(slice(None), x)[0] == p.full_loss(x)

    def test_a_loss_pass_takes_no_derivative(self, monkeypatch):
        # The loss reads only the products; the derivatives and the
        # gradient sum are the gradient oracles' alone.
        monkeypatch.setattr(problems, "TILE_FLOATS", 4 * self.D)
        p, rng = self.problem(), np.random.default_rng(69)
        x = rng.standard_normal(self.D)
        gathered = rng.integers(0, self.N, size=29)
        want = [self.untiled(p, idx, x)[2]
                for idx in (slice(None), gathered, slice(2, None, 3))]

        def no_dphi(z, t):
            raise AssertionError("phi's derivative was taken")

        monkeypatch.setattr(p, "_dphi", no_dphi)
        assert [p.full_loss(x), p.loss_batch(gathered, x),
                p.loss_batch(slice(2, None, 3), x)] == want
        with pytest.raises(AssertionError, match="derivative"):
            p.grad_batch(gathered, x)

    def test_components_read_the_tiled_residuals(self, monkeypatch):
        monkeypatch.setattr(problems, "TILE_FLOATS", 4 * self.D)
        p, rng = self.problem(), np.random.default_rng(66)
        x = rng.standard_normal(self.D)
        for idx in self.selections(rng):
            w = self.untiled(p, idx, x)[1]
            want = p.A[idx] * w[:, None] + self.RIDGE * x[None, :]
            assert p.grad_components(idx, x).tobytes() == want.tobytes()


class TestLeastSquaresTiles(LinearModelTiles):
    @staticmethod
    def make(a, b, ridge=0.0):
        return LeastSquaresProblem(a, b, ridge)

    @staticmethod
    def untiled(p, idx, x):
        sub = p.A[idx]
        z = sub @ x
        r = z - p.targets[idx]
        loss = 0.5 * float(r @ r) / len(r) + 0.5 * p.ridge * float(x @ x)
        return z, r, loss, sub.T @ r / len(r) + p.ridge * x


class TestLogisticTiles(LinearModelTiles):
    @staticmethod
    def make(a, b, ridge=0.0):
        """Labels: the signs of the least-squares targets."""
        return LogisticProblem(a, np.where(b >= 0, 1.0, -1.0), ridge)

    @staticmethod
    def untiled(p, idx, x):
        """The oracles as logistic regression ran them before it shared the
        tiled pass: the margins y * (A[idx] @ x), their weights and one
        product A[idx].T @ w."""
        sub, y = p.A[idx], p.targets[idx]
        z = sub @ x
        margins = y * z
        w = -y * _sigmoid(-margins)
        loss = (float(np.mean(np.logaddexp(0.0, -margins)))
                + 0.5 * p.ridge * float(x @ x))
        return z, w, loss, sub.T @ w / len(w) + p.ridge * x


class TestRowTiles:
    @pytest.mark.parametrize("width", [1, 7, 256, 1_000, 4_096, 131_075])
    def test_every_row_once_in_tiles_of_four_rows(self, width):
        step = max(4, problems.TILE_FLOATS // width // 4 * 4)
        for m in sorted({0, 1, 2, 3, 4, 5, step - 1, step, step + 1,
                         step + 2, 2 * step + 1, 3 * step + 5}):
            tiles = list(problems._row_tiles(m, width))
            assert [i for lo, hi in tiles for i in range(lo, hi)] == list(range(m))
            for lo, hi in tiles[:-1]:
                assert hi - lo == step and step % 4 == 0
                assert step * width <= problems.TILE_FLOATS or step == 4
            if tiles:
                last = tiles[-1][1] - tiles[-1][0]
                assert last <= step + 1
                assert last > 1 or m == 1   # no lone last row


class TestMLPTiles:
    """The network's forward pass goes over row tiles.  At mlp-wide's shape
    (2,000 x 784 inputs, 256 hidden units) a tile is 512 rows, so the
    full-data pass is four tiles; at [6, 4096, 3] a tile is 32 rows, so 203
    rows are seven tiles, the last of 11 rows."""

    MIB = 2 ** 20

    @pytest.fixture(scope="class")
    def wide(self):
        xs, labs = gen_class_blobs(2_000, 784, 10, seed=70, separation=20.0)
        xs /= 28.0
        p = MLPProblem([784, 256, 10], xs, labs)
        return p, 0.05 * np.random.default_rng(71).standard_normal(p.d)

    @staticmethod
    def small():
        xs, labs = gen_class_blobs(203, 6, 3, seed=72)
        return MLPProblem([6, 4096, 3], xs, labs)

    def test_the_shapes_span_several_tiles(self, wide):
        assert [hi - lo for lo, hi in wide[0]._tiles(2_000)] == [512] * 3 + [464]
        assert [hi - lo for lo, hi in wide[0]._tiles(513)] == [513]
        tiles = [hi - lo for lo, hi in self.small()._tiles(203)]
        assert tiles == [32] * 6 + [11]

    def test_a_loss_pass_holds_one_tile(self, wide):
        # The untiled pass held the hidden activations and the sigmoid's
        # denominator, each 2,000 x 256: 8.37 MiB.
        p, x = wide
        peak, _ = traced_peak(lambda: p.full_loss(x))
        assert peak <= 4 * self.MIB
        # an index array is gathered one 512 x 784 tile at a time
        idx = np.random.default_rng(73).permutation(p.n)
        peak, _ = traced_peak(lambda: p.loss_batch(idx, x))
        assert peak <= 4 * self.MIB + 512 * 784 * 8

    def test_a_gradient_pass_holds_its_layers_and_one_tile(self, wide):
        # The pass writes each tile into the per-layer arrays that backprop
        # reads, so it holds them plus one tile's sigmoid temporaries (1.2
        # MiB); tiles concatenated afterwards would hold the layers twice,
        # and the untiled pass peaked at 8.37 MiB.
        p, x = wide
        idx = np.sort(np.random.default_rng(74).choice(p.n, 1_100,
                                                       replace=False))
        for sel, held_inputs in ((slice(None), False), (idx, True)):
            peak, (_, _, acts, logp, _) = traced_peak(lambda: p._state(sel, x))
            held = sum(a.nbytes for a in acts[0 if held_inputs else 1:])
            assert peak <= held + logp.nbytes + 1.5 * self.MIB
        # The whole oracles, against the untiled pass's 12.18 MiB (full
        # data) and 13.29 MiB (1,100 gathered rows).  Backprop applies its
        # 1 - z factor one row block at a time; a full-size 1 - z
        # temporary reads 12.03 and 13.20 MiB.
        peak, _ = traced_peak(lambda: p.loss_grad_batch(slice(None), x))
        assert peak <= 10 * self.MIB
        peak, _ = traced_peak(lambda: p.grad_batch(idx, x))
        assert peak <= 12.75 * self.MIB

    def test_components_are_the_outer_products_written_in_place(self, wide):
        # The einsum form built a rows x d temporary beside its zeros(d)
        # output: 62.3 MiB at a 20-row chunk.
        p, x = wide
        idx = np.arange(20, 40)
        peak, comps = traced_peak(lambda: p.grad_components(idx, x))
        assert peak <= comps.nbytes + self.MIB
        state = p._state(idx, x)
        acts, deltas = state[2], p._deltas(state)
        want = np.zeros((20, p.d))
        for (w_lo, w_hi, b_lo, b_hi, _, _), a, delta in zip(p._layout, acts,
                                                            deltas):
            want[:, w_lo:w_hi] = np.einsum("bi,bj->bij", a, delta).reshape(20, -1)
            want[:, b_lo:b_hi] = delta
        assert comps.tobytes() == want.tobytes()

    def selections(self, rng, n):
        return [slice(None), slice(3, None, 2),
                np.sort(rng.choice(n, size=150, replace=False)),
                rng.integers(0, n, size=180),   # unsorted, with repeats
                list(range(0, n, 3))]

    def test_multi_tile_oracles_agree_bit_for_bit(self):
        p, rng = self.small(), np.random.default_rng(75)
        with pytest.raises(ValueError, match="dimension mismatch"):
            p.loss_batch(slice(None), np.zeros(p.d + 1))
        for trial in range(3):
            x = (0.5 + trial) * rng.standard_normal(p.d) / 8.0
            assert p.full_loss(x) == p.loss_batch(np.arange(p.n), x)
            assert (p.full_grad(x).tobytes()
                    == p.grad_batch(np.arange(p.n), x).tobytes())
            for idx in self.selections(rng, p.n):
                loss = p.loss_batch(idx, x)
                dense = p.grad_batch(idx, x)
                fused_loss, fused_grad = p.loss_grad_batch(idx, x)
                assert fused_loss == loss
                assert fused_grad.tobytes() == dense.tobytes()
                for coords in (block_order_coords(p, rng, per_block=40),
                               rng.permutation(p.d)[:500]):
                    assert (p.grad_batch_restricted(idx, x, coords).tobytes()
                            == dense[coords].tobytes())
                # the tiles change at most the last bits of one product
                want_loss, want_grad = per_layer_mlp(p, idx, x)
                assert loss == pytest.approx(want_loss, rel=1e-13)
                assert (np.max(np.abs(dense - want_grad))
                        <= 1e-12 * np.max(np.abs(want_grad)))


class TestRejectsNonFiniteData:
    def test_least_squares(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            LeastSquaresProblem(np.eye(2), np.array([0.0, np.inf]))

    def test_logistic(self):
        a = np.eye(2)
        a[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            LogisticProblem(a, np.array([1.0, -1.0]))

    def test_mlp(self):
        xs = np.zeros((4, 3))
        xs[2, 1] = -np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            MLPProblem([3, 2, 2], xs, np.zeros(4, dtype=int))

    def test_matrix_factorization(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            MatrixFactorizationProblem([0, 1], [1, 0], [0.5, np.nan], 2, 2, 1)


class TestRowBlockedChecks:
    """The finiteness check and the smoothness hints read the data one row
    block at a time, so on a 4000 x 500 matrix (16 MB) neither holds a
    transient the size of the data; the hints keep their bits."""

    @pytest.fixture
    def data(self):
        return np.random.default_rng(52).standard_normal((4000, 500))

    def test_require_finite_peak(self, data):
        # One block's mask: 262 rows x 500 bools, against 2,000,000 for a
        # mask of the whole matrix.
        peak, _ = traced_peak(lambda: problems._require_finite(data))
        assert peak < 2 ** 20

    @pytest.mark.parametrize("at", [(0, 0), (3929, 499), (3930, 0),
                                    (3999, 499)],
                             ids=["first", "end-of-block", "last-block",
                                  "last"])
    def test_require_finite_sees_every_block(self, data, at):
        data[at] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            problems._require_finite(np.zeros(3), data)

    @pytest.mark.parametrize("cls, scale", [(LeastSquaresProblem, 1.0),
                                            (LogisticProblem, 0.25)],
                             ids=["least-squares", "logistic"])
    def test_smoothness_hint_peak_and_bits(self, data, cls, scale):
        data[3999] *= 3.0   # the largest row is in the ragged last block
        p = cls(data, np.ones(len(data)), ridge=0.01)
        peak, hint = traced_peak(p.smoothness_hint)
        assert hint == scale * float(np.max(np.sum(data * data, axis=1))) + 0.01
        assert peak < 2 * 2 ** 20


class TestBatchMeanVarianceBound:
    def test_enumerated_variance_below_population_bound(self):
        # exact enumeration over all size-b subsets of a tiny population
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            b = int(rng.integers(1, n + 1))
            d = int(rng.integers(1, 5))
            z = rng.standard_normal((n, d))
            subsets = list(itertools.combinations(range(n), b))
            means = np.array([z[list(s)].mean(axis=0) for s in subsets])
            variance = float(np.sum(means.var(axis=0)))
            bound = (0.0 if b == n
                     else (1.0 / b) * float(np.mean(np.sum(z * z, axis=1))))
            assert variance <= bound + 1e-12


class TestEstimateConstants:
    def test_identity_design_lipschitz_hint(self):
        p = LeastSquaresProblem(np.eye(4), np.zeros(4), ridge=0.5)
        consts = estimate_constants(p, [np.zeros(4)])
        assert consts.L == pytest.approx(1.5)

    def test_sigma2_zero_at_noiseless_optimum(self):
        a, b, x_true = gen_planted_ls(30, 8, 3, seed=31, noise=0.0)
        p = LeastSquaresProblem(a, b, ridge=0.0)
        consts = estimate_constants(p, [x_true])
        assert consts.sigma2 <= 1e-20

    def test_logistic_sigma2_bounded_by_row_norms(self):
        a, y = gen_logistic_blobs(40, 5, seed=32)
        p = LogisticProblem(a, y, ridge=0.0)
        c2 = float(np.max(np.sum(a * a, axis=1)))
        rng = np.random.default_rng(33)
        consts = estimate_constants(p, [rng.standard_normal(5) for _ in range(3)])
        assert consts.sigma2 <= c2

    def test_delta_f_exact_flag(self):
        a, b, _ = gen_gaussian_ls(20, 4, seed=34)
        p = LeastSquaresProblem(a, b)
        consts = estimate_constants(p, [np.zeros(4)])
        assert consts.f_star_exact
        assert consts.delta_f >= 0.0

    def test_each_probe_loss_is_computed_once(self, monkeypatch):
        xs, labs = gen_class_blobs(30, 4, 3, seed=48)
        p = MLPProblem([4, 5, 3], xs, labs)
        rng = np.random.default_rng(49)
        probes = [0.3 * rng.standard_normal(p.d) for _ in range(3)]
        losses = [p.full_loss(x) for x in probes]
        calls = []
        real = p.full_loss
        monkeypatch.setattr(p, "full_loss", lambda x: calls.append(1) or real(x))
        consts = estimate_constants(p, probes)
        assert len(calls) == len(probes)
        assert not consts.f_star_exact
        assert consts.f_star == min(losses)
        assert consts.delta_f == max(losses[0] - min(losses), 0.0)
        calls.clear()
        consts = estimate_constants(p, probes, reference=(probes[2], losses[2]))
        assert len(calls) == 1
        assert consts.delta_f == max(losses[0] - losses[2], 0.0)

    def test_power_iteration_fallback(self):
        rows, cols, vals, _, _ = gen_low_rank_ratings(4, 4, 2, seed=35,
                                                      density=0.8)
        p = MatrixFactorizationProblem(rows, cols, vals, 4, 4, 2)
        rng = np.random.default_rng(36)
        consts = estimate_constants(p, [0.3 * rng.standard_normal(p.d)])
        assert consts.L > 0.0
        assert not consts.f_star_exact


class TestDatasetIO:
    def test_labeled_round_trip(self, tmp_path):
        a, b, _ = gen_gaussian_ls(12, 3, seed=37)
        path = tmp_path / "ls.txt"
        save_labeled_dataset(path, b, a)
        labels, feats = load_labeled_dataset(path)
        np.testing.assert_array_equal(labels, b)
        np.testing.assert_array_equal(feats, a)

    def test_ratings_round_trip(self, tmp_path):
        rows, cols, vals, _, _ = gen_low_rank_ratings(5, 6, 2, seed=38)
        path = tmp_path / "ratings.txt"
        save_ratings_dataset(path, rows, cols, vals, 5, 6)
        r2, c2, v2, n_rows, n_cols = load_ratings_dataset(path)
        np.testing.assert_array_equal(rows, r2)
        np.testing.assert_array_equal(cols, c2)
        np.testing.assert_array_equal(vals, v2)
        assert (n_rows, n_cols) == (5, 6)

    def test_ratings_shape_header(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("1.5 3 0\n2.5 0 1\n")  # no header: largest indices
        assert load_ratings_dataset(path)[3:] == (4, 2)
        path.write_text("# shape 3 2\n1.5 3 0\n")
        with pytest.raises(ValueError, match="header shape"):
            load_ratings_dataset(path)

    def test_labeled_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0\n1.0 2.0\n")
        with pytest.raises(ValueError):
            load_labeled_dataset(path)


class TestDatasetFormat:
    """What the text format accepts and rejects, and the arrays it gives."""

    @pytest.mark.parametrize("text, labels, feats", [
        ("\n1 2 3\n\n  \t\n4 5 6\n\n", [1, 4], [[2, 3], [5, 6]]),
        ("1\t2 3\r\n4 5\t6\r\n", [1, 4], [[2, 3], [5, 6]]),
        ("-1.5 2e-3 3\n", [-1.5], [[2e-3, 3]]),
        ("1 2 3\n4 5 6", [1, 4], [[2, 3], [5, 6]]),
    ], ids=["blank lines", "crlf and tabs", "one row", "no final newline"])
    def test_labeled_accepts(self, tmp_path, text, labels, feats):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode())
        got_labels, got_feats = load_labeled_dataset(path)
        np.testing.assert_array_equal(got_labels, labels)
        np.testing.assert_array_equal(got_feats, feats)
        assert got_labels.shape == (len(labels),)
        assert got_feats.shape == np.shape(feats)
        for arr in (got_labels, got_feats):
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous

    @pytest.mark.parametrize("text, shape", [
        ("# shape 5 4\n1.5 3 0\n2.5 0 1\n", (5, 4)),
        ("1.5 3 0\n2.5 0 1\n", (4, 2)),
        ("# shape 5 4\n\n1.5 3 0\n\n \n2.5 0 1\n\n", (5, 4)),
        ("# shape 5 4\r\n1.5\t3 0\r\n2.5 0\t1\r\n", (5, 4)),
        ("  #  shape\t5  4 \n1.5 3 0\n2.5 0 1", (5, 4)),
    ], ids=["header", "no header", "blank lines", "crlf and tabs",
            "spaced header"])
    def test_ratings_accepts(self, tmp_path, text, shape):
        path = tmp_path / "ratings.txt"
        path.write_bytes(text.encode())
        rows, cols, vals, n_rows, n_cols = load_ratings_dataset(path)
        np.testing.assert_array_equal(rows, [3, 0])
        np.testing.assert_array_equal(cols, [0, 1])
        np.testing.assert_array_equal(vals, [1.5, 2.5])
        assert (n_rows, n_cols) == shape
        assert type(n_rows) is int and type(n_cols) is int
        for arr, dtype in ((rows, np.int64), (cols, np.int64),
                           (vals, np.float64)):
            assert arr.dtype == dtype and arr.shape == (2,)
            assert arr.flags.c_contiguous

    def test_ratings_one_row(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("-0.25 2 1\n")
        rows, cols, vals, n_rows, n_cols = load_ratings_dataset(path)
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([2], [1], [-0.25])
        assert (n_rows, n_cols) == (3, 2)

    @pytest.mark.parametrize("name", sorted(BAD_LABELED_FILES))
    def test_labeled_rejects(self, tmp_path, name):
        path = tmp_path / "bad.txt"
        path.write_text(BAD_LABELED_FILES[name])
        with pytest.raises(ValueError):
            load_labeled_dataset(path)

    @pytest.mark.parametrize("name", sorted(BAD_RATINGS_FILES))
    def test_ratings_rejects(self, tmp_path, name):
        path = tmp_path / "bad.txt"
        path.write_text(BAD_RATINGS_FILES[name])
        with pytest.raises(ValueError):
            load_ratings_dataset(path)

    def test_problems_take_the_loaded_arrays_without_a_copy(self, tmp_path):
        a, b, _ = gen_gaussian_ls(12, 3, seed=37)
        path = tmp_path / "ls.txt"
        save_labeled_dataset(path, b, a)
        labels, feats = load_labeled_dataset(path)
        problem = LeastSquaresProblem(feats, labels)
        assert np.shares_memory(problem.A, feats)
        assert np.shares_memory(problem.targets, labels)
        rows, cols, vals, _, _ = gen_low_rank_ratings(5, 6, 2, seed=38)
        path = tmp_path / "ratings.txt"
        save_ratings_dataset(path, rows, cols, vals, 5, 6)
        loaded = load_ratings_dataset(path)
        problem = MatrixFactorizationProblem(*loaded, rank=2)
        for mine, theirs in zip((problem.rows, problem.cols, problem.vals),
                                loaded):
            assert np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("tile", [1, 5, 8, 2 ** 17])
    def test_labeled_loads_across_row_blocks(self, tmp_path, monkeypatch,
                                             tile):
        # width 4: row blocks of 1, 1, 2 and all 7 rows
        monkeypatch.setattr(problems, "TILE_FLOATS", tile)
        a, b, _ = gen_gaussian_ls(7, 3, seed=39)
        path = tmp_path / "ls.txt"
        save_labeled_dataset(path, b, a)
        labels, feats = load_labeled_dataset(path)
        np.testing.assert_array_equal(labels, b)
        np.testing.assert_array_equal(feats, a)
        assert feats.flags.c_contiguous

    def test_labeled_load_holds_one_table(self, tmp_path, monkeypatch):
        # The features move over the label column in place, one row block
        # at a time: a copy of the data would double the peak.
        monkeypatch.setattr(problems, "TILE_FLOATS", 2 ** 12)
        a, b, _ = gen_gaussian_ls(500, 100, seed=40)
        path = tmp_path / "ls.txt"
        save_labeled_dataset(path, b, a)
        peak, (labels, feats) = traced_peak(lambda: load_labeled_dataset(path))
        np.testing.assert_array_equal(feats, a)
        table_bytes = 500 * 101 * 8
        assert peak < 1.5 * table_bytes + problems.TILE_FLOATS * 8

    @pytest.mark.parametrize("load", [load_labeled_dataset,
                                      load_ratings_dataset])
    def test_a_parser_deprecation_is_a_value_error(self, tmp_path,
                                                   monkeypatch, load):
        # numpy < 2 parses an integer from "3.0" and warns: the loaders
        # must reject it on every supported numpy.
        real = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "data.txt"
        path.write_text("1.5 3 0\n")
        with pytest.raises(ValueError, match="deprecated"):
            load(path)


class TestGenerators:
    def test_planted_signal_has_exact_sparsity(self):
        _, _, x_true = gen_planted_ls(50, 40, 5, seed=39)
        assert np.count_nonzero(x_true) == 5

    def test_planted_is_seed_deterministic(self):
        a1, b1, x1 = gen_planted_ls(20, 10, 3, seed=40)
        a2, b2, x2 = gen_planted_ls(20, 10, 3, seed=40)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert np.array_equal(x1, x2)

    def test_row_normalization_gives_unit_smoothness(self):
        a, b, _ = gen_planted_ls(30, 12, 4, seed=41)
        p = LeastSquaresProblem(a, b)
        assert p.smoothness_hint() == pytest.approx(1.0, abs=1e-12)

    def test_low_rank_rank1_is_realizable(self):
        rows, cols, vals, pf, qf = gen_low_rank_ratings(4, 3, 1, seed=42,
                                                        density=1.0)
        recon = np.sum(pf[rows] * qf[cols], axis=1)
        np.testing.assert_allclose(recon, vals, atol=1e-12)


def output_digest(arrays):
    """SHA-256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def build_and_measure(name):
    """(output digest, traced peak, output bytes) of one generator case."""
    gen, kw, _ = TestGeneratorsBuildInPlace.CASES[name]
    peak, out = traced_peak(lambda: gen(**kw))
    return output_digest(out), peak, sum(np.asarray(a).nbytes for a in out)


def build_and_measure_at_two_blas_threads(name):
    """`build_and_measure(name)` in a child process whose OpenBLAS runs two
    threads, whatever this process runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [os.path.dirname(__file__), *sys.path]))
    code = f"import test_problems as t; print(*t.build_and_measure({name!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return out[0], int(out[1]), int(out[2])


class TestGeneratorsBuildInPlace:
    """Every generator's output keeps its bytes, and its traced peak is the
    output plus at most four TILE_FLOATS blocks: it scales and shifts its
    draw in place and takes row norms one row block at a time."""

    # Shapes: ls-target's; n = 1; a ragged last block (300 rows at d = 1000
    # go in blocks of 131, 131 and 38); and d = 131,075 > TILE_FLOATS, so
    # that every block is one row.  The digests were taken from generators
    # that built the whole draw's products and norms at once.
    CASES = {
        "planted-ls-target": (gen_planted_ls, dict(
            n=10_000, d=1_000, s_active=10, seed=1, tau=0.005, noise=0.02),
            "d5d7ec655c0d793c41a2d9ac69ea9d3ed743c6101ee8435f6c35e607f0f63809"),
        "planted-n1": (gen_planted_ls, dict(n=1, d=50, s_active=3, seed=2),
            "66261278d404337276b6c0c6ac79c96fff62d7c1e266366540820ca02eec8580"),
        "planted-ragged": (gen_planted_ls, dict(
            n=300, d=1_000, s_active=5, seed=3),
            "ca72221974befcec2f7056725223160e0aa1bfe6efd948adc534517cc7e8799f"),
        "planted-wide": (gen_planted_ls, dict(
            n=3, d=131_075, s_active=7, seed=4),
            "50b8b1d1858e488c629b5380c058d3e3ca06bd42ab66b48971af47bfa877456c"),
        "gaussian-ls-target": (gen_gaussian_ls, dict(
            n=10_000, d=1_000, seed=5, noise=0.02),
            "3c3ec2d415bbbbc4da62e911f14eb6c90ebae04f9793637bd427b49dac7fca8b"),
        "gaussian-n1": (gen_gaussian_ls, dict(n=1, d=50, seed=6),
            "b4a5b5db2ed8098975925a19ada684ba6427c896d919e60d9447e4cc6c102cf1"),
        "gaussian-ragged": (gen_gaussian_ls, dict(n=300, d=1_000, seed=7),
            "6bda01fba49dfb168c4a34d75463a63f0d9f039086e3506cebd4581c73e2b21d"),
        "gaussian-wide": (gen_gaussian_ls, dict(n=3, d=131_075, seed=8),
            "35a13a237c77f114d41f76fbffcb3f93847480833529e873d5d483e5257daf65"),
        "logistic-ls-target": (gen_logistic_blobs, dict(
            n=10_000, d=1_000, seed=9),
            "493a6b4979a3f1eba21b6a269a4cff8d5b152ab256a697721fe603582c066030"),
        "logistic-n1": (gen_logistic_blobs, dict(n=1, d=50, seed=10),
            "7182f108f657edaf0fe1395fdd2a037be81d3f0bc5dbe6b330809afc0d62f88b"),
        "logistic-ragged": (gen_logistic_blobs, dict(
            n=300, d=1_000, seed=11, separation=3.0),
            "2fa81dcd5323bb659d5a45f51682d339f0d12279b6f6c04f19e5e1defa7e6f93"),
        "logistic-wide": (gen_logistic_blobs, dict(n=3, d=131_075, seed=12),
            "b28af974f49864e2582c573ccdcdf914831f126fae647be35714758a7b1f3dfd"),
        "class-ls-target": (gen_class_blobs, dict(
            n=10_000, d=1_000, classes=10, seed=13),
            "b222469b36403570148a006c2614add98c79dc96219d6aa73b81966360d28df0"),
        "class-n1": (gen_class_blobs, dict(n=1, d=50, classes=3, seed=14),
            "856f4f0518fdc0b24d9c31e339867c7cbfc2735b969a3ecb1e2e71a26df39244"),
        "class-ragged": (gen_class_blobs, dict(
            n=300, d=1_000, classes=4, seed=15),
            "9d766ceb0a58bdcfb634f67331b8d88307802c97af6147a91a7d297da81e8681"),
        "class-wide": (gen_class_blobs, dict(
            n=3, d=131_075, classes=2, seed=16),
            "95389178bea182aa2f47ce681d7ab663f33dc282ff320c73b49e16dfa4284852"),
        "class-mlp-wide": (gen_class_blobs, dict(
            n=2_000, d=784, classes=10, seed=1, separation=20.0),
            "63ea27179bf4768a10d65fb0dd77c8d130edc24e4438689929a41a2e831b0d7e"),
        "ratings": (gen_low_rank_ratings, dict(
            n_rows=200, n_cols=100, rank=3, seed=17, density=0.1, noise=0.01),
            "554ef03d042ed70958c8ae8a9d091d2885c2b3206f6f37296b7df34460f5bac4"),
    }

    def test_shapes_cover_the_blocks(self):
        assert 131_075 > problems.TILE_FLOATS
        rows = problems.TILE_FLOATS // 1_000
        assert 300 % rows and 300 > rows

    # These two digests were taken at two BLAS threads: a @ x_true and the
    # direction's norm over 131,075 values are split between the threads,
    # and one thread rounds them differently.  So these cases are built at
    # two threads in a child process, and the test gives one verdict at any
    # thread count.
    TWO_THREADS = ("gaussian-wide", "logistic-wide")

    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes_and_traced_peak(self, name):
        measure = (build_and_measure_at_two_blas_threads
                   if name in self.TWO_THREADS else build_and_measure)
        digest, peak, returned = measure(name)
        assert digest == self.CASES[name][2]
        assert peak <= returned + 4 * problems.TILE_FLOATS * 8
