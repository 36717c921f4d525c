import dataclasses
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak

from sparsevr.diagnostics import (entropy_bits, estimate_estimator_variance,
                                  measure_g_G)
from sparsevr.optimize import (HyperparamInputs, RunConfig, SgdConfig,
                               allocate_block_sparsity,
                               data_adaptive_hyperparams, run_sgd,
                               run_sparse_spiderboost, run_spiderboost_dense,
                               worst_case_hyperparams)
from sparsevr.problems import (LeastSquaresProblem, LogisticProblem,
                               MatrixFactorizationProblem, MLPProblem,
                               ProblemConstants, gen_class_blobs,
                               gen_gaussian_ls, gen_logistic_blobs,
                               gen_low_rank_ratings, gen_planted_ls)
from sparsevr import checks, optimize, sparsity
from sparsevr.sampling import STREAM_OPERATOR, RngStream, sample_batch
from sparsevr.sparsity import SparsityParams, rtop, select_top_k1, slot_scale
from sparsevr.vecops import norm2_sq


def quadratic_problem():
    """f(x) = ||x||^2 / 2 with exact float arithmetic (rows 2*e_i, d=n=4)."""
    return LeastSquaresProblem(2.0 * np.eye(4), np.zeros(4))


class TestEmaUpdate:
    """The loop's EMA step, given the increment alpha*|nu| it is passed."""

    @staticmethod
    def ema(memory, nu, alpha):
        return optimize._ema_step(memory, alpha * np.abs(nu), alpha)

    def test_alpha_one_is_abs(self):
        out = self.ema(np.array([5.0, 1.0]), np.array([-2.0, 3.0]), 1.0)
        assert out.tolist() == [2.0, 3.0]

    def test_alpha_zero_keeps_memory(self):
        out = self.ema(np.array([5.0, 1.0]), np.array([-2.0, 3.0]), 0.0)
        assert out.tolist() == [5.0, 1.0]

    def test_half_half(self):
        out = self.ema(np.array([2.0, 0.0]), np.array([-4.0, 2.0]), 0.5)
        assert out.tolist() == [3.0, 1.0]

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        memory = rng.random(6)
        for _ in range(50):
            memory = self.ema(memory, rng.standard_normal(6), rng.random())
            assert np.all(memory >= 0.0)


class TestHyperparamRules:
    def _consts(self, L=1.0, sigma2=1.0, delta_f=1.0):
        return ProblemConstants(L=L, sigma2=sigma2, delta_f=delta_f,
                                f_star=0.0, f_star_exact=True)

    def test_worst_case_frozen_values(self):
        inp = HyperparamInputs(epsilon=0.1, constants=self._consts(),
                               b=10, k1=5, k2=5, d=100, n=10_000)
        frag = worst_case_hyperparams(inp)
        assert frag["B"] == 200          # ceil(2*1/0.01), below n
        assert frag["m"] == 200          # 200*100/(10*10)
        assert frag["eta"] == pytest.approx(math.sqrt(5 / 120_000))
        assert frag["T"] == 310          # ceil(4 / (eta*200*0.01))

    def test_worst_case_clamps_to_n(self):
        inp = HyperparamInputs(epsilon=0.01, constants=self._consts(sigma2=100),
                               b=10, k1=5, k2=5, d=100, n=500)
        assert worst_case_hyperparams(inp)["B"] == 500

    def test_data_adaptive_frozen_values(self):
        inp = HyperparamInputs(epsilon=0.1, constants=self._consts(),
                               b=10, k1=5, k2=5, d=100, n=10_000)
        frag = data_adaptive_hyperparams(inp)
        assert frag["B"] == 300
        assert frag["m"] == 300
        assert frag["eta"] == pytest.approx(math.sqrt(10.0 / 900.0))
        assert frag["T"] == 19

    # The inputs check their sparsity budget when built, before either rule.
    def test_rejects_k2_zero_with_room(self):
        with pytest.raises(ValueError, match="k2=0"):
            HyperparamInputs(epsilon=0.1, constants=self._consts(),
                             b=10, k1=5, k2=0, d=100, n=100)

    @pytest.mark.parametrize("field, value", [
        ("k1", 5.5), ("d", 100.0), ("b", 2.5), ("b", True), ("n", 150.5)])
    def test_rejects_non_integer_counts(self, field, value):
        kw = dict(epsilon=0.1, constants=self._consts(), b=10, k1=5, k2=5,
                  d=100, n=10_000)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            HyperparamInputs(**{**kw, field: value})

    def test_rejects_an_empty_budget_when_built(self):
        with pytest.raises(ValueError, match="k1 \\+ k2"):
            HyperparamInputs(epsilon=0.1, constants=self._consts(),
                             b=10, k1=0, k2=0, d=100, n=100)


class TestRunConfigValidation:
    def test_rejects_bad_batches(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            RunConfig(problem=prob, eta=0.1, m=1, T=1, B=2, b=3,
                      k1=0, k2=4)

    def test_rejects_bad_modes(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2, k1=0, k2=4,
                      theory="sometimes")

    def test_rejects_a_theory_m_with_no_finite_geometric_draw(self):
        # m/(m+1) rounds to 1, so every Geom(m) draw would be int64's
        # minimum and no inner step would run; m steps are still a config.
        prob = quadratic_problem()
        cfg = RunConfig(problem=prob, eta=0.1, m=10**16, T=1, B=4, b=2,
                        k1=0, k2=4)
        with pytest.raises(ValueError, match="rounds to 1"):
            replace(cfg, theory=True)

    def test_rejects_oversized_sparsity(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2,
                      k1=3, k2=3)

    def test_rejects_k2_below_block_count(self):
        xs, labs = gen_class_blobs(10, 3, 2, seed=20)
        prob = MLPProblem([3, 4, 2], xs, labs)
        with pytest.raises(ValueError, match="k2=1 is too small"):
            RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2,
                      k1=2, k2=1)

    @pytest.mark.parametrize("field, value", [
        pytest.param("target_grad_norm", math.nan, id="nan"),
        pytest.param("target_grad_norm", -1.0, id="-1.0"),
        # and the step sizes, which must be finite too
        pytest.param("eta", math.inf, id="eta-inf"),
        pytest.param("eta_end", math.inf, id="eta_end-inf")])
    def test_rejects_bad_target_grad_norm(self, field, value):
        prob = quadratic_problem()
        cfg = RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2, k1=0, k2=4)
        with pytest.raises(ValueError, match=field):
            replace(cfg, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("m", 2.5), ("T", 2.5), ("B", 20.5), ("b", 4.5), ("k1", 1.5),
        ("k2", 2.5), ("m", True), ("T", np.float64(2.0))])
    def test_rejects_non_integer_counts(self, field, value):
        a, b, _ = gen_gaussian_ls(30, 6, seed=12)
        cfg = dict(problem=LeastSquaresProblem(a, b), eta=0.1, m=2, T=2, B=24,
                   b=4, k1=1, k2=2)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(**{**cfg, field: value})

    def test_accepts_numpy_integer_counts(self):
        a, b, _ = gen_gaussian_ls(30, 6, seed=12)
        cfg = RunConfig(problem=LeastSquaresProblem(a, b), eta=0.1,
                        m=np.int64(2), T=np.int32(2), B=np.int64(24),
                        b=np.int64(4), k1=np.int64(1), k2=np.int16(2))
        _, record = run_sparse_spiderboost(cfg)
        assert record.inner_lengths() == [2, 2] and not record.aborted

    def test_rejects_capture_at_the_identity(self):
        # The identity keeps no memory to score a top-k1 set with.
        prob = quadratic_problem()
        sparse = RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2, k1=1,
                           k2=1, record_capture=True)
        with pytest.raises(ValueError, match="record_capture"):
            replace(sparse, k2=3)
        with pytest.raises(ValueError, match="record_capture"):
            run_spiderboost_dense(sparse)


class TestConfigsAreFrozen:
    """Both configs check themselves when built, by replace too."""

    def test_replace_into_a_bad_value_raises(self):
        prob = quadratic_problem()
        run = RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2, k1=0, k2=4)
        sgd = SgdConfig(problem=prob, eta=0.1, b=2, steps=3)
        with pytest.raises(ValueError, match="need b <= min"):
            replace(run, B=1)
        with pytest.raises(ValueError, match="need 1 <= b <= n"):
            replace(sgd, b=5)
        with pytest.raises(ValueError, match="record_every"):
            replace(sgd, record_every=0)

    @pytest.mark.parametrize("kind", ["run", "sgd"])
    def test_fields_cannot_be_assigned(self, kind):
        prob = quadratic_problem()
        cfg = (RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2, k1=0, k2=4)
               if kind == "run" else SgdConfig(problem=prob, eta=0.1, b=2,
                                               steps=3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.eta = 1e9
        assert cfg.eta == 0.1

    @pytest.mark.parametrize("kind", ["run", "sgd"])
    def test_configs_with_arrays_compare_and_hash(self, kind):
        prob = quadratic_problem()

        def build():
            if kind == "run":
                return RunConfig(problem=prob, eta=0.1, m=1, T=1, B=4, b=2,
                                 k1=0, k2=4, x0=np.ones(4))
            return SgdConfig(problem=prob, eta=0.1, b=2, steps=3,
                             x0=np.ones(4))

        first, second = build(), build()
        assert first == first
        assert first != second
        keyed = {first: 1, second: 2}
        assert (keyed[first], keyed[second]) == (1, 2)


class TestQuadraticContraction:
    def test_exact_linear_contraction(self):
        # exact gradients (B=b=n) and identity operator (k1+k2=d): the
        # direction telescopes to nu_t = x_t, so x_{t+1} = (1-eta)x_t; with
        # eta=0.5 and power-of-two starts every step is exact in float64
        prob = quadratic_problem()
        x0 = np.array([1.0, -2.0, 4.0, -8.0])
        cfg = RunConfig(problem=prob, eta=0.5, m=1, T=8, B=4, b=4,
                        alpha=0.5, k1=0, k2=4, seed=3, x0=x0,
                        keep_iterates=True)
        x_out, record = run_sparse_spiderboost(cfg)
        for j, xj in enumerate(record.iterates, start=1):
            assert np.array_equal(xj, 0.5 ** j * x0)
        assert np.array_equal(x_out, 0.5 ** 8 * x0)

    def test_generic_eta_contraction_to_float_tolerance(self):
        prob = quadratic_problem()
        x0 = np.array([1.0, 0.3, -0.7, 2.0])
        cfg = RunConfig(problem=prob, eta=0.3, m=4, T=3, B=4, b=4,
                        alpha=0.5, k1=2, k2=2, seed=4, x0=x0,
                        keep_iterates=True)
        _, record = run_sparse_spiderboost(cfg)
        for j, xj in enumerate(record.iterates, start=1):
            np.testing.assert_allclose(xj, 0.7 ** (4 * j) * x0, rtol=1e-12)


class TestDenseEquivalence:
    def test_sparse_full_budget_equals_dense(self):
        a, y = gen_logistic_blobs(40, 8, seed=5)
        prob = LogisticProblem(a, y, ridge=0.01)
        for seed in (0, 1, 2):
            base = dict(problem=prob, eta=0.4, m=6, T=5, B=16, b=4,
                        alpha=0.5, seed=seed, keep_iterates=True)
            _, rec_sparse = run_sparse_spiderboost(RunConfig(k1=3, k2=5, **base))
            _, rec_dense = run_spiderboost_dense(RunConfig(k1=0, k2=8, **base))
            assert len(rec_sparse.iterates) == len(rec_dense.iterates)
            for xs, xd in zip(rec_sparse.iterates, rec_dense.iterates):
                assert np.array_equal(xs, xd)

    def test_dense_ignores_sparsity_budget(self):
        a, y = gen_logistic_blobs(40, 8, seed=6)
        prob = LogisticProblem(a, y, ridge=0.01)
        base = dict(problem=prob, eta=0.4, m=6, T=5, B=16, b=4, seed=1,
                    keep_iterates=True)
        x_shared, rec_shared = run_spiderboost_dense(RunConfig(k1=2, k2=2, **base))
        x_full, rec_full = run_spiderboost_dense(RunConfig(k1=0, k2=8, **base))
        assert np.array_equal(x_shared, x_full)
        for xs, xf in zip(rec_shared.iterates, rec_full.iterates):
            assert np.array_equal(xs, xf)
        # snapshot B plus 2b per inner step, whatever k1 and k2 say
        assert rec_shared.meter.units == rec_full.meter.units == Fraction(5 * (16 + 2 * 4 * 6))

    def test_meters_differ_between_variants(self):
        a, y = gen_logistic_blobs(40, 8, seed=6)
        prob = LogisticProblem(a, y, ridge=0.01)
        base = dict(problem=prob, eta=0.4, m=6, T=5, B=16, b=4, seed=1)
        _, rec_sparse = run_sparse_spiderboost(RunConfig(k1=2, k2=2, **base))
        _, rec_dense = run_spiderboost_dense(RunConfig(k1=2, k2=2, **base))
        # dense pays 2b per inner step, sparse 2b*k/d
        assert rec_dense.meter.units > rec_sparse.meter.units


class TestObservationDoesNotPerturb:
    def test_capture_and_grad_norm_leave_iterates_unchanged(self):
        # n > 10,000, so the capture probe subsamples components
        a, b, _ = gen_planted_ls(10_050, 20, 3, seed=27)
        prob = LeastSquaresProblem(a, b)
        base = dict(problem=prob, eta=0.3, m=5, T=4, B=200, b=10, k1=2, k2=2,
                    seed=5, keep_iterates=True)
        _, quiet = run_sparse_spiderboost(RunConfig(
            record_capture=False, record_grad_norm=False, **base))
        _, observed = run_sparse_spiderboost(RunConfig(
            record_capture=True, record_grad_norm=True, **base))
        assert all(row.R is not None for row in observed.rows)
        assert len(quiet.iterates) == len(observed.iterates) == 4
        for xq, xo in zip(quiet.iterates, observed.iterates):
            assert np.array_equal(xq, xo)


class TestMeterIdentity:
    def test_exact_rational_identity_random_runs(self):
        rng = np.random.default_rng(7)
        a, b, _ = gen_gaussian_ls(60, 10, seed=8)
        prob = LeastSquaresProblem(a, b)
        for trial in range(10):
            big_b = int(rng.integers(4, 80))
            small_b = int(rng.integers(1, min(big_b, prob.n) + 1))
            k1 = int(rng.integers(0, 10))
            k2 = int(rng.integers(1, 10 - k1 + 1))
            cfg = RunConfig(problem=prob, eta=0.02,
                            m=int(rng.integers(1, 8)),
                            T=int(rng.integers(1, 8)),
                            B=big_b, b=small_b, k1=k1, k2=k2,
                            theory=trial % 2 == 1,
                            seed=trial, record_grad_norm=False)
            _, record = run_sparse_spiderboost(cfg)
            expect = Fraction(0)
            for nj in record.inner_lengths():
                expect += Fraction(min(cfg.B, prob.n))
                expect += Fraction(2 * cfg.b * (k1 + k2), prob.d) * nj
            assert record.meter.units == expect

    def test_fixed_mode_closed_form_per_outer_loop(self):
        prob = quadratic_problem()
        cfg = RunConfig(problem=prob, eta=0.1, m=5, T=3, B=4, b=2,
                        k1=0, k2=4, seed=0, record_grad_norm=False)
        _, record = run_spiderboost_dense(cfg)
        # B + 2*b*m units per outer loop
        assert record.meter.units == Fraction(3 * (4 + 2 * 2 * 5))


class TestTheoryMode:
    def test_geometric_lengths_recorded(self):
        prob = quadratic_problem()
        cfg = RunConfig(problem=prob, eta=0.1, m=3, T=40, B=4, b=4,
                        k1=0, k2=4, theory=True, seed=11,
                        record_grad_norm=False)
        _, record = run_sparse_spiderboost(cfg)
        lengths = record.inner_lengths()
        assert len(lengths) == 40
        assert min(lengths) >= 0
        assert len(set(lengths)) > 1  # actually random

    def test_uniform_output_is_a_recorded_iterate(self):
        a, b, _ = gen_gaussian_ls(30, 6, seed=12)
        prob = LeastSquaresProblem(a, b)
        hits = set()
        for seed in range(12):
            cfg = RunConfig(problem=prob, eta=0.1, m=2, T=6, B=8, b=2,
                            k1=1, k2=1, theory=True, seed=seed,
                            keep_iterates=True, record_grad_norm=False)
            x_out, record = run_sparse_spiderboost(cfg)
            matches = [j for j, xj in enumerate(record.iterates, start=1)
                       if np.array_equal(x_out, xj)]
            assert matches
            hits.add(matches[0])
        assert len(hits) > 1  # draws actually vary over seeds

    def test_memory_starts_at_the_first_snapshot_before_empty_loops(
            self, monkeypatch):
        # The first two Geom(1) inner loops are empty, so the memory is
        # still |nu_1| at rows 1 and 2 and at the first draw of loop 3.
        a, b, _ = gen_gaussian_ls(30, 6, seed=12)
        prob = LeastSquaresProblem(a, b)
        cfg = RunConfig(problem=prob, eta=0.1, m=1, T=3, B=8, b=2, k1=1,
                        k2=1, theory=True, seed=7, record_grad_norm=False)
        snapshots, scored = [], []
        real_grad, real_draw = prob.grad_batch, optimize.draw_support

        def grad(idx, x):   # the inner steps use the restricted oracle
            snapshots.append(real_grad(idx, x))
            return snapshots[-1]

        def draw(block, p, rng, prev_top):
            scored.append(block.copy())
            return real_draw(block, p, rng, prev_top)

        monkeypatch.setattr(prob, "grad_batch", grad)
        monkeypatch.setattr(optimize, "draw_support", draw)
        _, record = run_sparse_spiderboost(cfg)
        assert record.inner_lengths() == [0, 0, 2]
        memory = np.abs(snapshots[0])
        assert [r.entropy for r in record.rows[:2]] == [entropy_bits(memory)] * 2
        assert same_bits(scored[0], memory)

    def test_zero_length_inner_loop_is_legal(self):
        # geometric draws hit N_j = 0 regularly at small m
        prob = quadratic_problem()
        cfg = RunConfig(problem=prob, eta=0.1, m=1, T=30, B=4, b=4,
                        k1=0, k2=4, theory=True, seed=13,
                        record_grad_norm=False)
        _, record = run_sparse_spiderboost(cfg)
        assert 0 in record.inner_lengths()


def fidelity_config(prob, k1, k2, x0=True):
    x0 = 0.3 * np.random.default_rng(7).standard_normal(prob.d) if x0 else None
    return RunConfig(problem=prob, eta=0.1, m=4, T=3, B=min(12, prob.n),
                     b=min(3, prob.n), alpha=0.5, k1=k1, k2=k2, seed=0,
                     x0=x0, record_grad_norm=False)


class TestRestrictedFidelity:
    """Criterion 09's oracle check on small runs of every problem kind."""

    def _run(self, prob, k1, k2):
        checks.run_with_checked_oracle(fidelity_config(prob, k1, k2))

    def test_least_squares(self):
        a, b, _ = gen_gaussian_ls(30, 8, seed=14)
        self._run(LeastSquaresProblem(a, b), 2, 2)

    def test_logistic(self):
        a, y = gen_logistic_blobs(30, 8, seed=15)
        self._run(LogisticProblem(a, y, ridge=0.01), 2, 2)

    def test_mlp_blocked(self):
        xs, labs = gen_class_blobs(20, 4, 2, seed=16)
        prob = MLPProblem([4, 5, 2], xs, labs)
        self._run(prob, 6, 6)

    def test_matrix_factorization(self):
        rows, cols, vals, _, _ = gen_low_rank_ratings(6, 5, 2, seed=17,
                                                      density=0.6)
        prob = MatrixFactorizationProblem(rows, cols, vals, 6, 5, 2)
        self._run(prob, 4, 4)

    def test_catches_a_one_ulp_difference(self, monkeypatch):
        prob, k1, k2 = selection_problems()[2]  # the blocked MLP
        cfg = fidelity_config(prob, k1, k2)
        checks.run_with_checked_oracle(cfg)
        assert "grad_batch_restricted" not in vars(prob)  # left untouched
        real = prob.grad_batch_restricted
        monkeypatch.setattr(prob, "grad_batch_restricted", lambda idx, x, coords:
                            np.nextafter(real(idx, x, coords), np.inf))
        with pytest.raises(AssertionError, match="restricted gradient differs"):
            checks.run_with_checked_oracle(cfg)

    def test_rejects_a_run_that_never_moves(self):
        # every matrix-factorization gradient vanishes at x = 0
        prob, k1, k2 = selection_problems()[3]
        with pytest.raises(AssertionError, match="never moved"):
            checks.run_with_checked_oracle(fidelity_config(prob, k1, k2,
                                                           x0=False))


class TestLoopIsRtop:
    def test_first_sparse_step_adds_rtop_of_the_dense_difference(
            self, monkeypatch):
        # The loop's correction and rtop are one operator: after the first
        # inner step, nu is nu0 plus rtop of the dense batch difference,
        # scored by the pre-update memory, |nu0|, and drawn from the run's
        # own operator stream.
        a, b_vec, _ = gen_gaussian_ls(60, 20, seed=41)
        prob = LeastSquaresProblem(a, b_vec, ridge=0.01)
        x0 = np.random.default_rng(42).standard_normal(20)
        cfg = RunConfig(problem=prob, eta=0.1, m=1, T=1, B=30, b=8, k1=3,
                        k2=4, seed=43, x0=x0, record_grad_norm=False)
        batches, memories, grads = [], [], []
        real_sample, real_ema = optimize.sample_batch, optimize._ema_step
        real_grad = prob.grad_batch

        def sample(n, size, rng):
            batches.append(real_sample(n, size, rng))
            return batches[-1]

        def ema(memory, increment, alpha):
            memories.append(memory.copy())
            return real_ema(memory, increment, alpha)

        def grad(idx, x):
            grads.append(real_grad(idx, x))
            return grads[-1]

        monkeypatch.setattr(optimize, "sample_batch", sample)
        monkeypatch.setattr(optimize, "_ema_step", ema)
        monkeypatch.setattr(prob, "grad_batch", grad)
        run_sparse_spiderboost(cfg)
        i_snap, i_t = batches  # snapshot, inner step
        # The snapshot gradient is the nu that the one inner step updates
        # in place.
        (memory0,), (nu1,) = memories, grads
        nu0 = prob.grad_batch(i_snap, x0)
        assert same_bits(memory0, np.abs(nu0))
        x1 = x0 - cfg.eta * nu0
        dense_diff = prob.grad_batch(i_t, x1) - prob.grad_batch(i_t, x0)
        expect = nu0 + rtop(memory0, dense_diff, SparsityParams(3, 4, 20),
                            RngStream(43, STREAM_OPERATOR))
        assert not np.array_equal(nu1, nu0)
        assert np.array_equal(nu1, expect)


def selection_problems():
    """(problem, k1, k2) for least squares, logistic, the blocked MLP and
    matrix factorization; every block has 0 < k1 < d."""
    a, b, _ = gen_gaussian_ls(30, 8, seed=14)
    a2, y2 = gen_logistic_blobs(30, 8, seed=15)
    xs, labs = gen_class_blobs(20, 4, 2, seed=16)
    rows, cols, vals, _, _ = gen_low_rank_ratings(6, 5, 2, seed=17,
                                                  density=0.6)
    return [(LeastSquaresProblem(a, b), 2, 2),
            (LogisticProblem(a2, y2, ridge=0.01), 2, 2),
            (MLPProblem([4, 5, 2], xs, labs), 12, 6),
            (MatrixFactorizationProblem(rows, cols, vals, 6, 5, 2), 4, 4)]


class TestTopK1FromPrevious:
    """The loop's top-k1 selection, bounded by each block's previous one,
    leaves every run bit-identical to one that selects in full."""

    @pytest.mark.parametrize("case", range(4))
    def test_run_equals_full_selection(self, monkeypatch, case):
        prob, k1, k2 = selection_problems()[case]
        ranges = prob.param_blocks() or [(0, prob.d)]
        params = allocate_block_sparsity(k1, k2, [hi - lo for lo, hi in ranges])
        assert all(0 < p.k1 < p.d for p in params)
        carried = sparsity._top_k1_above_prev
        x0 = 0.3 * np.random.default_rng(8).standard_normal(prob.d)
        for alpha in (0.0, 0.5, 1.0):
            for mode in ("fixed", "geometric"):
                cfg = RunConfig(problem=prob, eta=0.1, m=4, T=3,
                                B=min(12, prob.n), b=min(3, prob.n),
                                alpha=alpha, k1=k1, k2=k2,
                                theory=mode == "geometric",
                                seed=3, x0=x0, record_grad_norm=False)
                calls = []

                def counted(memory, k, prev_top):
                    calls.append(k)
                    return carried(memory, k, prev_top)

                monkeypatch.setattr(sparsity, "_top_k1_above_prev", counted)
                x, rec = run_sparse_spiderboost(cfg)
                monkeypatch.setattr(sparsity, "_top_k1_above_prev",
                                    lambda memory, k, _: select_top_k1(memory, k))
                x_ref, ref = run_sparse_spiderboost(cfg)

                steps = sum(rec.inner_lengths())
                assert steps > 1
                assert len(calls) == len(params) * (steps - 1)
                assert np.array_equal(x, x_ref)
                assert rec.meter.units == ref.meter.units
                assert ([(r.loss, r.entropy) for r in rec.rows]
                        == [(r.loss, r.entropy) for r in ref.rows])
                assert not np.array_equal(x, x0)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKeptInStepVectors:
    """The loop keeps eta_t*nu and alpha*|nu| next to nu and rewrites them at
    the k changed coordinates only.  Replayed from what the loop hands its
    callees, every step is x - eta_t*nu and every memory the EMA of nu,
    bit for bit."""

    @pytest.mark.parametrize("eta_end", [None, 0.02])
    def test_replay_from_the_callees(self, monkeypatch, eta_end):
        prob, k1, k2 = selection_problems()[2]  # the blocked MLP
        cfg = RunConfig(problem=prob, eta=0.1, eta_end=eta_end, m=4, T=3,
                        B=12, b=3, alpha=0.3, k1=k1, k2=k2, seed=6,
                        x0=0.3 * np.random.default_rng(7).standard_normal(prob.d),
                        record_grad_norm=False)
        batches, scored, restricted, ends = [], [], [], []
        real_sample, real_draw = optimize.sample_batch, optimize.draw_support
        real_entropy = optimize.entropy_bits
        real_restricted = prob.grad_batch_restricted

        def sample(n, size, rng):
            batches.append(real_sample(n, size, rng))
            return batches[-1]

        def draw(block, p, rng, prev_top):
            scored.append(block.copy())
            return real_draw(block, p, rng, prev_top)

        def entropy(memory):
            ends.append(memory.copy())
            return real_entropy(memory)

        def restricted_grad(idx, x, coords):
            out = real_restricted(idx, x, coords)
            restricted.append((idx, x.copy(), coords.copy(), out.copy()))
            return out

        monkeypatch.setattr(optimize, "sample_batch", sample)
        monkeypatch.setattr(optimize, "draw_support", draw)
        monkeypatch.setattr(optimize, "entropy_bits", entropy)
        monkeypatch.setattr(prob, "grad_batch_restricted", restricted_grad)
        x_out, record = run_sparse_spiderboost(cfg)
        assert not record.aborted

        n_blocks = len(prob.param_blocks())
        seen = [np.concatenate(scored[i:i + n_blocks])
                for i in range(0, len(scored), n_blocks)]
        steps = cfg.T * cfg.m
        assert len(seen) == steps and len(restricted) == 2 * steps
        assert len(batches) == cfg.T * (1 + cfg.m) and len(ends) == cfg.T
        scales = slot_scale(p for _, p in optimize._operator_blocks(cfg))

        x = cfg.x0
        s = 0
        for j in range(cfg.T):
            nu = prob.grad_batch(batches[j * (1 + cfg.m)], x)
            if j == 0:
                memory = np.abs(nu)  # the memory starts from the first snapshot
            for t in range(cfg.m):
                i_t = batches[1 + j * (1 + cfg.m) + t]
                (i_new, x_new, coords, g_new), (i_old, x_old, coords_old, g_old) = (
                    restricted[2 * s:2 * s + 2])
                assert same_bits(seen[s], memory)
                assert i_new is i_t and i_old is i_t
                assert same_bits(x_old, x)
                assert same_bits(coords_old, coords)
                assert same_bits(x_new, x - optimize._inner_eta(cfg, t) * nu)
                nu = nu.copy()
                nu[coords] += scales * (g_new - g_old)
                memory = memory * (1 - cfg.alpha) + cfg.alpha * np.abs(nu)
                x = x_new
                s += 1
            assert same_bits(ends[j], memory)
        assert same_bits(x_out, x)


class TestIdentityKeepsNoMemory:
    """At k1+k2 = d the loop is SpiderBoost: it makes the same grad_batch
    calls, on the same batches and iterates bit for bit, as criterion 05's
    replay, with no memory gradient, EMA or entropy."""

    @pytest.mark.parametrize("eta_end", [None, 0.02])
    @pytest.mark.parametrize("runner", ["dense", "sparse-full-budget"])
    def test_replay_from_the_batches(self, monkeypatch, eta_end, runner):
        prob = selection_problems()[2][0]  # the blocked MLP
        cfg = RunConfig(problem=prob, eta=0.1, eta_end=eta_end, m=4, T=3,
                        B=12, b=3, alpha=0.3, k1=2, k2=prob.d - 2, seed=6,
                        x0=0.3 * np.random.default_rng(7).standard_normal(prob.d),
                        keep_iterates=True, record_grad_norm=False)
        batches, grads, calls = [], [], {"ema": 0, "entropy": 0}
        real_sample, real_grad = optimize.sample_batch, prob.grad_batch

        def sample(n, size, rng):
            batches.append(real_sample(n, size, rng))
            return batches[-1]

        def grad(idx, x):
            grads.append((idx, x.copy()))
            return real_grad(idx, x)

        def counted(name):
            def count(*args):
                calls[name] += 1
            return count

        monkeypatch.setattr(optimize, "sample_batch", sample)
        monkeypatch.setattr(prob, "grad_batch", grad)
        monkeypatch.setattr(optimize, "_ema_step", counted("ema"))
        monkeypatch.setattr(optimize, "entropy_bits", counted("entropy"))
        run = (run_spiderboost_dense if runner == "dense"
               else run_sparse_spiderboost)
        x_out, record = run(cfg)
        assert not record.aborted
        assert calls == {"ema": 0, "entropy": 0}
        assert [row.entropy for row in record.rows] == [None] * cfg.T

        # Every batch drawn is evaluated: one snapshot and 2m inner calls
        # per outer loop, with no memory gradient.
        assert len(batches) == cfg.T * (1 + cfg.m)
        assert len(grads) == cfg.T * (1 + 2 * cfg.m)
        assert {id(idx) for idx, _ in grads} == {id(idx) for idx in batches}
        loop_grads = grads[:]
        grads.clear()
        want = checks.spiderboost_replay(cfg)
        assert len(grads) == len(loop_grads)
        for (i_loop, x_loop), (i_ref, x_ref) in zip(loop_grads, grads):
            assert same_bits(i_loop, i_ref) and same_bits(x_loop, x_ref)
        assert all(map(same_bits, record.iterates, want))
        assert same_bits(x_out, want[-1])


class TestSnapshotWorkingSet:
    """A snapshot pass starts without the direction it replaces, and
    without the diagnostics' full gradient of the outer loop before: at its
    entry the loop holds x, the step and, on the sparse path, the memory
    and its increment, and no fifth d-vector."""

    @pytest.mark.parametrize("runner, held, record_grad_norm", [
        (run_sparse_spiderboost, 4, False), (run_spiderboost_dense, 2, False),
        (run_sparse_spiderboost, 4, True), (run_spiderboost_dense, 2, True)],
        ids=["sparse", "dense", "sparse-grad-norm", "dense-grad-norm"])
    def test_held_d_vectors_at_each_snapshot(self, monkeypatch, runner, held,
                                             record_grad_norm):
        xs, labels = gen_class_blobs(40, 200, 8, seed=5)
        prob = MLPProblem([200, 96, 8], xs, labels)   # d = 20,072
        cfg = RunConfig(problem=prob, eta=0.05, m=3, T=3, B=prob.n, b=4,
                        k1=100, k2=100, seed=2,
                        x0=0.1 * np.random.default_rng(9).standard_normal(prob.d),
                        record_grad_norm=record_grad_norm)
        entry_bytes, real_grad = [], prob.grad_batch

        def grad(idx, x):
            if len(idx) == cfg.B:   # bytes the run holds as a snapshot starts
                entry_bytes.append(tracemalloc.get_traced_memory()[0])
            return real_grad(idx, x)

        monkeypatch.setattr(prob, "grad_batch", grad)
        _, (_, record) = traced_peak(lambda: runner(cfg))
        assert not record.aborted
        assert len(entry_bytes) == cfg.T
        assert max(entry_bytes) <= (held + 0.5) * prob.d * 8


class TestEveryGradientIsCharged:
    """Every gradient the loop evaluates is on the meter: one size-min(B, n)
    grad_batch call per snapshot event and two oracle calls per inner
    event, restricted on the sparse path and dense on the identity path."""

    @pytest.mark.parametrize("mode", ["fixed", "geometric"])
    @pytest.mark.parametrize("case", range(4))
    def test_oracle_calls_match_the_meter(self, monkeypatch, case, mode):
        prob, k1, k2 = selection_problems()[case]
        calls = {"snapshot": 0, "inner": 0, "restricted": 0}
        real_grad, real_restricted = prob.grad_batch, prob.grad_batch_restricted
        snap, b = min(12, prob.n), min(3, prob.n)
        assert snap != b

        def grad(idx, x):
            calls["snapshot" if len(idx) == snap else "inner"] += 1
            return real_grad(idx, x)

        def restricted_grad(idx, x, coords):
            calls["restricted"] += 1
            return real_restricted(idx, x, coords)

        monkeypatch.setattr(prob, "grad_batch", grad)
        monkeypatch.setattr(prob, "grad_batch_restricted", restricted_grad)
        x0 = 0.3 * np.random.default_rng(8).standard_normal(prob.d)
        for runner in (run_sparse_spiderboost, run_spiderboost_dense):
            cfg = RunConfig(problem=prob, eta=0.1, m=4, T=3, B=snap, b=b,
                            k1=k1, k2=k2, theory=mode == "geometric",
                            seed=3, x0=x0,
                            record_grad_norm=False)
            calls.update(snapshot=0, inner=0, restricted=0)
            _, record = runner(cfg)
            assert not record.aborted
            events = {ev[0]: count for ev, count in record.meter.events.items()}
            assert set(events) <= {"snapshot", "inner"}
            steps = sum(record.inner_lengths())
            assert events["snapshot"] == cfg.T and events.get("inner", 0) == steps
            assert calls["snapshot"] == events["snapshot"]
            sparse = runner is run_sparse_spiderboost
            assert calls["restricted" if sparse else "inner"] == 2 * steps
            assert calls["inner" if sparse else "restricted"] == 0


def count_diagnostic_calls(monkeypatch, prob):
    """Wrap the problem's full-data oracles; returns the list of calls they
    log, as (name, idx) with idx recorded for the fused oracle only."""
    calls = []

    def wrapped(name, method):
        def counted(*args):
            calls.append((name, args[0] if name == "loss_grad_batch" else None))
            return method(*args)
        return counted

    for name in ("loss_grad_batch", "full_grad", "full_loss"):
        monkeypatch.setattr(prob, name, wrapped(name, getattr(prob, name)))
    return calls


def trajectory(x, rec):
    return (x.tobytes(), rec.meter.units, rec.aborted, rec.abort_reason,
            [(r.loss, r.grad_norm, r.entropy) for r in rec.rows])


def unfused(monkeypatch, *probs):
    """Give each problem a loss_grad_batch that makes two separate calls,
    loss_batch and then grad_batch."""
    for prob in probs:
        monkeypatch.setattr(prob, "loss_grad_batch", lambda idx, x, p=prob: (
            p.loss_batch(idx, x), p.grad_batch(idx, x)))


class TestDiagnosticsTakeOnePass:
    """With a gradient norm, each outer loop (or SGD checkpoint) makes one
    fused loss_grad_batch call over all components and no full_grad call;
    the trajectory is that of separate loss and gradient kernels."""

    @pytest.mark.parametrize("algorithm", ["sparse", "dense", "sgd"])
    @pytest.mark.parametrize("case", range(4))
    def test_one_fused_call_per_row(self, monkeypatch, case, algorithm):
        _, k1, k2 = selection_problems()[case]

        def run(prob, record_grad_norm):
            x0 = 0.3 * np.random.default_rng(50).standard_normal(prob.d)
            if algorithm == "sgd":
                return run_sgd(SgdConfig(
                    problem=prob, eta=0.05, b=3, steps=12, seed=4, x0=x0,
                    record_every=4, record_grad_norm=record_grad_norm))
            cfg = RunConfig(problem=prob, eta=0.1, m=4, T=3,
                            B=min(12, prob.n), b=min(3, prob.n), k1=k1,
                            k2=k2, seed=3, x0=x0,
                            record_grad_norm=record_grad_norm)
            if algorithm == "dense":
                return run_spiderboost_dense(cfg)
            return run_sparse_spiderboost(cfg)

        prob = selection_problems()[case][0]
        calls = count_diagnostic_calls(monkeypatch, prob)
        x, rec = run(prob, True)
        assert len(rec.rows) == 3
        assert calls == [("loss_grad_batch", slice(None))] * 3
        calls.clear()
        _, quiet = run(prob, False)
        assert calls == [("full_loss", None)] * 3
        assert all(0.0 <= r.diag_ms <= r.wall_ms for r in rec.rows + quiet.rows)

        ref_prob = selection_problems()[case][0]
        unfused(monkeypatch, ref_prob)
        assert trajectory(x, rec) == trajectory(*run(ref_prob, True))

    def test_divergent_runs_abort_alike(self, monkeypatch):
        # TestDivergenceGuard's runs, with the gradient norm recorded
        a, b, _ = gen_gaussian_ls(20, 5, seed=22)
        cfg = RunConfig(problem=LeastSquaresProblem(a, b), eta=1e6, m=20,
                        T=10, B=8, b=4, k1=2, k2=2, seed=5,
                        record_grad_norm=True)
        a2, b2, _ = gen_gaussian_ls(20, 5, seed=23)
        sgd = dict(eta=1e8, b=4, steps=200, problem=LeastSquaresProblem(a2, b2),
                   seed=6, record_every=1, record_grad_norm=True)
        fused = [trajectory(*run_sparse_spiderboost(cfg)),
                 trajectory(*run_sgd(SgdConfig(**sgd)))]
        unfused(monkeypatch, cfg.problem, sgd["problem"])
        separate = [trajectory(*run_sparse_spiderboost(cfg)),
                    trajectory(*run_sgd(SgdConfig(**sgd)))]
        assert fused == separate
        assert all(t[2] and t[3].startswith("divergence") for t in fused)


class TestCaptureReusesTheFusedGradient:
    def test_one_full_grad_per_outer_loop(self, monkeypatch):
        a, b, _ = gen_planted_ls(400, 30, 4, seed=8)
        prob = LeastSquaresProblem(a, b)
        cfg = RunConfig(problem=prob, eta=0.3, m=5, T=3, B=100, b=5, k1=3,
                        k2=3, seed=4, record_capture=True,
                        record_grad_norm=True)
        calls = count_diagnostic_calls(monkeypatch, prob)
        x, rec = run_sparse_spiderboost(cfg)
        assert len(rec.rows) == 3
        # one at each outer loop's look-ahead point x - eta*nu
        assert [name for name, _ in calls].count("full_grad") == 3
        # a probe that differentiates the outer-loop iterate itself again
        calls.clear()
        monkeypatch.setattr(optimize, "measure_g_G",
                            lambda *args, grad_prev, **kw: measure_g_G(*args, **kw))
        x_again, again = run_sparse_spiderboost(cfg)
        assert [name for name, _ in calls].count("full_grad") == 6
        assert ([(r.g, r.G, r.R) for r in rec.rows]
                == [(r.g, r.G, r.R) for r in again.rows])
        assert trajectory(x, rec) == trajectory(x_again, again)


class TestCaptureScoresTheNextSelection:
    def test_blocked_mlp(self, monkeypatch):
        # The probe measures the residual outside the top-k1 set that the
        # next inner step selects, block by block; on this network that set
        # is not the global top-k1 of the memory.
        xs, labs = gen_class_blobs(120, 6, 3, seed=93)
        prob = MLPProblem([6, 10, 3], xs, labs)
        cfg = RunConfig(problem=prob, eta=0.1, m=3, T=4, B=60, b=12, k1=10,
                        k2=10, seed=5, record_capture=True,
                        x0=0.3 * np.random.default_rng(9).standard_normal(prob.d),
                        record_grad_norm=False)
        draws, probes = [], []
        real_draw, real_probe = optimize.draw_support, optimize.measure_g_G

        def draw(block, p, rng, prev_top):
            top, rand = real_draw(block, p, rng, prev_top)
            draws.append((block.copy(), top))
            return top, rand

        def probe(problem, top, *args, **kw):
            probes.append(top)
            return real_probe(problem, top, *args, **kw)

        monkeypatch.setattr(optimize, "draw_support", draw)
        monkeypatch.setattr(optimize, "measure_g_G", probe)
        _, record = run_sparse_spiderboost(cfg)
        assert not record.aborted
        offsets = [lo for lo, _ in optimize._operator_blocks(cfg)]
        assert len(offsets) == 2 and len(probes) == cfg.T
        steps = [draws[i:i + 2] for i in range(0, len(draws), 2)]
        global_top = []
        for j in range(cfg.T - 1):
            first = steps[(j + 1) * cfg.m]  # the next outer loop's first step
            want = np.concatenate([lo + top for lo, (_, top) in zip(offsets, first)])
            assert same_bits(probes[j], want)
            memory = np.concatenate([block for block, _ in first])
            global_top.append(np.array_equal(want, select_top_k1(memory, cfg.k1)))
        assert not any(global_top)


class TestBlockAllocation:
    def test_totals_and_validity(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            nb = int(rng.integers(1, 6))
            sizes = rng.integers(2, 30, size=nb)
            d = int(sizes.sum())
            k1 = int(rng.integers(0, d // 2))
            k2 = int(rng.integers(nb, d - k1 + 1))
            params = allocate_block_sparsity(k1, k2, sizes)
            assert sum(p.k1 for p in params) == k1
            assert sum(p.k2 for p in params) == k2
            for p, size in zip(params, sizes):
                assert p.d == size
                assert p.k1 + p.k2 <= size
                assert p.k2 >= 1 or p.k1 == size

    def test_full_budget_is_identity_per_block(self):
        sizes = [7, 11, 5]
        params = allocate_block_sparsity(10, 13, sizes)
        for p, size in zip(params, sizes):
            assert p.k1 + p.k2 == size

    def test_rejects_k2_below_block_count(self):
        with pytest.raises(ValueError):
            allocate_block_sparsity(2, 1, [5, 5, 5])

    def test_mlp_dense_equivalence_through_blocks(self):
        xs, labs = gen_class_blobs(18, 3, 2, seed=19)
        prob = MLPProblem([3, 4, 2], xs, labs)
        base = dict(problem=prob, eta=0.3, m=4, T=3, B=9, b=3, seed=2,
                    keep_iterates=True, record_grad_norm=False)
        _, sparse = run_sparse_spiderboost(RunConfig(k1=5, k2=prob.d - 5, **base))
        _, dense = run_spiderboost_dense(RunConfig(k1=0, k2=prob.d, **base))
        for xs_j, xd_j in zip(sparse.iterates, dense.iterates):
            assert np.array_equal(xs_j, xd_j)


class TestSgd:
    def test_exact_contraction_full_batch(self):
        prob = quadratic_problem()
        x0 = np.array([1.0, -2.0, 4.0, -8.0])
        x_out, record = run_sgd(SgdConfig(problem=prob, eta=0.5, b=4, steps=6,
                                          seed=0, x0=x0, record_every=1))
        assert np.array_equal(x_out, 0.5 ** 6 * x0)
        assert record.meter.units == Fraction(6 * 4)

    def test_stops_at_the_first_row_that_meets_the_target(self):
        # full batches halve x, and grad f(x) = x: ||grad|| = sqrt(85) / 2^t
        prob = quadratic_problem()
        x0 = np.array([1.0, -2.0, 4.0, -8.0])
        x_out, record = run_sgd(SgdConfig(
            problem=prob, eta=0.5, b=4, steps=10, seed=0, x0=x0,
            record_every=1, target_grad_norm=1.0))
        norms = [row.grad_norm for row in record.rows]
        assert len(norms) == 4 < 10
        assert norms[-1] <= 1.0 < min(norms[:-1])
        assert np.array_equal(x_out, 0.5 ** 4 * x0)
        assert record.meter.units == Fraction(4 * 4)

    def test_zero_gradient_start_is_fixed_point(self):
        prob = quadratic_problem()
        x_out, _ = run_sgd(SgdConfig(problem=prob, eta=0.5, b=4, steps=5,
                                     seed=1))
        assert np.array_equal(x_out, np.zeros(4))

    def test_first_step_matches_dense_variance_reduction(self):
        # with full batches both methods take x0 - eta*grad f(x0) first
        a, b, _ = gen_gaussian_ls(20, 5, seed=20)
        prob = LeastSquaresProblem(a, b)
        eta = 0.2
        expect = -eta * prob.full_grad(np.zeros(5))
        _, sgd_rec = run_sgd(SgdConfig(problem=prob, eta=eta, b=prob.n,
                                       steps=1, seed=3, record_every=1))
        cfg = RunConfig(problem=prob, eta=eta, m=1, T=1, B=prob.n, b=prob.n,
                        k1=0, k2=5, seed=3, keep_iterates=True)
        _, sb_rec = run_spiderboost_dense(cfg)
        np.testing.assert_array_equal(sb_rec.iterates[0], expect)
        assert sgd_rec.rows[0].loss == pytest.approx(prob.full_loss(expect))

    def test_eta_decay_reduces_late_steps(self):
        a, b, _ = gen_gaussian_ls(16, 4, seed=21)
        prob = LeastSquaresProblem(a, b)
        flat = SgdConfig(problem=prob, eta=0.3, b=4, steps=40, seed=4,
                         record_every=40)
        _, rec_flat = run_sgd(flat)
        _, rec_decay = run_sgd(replace(flat, eta_decay=0.5))
        assert rec_flat.rows[-1].loss != rec_decay.rows[-1].loss

    @pytest.mark.parametrize("bad", [
        dict(eta=math.nan), dict(eta_decay=math.nan), dict(eta_decay=0.0),
        dict(eta_decay=-1.0), dict(target_grad_norm=math.nan),
        dict(target_grad_norm=-1.0), dict(eta=math.inf),
        dict(eta_decay=math.inf)])
    def test_rejects_bad_arguments(self, bad):
        kw = dict(eta=0.3, b=2, steps=4, problem=quadratic_problem(), seed=0)
        with pytest.raises(ValueError):
            SgdConfig(**{**kw, **bad})

    @pytest.mark.parametrize("field, value", [
        ("b", 4.5), ("steps", 3.5), ("record_every", 2.5), ("steps", True),
        ("record_every", True)])
    def test_rejects_non_integer_counts(self, field, value):
        a, b, _ = gen_gaussian_ls(30, 6, seed=12)
        kw = dict(problem=LeastSquaresProblem(a, b), eta=0.1, b=4, steps=6)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SgdConfig(**{**kw, field: value})

    @pytest.mark.parametrize("record_every", [0, -2])
    def test_rejects_record_every_below_one_before_the_first_step(
            self, record_every):
        prob = quadratic_problem()
        calls, real = [], prob.grad_batch

        def grad_batch(idx, x):
            calls.append(idx)
            return real(idx, x)

        prob.grad_batch = grad_batch
        with pytest.raises(ValueError, match="record_every"):
            SgdConfig(problem=prob, eta=0.3, b=2, steps=4, seed=0,
                      record_every=record_every)
        assert calls == []


class TestDivergenceGuard:
    def test_huge_step_aborts_with_reason(self):
        a, b, _ = gen_gaussian_ls(20, 5, seed=22)
        prob = LeastSquaresProblem(a, b)
        cfg = RunConfig(problem=prob, eta=1e6, m=20, T=10, B=8, b=4,
                        k1=2, k2=2, seed=5, record_grad_norm=False)
        x_out, record = run_sparse_spiderboost(cfg)
        assert record.aborted
        assert record.abort_reason
        assert len(record.rows) < 10 or np.isfinite(x_out).all()

    def test_sgd_guard(self):
        a, b, _ = gen_gaussian_ls(20, 5, seed=23)
        prob = LeastSquaresProblem(a, b)
        _, record = run_sgd(SgdConfig(problem=prob, eta=1e8, b=4, steps=200,
                                      seed=6, record_every=1))
        assert record.aborted

    @pytest.mark.parametrize("runner", ["dense", "sparse"])
    def test_last_step_inf_aborts_before_the_diagnostics(self, monkeypatch,
                                                         runner):
        # An Inf from an outer loop's last gradient difference never reaches
        # an iterate; the finiteness check on nu catches it on both paths.
        a, b, _ = gen_gaussian_ls(40, 10, seed=24)
        prob = LeastSquaresProblem(a, b)
        cfg = RunConfig(problem=prob, eta=0.1, m=3, T=2, B=20, b=4, k1=2,
                        k2=3, seed=7, record_grad_norm=False)
        # Oracle calls come in (x_new, x) pairs per inner step, after the
        # snapshot's on the dense path; spoil x_new's at the first loop's last.
        last = 2 * (cfg.m - 1)
        if runner == "dense":
            name, run, bad_call = "grad_batch", run_spiderboost_dense, 1 + last
        else:
            name, run, bad_call = ("grad_batch_restricted",
                                   run_sparse_spiderboost, last)
        real, count = getattr(prob, name), [0]

        def oracle(*args):
            out = real(*args)
            if count[0] == bad_call:
                out[0] = np.inf
            count[0] += 1
            return out

        monkeypatch.setattr(prob, name, oracle)
        x, record = run(cfg)
        assert record.aborted
        assert record.abort_reason == "non-finite direction"
        assert record.rows == [] and np.isfinite(x).all()


class CountingLoss:
    """A stub problem whose full loss is a chosen f(x0); counts its calls."""

    d = 3

    def __init__(self, f0):
        self.f0, self.calls = f0, 0

    def full_loss(self, x):
        self.calls += 1
        return self.f0


class TestLazyCeiling:
    """The divergence ceiling DIVERGENCE_FACTOR*max(|f(x0)|, 1) is never below
    the factor, so f(x0) is evaluated only when a finite loss passes it."""

    def test_no_loss_at_x0_below_the_factor(self):
        f0 = -5e3  # ceiling 5e9
        for loss in (-1e300, 0.0, 1.0, optimize.DIVERGENCE_FACTOR):
            prob = CountingLoss(f0)
            optimize._check_loss(loss, optimize._start(prob, None)[1], "here")
            assert prob.calls == 0

    def test_f0_evaluated_once_above_the_factor(self):
        prob = CountingLoss(-5e3)
        _, ceiling = optimize._start(prob, None)
        for loss in (2e6, 5e9, 1e7):
            optimize._check_loss(loss, ceiling, "here")
            assert prob.calls == 1
        with pytest.raises(optimize._Aborted, match="divergence: loss 5.000e"):
            optimize._check_loss(np.nextafter(5e9, np.inf), ceiling, "here")
        assert prob.calls == 1

    def test_small_f0_gives_the_factor_itself(self):
        prob = CountingLoss(0.5)
        ceiling = optimize._start(prob, None)[1]
        with pytest.raises(optimize._Aborted):
            optimize._check_loss(np.nextafter(1e6, np.inf), ceiling, "here")
        assert prob.calls == 1

    @pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_aborts_without_f0(self, loss):
        prob = CountingLoss(1.0)
        with pytest.raises(optimize._Aborted, match="divergence"):
            optimize._check_loss(loss, optimize._start(prob, None)[1], "here")
        assert prob.calls == 0

    @pytest.mark.parametrize("algorithm", ["sparse", "dense", "sgd"])
    def test_runs_below_the_factor_make_no_pass_at_x0(self, monkeypatch,
                                                      algorithm):
        a, b, _ = gen_gaussian_ls(30, 8, seed=14)
        prob = LeastSquaresProblem(a, b)
        x0 = np.random.default_rng(3).standard_normal(8)
        points = []
        real_loss = prob.full_loss

        def full_loss(x):
            points.append(x.copy())
            return real_loss(x)

        monkeypatch.setattr(prob, "full_loss", full_loss)
        if algorithm == "sgd":
            _, rec = run_sgd(SgdConfig(
                problem=prob, eta=0.05, b=3, steps=12, seed=4, x0=x0,
                record_every=4, record_grad_norm=False))
        else:
            cfg = RunConfig(problem=prob, eta=0.1, m=4, T=3, B=12, b=3,
                            k1=2, k2=2, seed=3, x0=x0, record_grad_norm=False)
            run = run_sparse_spiderboost if algorithm == "sparse" else run_spiderboost_dense
            _, rec = run(cfg)
        assert not rec.aborted and len(rec.rows) == 3
        assert max(r.loss for r in rec.rows) <= optimize.DIVERGENCE_FACTOR
        assert len(points) == 3  # one per row
        assert not any(np.array_equal(p, x0) for p in points)


class TestInnerLoopSchedule:
    def test_linear_interpolation_of_steps(self):
        prob = quadratic_problem()
        x0 = np.array([1.0, 1.0, 1.0, 1.0])
        eta, eta_end, m = 0.8, 0.2, 2
        cfg = RunConfig(problem=prob, eta=eta, m=m, T=1, B=4, b=4,
                        k1=0, k2=4, seed=7, x0=x0, eta_end=eta_end,
                        keep_iterates=True)
        _, record = run_sparse_spiderboost(cfg)
        eta1 = eta_end + (eta - eta_end) * (1 - 1 / m)
        expect = (1 - eta) * (1 - eta1) * x0
        np.testing.assert_allclose(record.iterates[0], expect, rtol=1e-12)


class TestOneStepVarianceBound:
    def test_update_variance_below_sgd_plus_capture_term(self):
        # after a fresh exact snapshot, the variance of nu_1 must sit below
        # the size-b gradient variance at x_1 plus the operator's residual
        # term, up to Monte-Carlo error
        a, b_vec, _ = gen_gaussian_ls(40, 10, seed=24)
        prob = LeastSquaresProblem(a, b_vec)
        rng = np.random.default_rng(25)
        x0 = rng.standard_normal(10)
        eta, b, k1, k2 = 0.2, 6, 3, 3
        p = SparsityParams(k1, k2, 10)
        nu0 = prob.full_grad(x0)
        x1 = x0 - eta * nu0
        memory = np.abs(nu0)

        def estimator(stream):
            idx = sample_batch(prob.n, b, stream)
            diff = prob.grad_batch(idx, x1) - prob.grad_batch(idx, x0)
            return nu0 + rtop(memory, diff, p, stream)

        trials = 3000
        lhs = estimate_estimator_variance(estimator, trials, RngStream(26, 3))

        comps = prob.grad_components(np.arange(prob.n), x1)
        pop_var = comps.var(axis=0).sum()
        sgd_var = pop_var * (prob.n - b) / (b * (prob.n - 1))
        cap = measure_g_G(prob, select_top_k1(memory, k1), x1, x0, b)
        rhs = sgd_var + (10 - k1 - k2) / k2 * cap.R
        assert lhs <= rhs * (1 + 4.0 / math.sqrt(trials)) + 1e-12
