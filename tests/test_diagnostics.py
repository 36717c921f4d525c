import math
from fractions import Fraction

import numpy as np
import pytest

from sparsevr.diagnostics import (QueryMeter, entropy_bits,
                                  estimate_estimator_variance, measure_g_G)
from sparsevr import problems
from sparsevr.problems import (LeastSquaresProblem, MLPProblem,
                               estimate_constants, gen_class_blobs,
                               gen_gaussian_ls)
from sparsevr.sampling import RngStream, sample_batch
from sparsevr.sparsity import SparsityParams, rtop, select_top_k1, top_neg_k1
from sparsevr.vecops import norm2_sq


class TestQueryMeter:
    def test_snapshot_cost(self):
        m = QueryMeter()
        m.charge_snapshot(200, 10_000)
        assert m.units == Fraction(200)

    def test_snapshot_clamps_to_population(self):
        m = QueryMeter()
        m.charge_snapshot(500, 100)
        assert m.units == Fraction(100)

    def test_inner_cost_is_exact_rational(self):
        m = QueryMeter()
        m.charge_inner(10, 10, 100)
        assert m.units == Fraction(2)  # 2 * 10 * 10 / 100

    def test_one_outer_loop_total(self):
        # snapshot 200 plus 200 inner steps at 2 units each -> 600
        m = QueryMeter()
        m.charge_snapshot(200, 10_000)
        for _ in range(200):
            m.charge_inner(10, 10, 100)
        assert m.units == Fraction(600)

    def test_sgd_cost(self):
        m = QueryMeter()
        m.charge_sgd(7)
        assert m.units == Fraction(7)

    def test_units_equal_event_log_recomputation(self):
        m = QueryMeter()
        rng = np.random.default_rng(1)
        expect = Fraction(0)
        for _ in range(200):
            kind = rng.integers(0, 3)
            if kind == 0:
                batch, n = int(rng.integers(1, 50)), int(rng.integers(1, 50))
                m.charge_snapshot(batch, n)
                expect += min(batch, n)
            elif kind == 1:
                d = int(rng.integers(1, 30))
                b, k = int(rng.integers(1, 20)), int(rng.integers(1, d + 1))
                m.charge_inner(b, k, d)
                expect += Fraction(2 * b * k, d)
            else:
                b = int(rng.integers(1, 20))
                m.charge_sgd(b)
                expect += b
        assert m.units == expect

    def test_event_log_is_bounded_by_distinct_events(self):
        m = QueryMeter()
        for _ in range(10_000):
            m.charge_inner(10, 3, 100)
        assert len(m.events) == 1
        assert m.units == 10_000 * Fraction(2 * 10 * 3, 100) == Fraction(6000)

    def test_units_derive_from_the_event_counts(self):
        m = QueryMeter()
        m.events[("inner", 10, 3, 7)] += 2
        assert m.units == Fraction(120, 7)

    def test_an_assigned_total_is_counted_as_an_event(self):
        m = QueryMeter()
        m.charge_sgd(3)
        m.units += Fraction(1, 12)
        assert m.units == Fraction(37, 12)
        m.charge_sgd(3)
        assert m.units == Fraction(73, 12)
        assert sum(m.events.values()) == 3

    def test_rejects_nonpositive_parameters(self):
        m = QueryMeter()
        with pytest.raises(ValueError):
            m.charge_inner(0, 1, 1)
        with pytest.raises(ValueError):
            m.charge_snapshot(1, 0)


class TestEntropyBits:
    def test_uniform_power_of_two(self):
        for k in (1, 3, 8):
            assert entropy_bits(np.ones(2 ** k)) == pytest.approx(k, abs=1e-12)

    def test_one_hot_is_zero(self):
        v = np.zeros(64)
        v[17] = 3.0
        assert entropy_bits(v) == 0.0

    def test_fully_connected_max_entropy(self):
        # 3072*100 + 100 + 100*10 + 10 parameters
        d = 3072 * 100 + 100 + 100 * 10 + 10
        assert d == 308310
        assert entropy_bits(np.ones(d)) == pytest.approx(18.234, abs=1e-3)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            entropy_bits(np.zeros(4))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            entropy_bits(np.array([0.5, -0.1]))

    def test_bounded_by_log2_d(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 40))
            v = rng.random(d)
            h = entropy_bits(v)
            assert -1e-12 <= h <= math.log2(d) + 1e-12

    def test_concentration_decreases_entropy(self):
        # moving mass from a small entry onto the largest strictly majorizes
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.random(10) + 0.1
            lo, hi = int(np.argmin(v)), int(np.argmax(v))
            shifted = v.copy()
            delta = 0.5 * v[lo]
            shifted[lo] -= delta
            shifted[hi] += delta
            assert entropy_bits(shifted) < entropy_bits(v)


class TestMeasureGG:
    def _problem(self):
        a, b, _ = gen_gaussian_ls(30, 8, seed=4)
        return LeastSquaresProblem(a, b)

    def test_zero_difference_gives_zero(self):
        p = self._problem()
        x = np.ones(8)
        cap = measure_g_G(p, np.array([0, 1]), x, x, b=4)
        assert cap.g == 0.0 and cap.G == 0.0 and cap.R == 0.0

    def test_full_mask_gives_zero(self):
        p = self._problem()
        rng = np.random.default_rng(5)
        cap = measure_g_G(p, np.arange(8), rng.standard_normal(8),
                          rng.standard_normal(8), b=4)
        assert cap.g == 0.0 and cap.G == 0.0

    def test_g_at_most_G(self):
        p = self._problem()
        rng = np.random.default_rng(6)
        for _ in range(25):
            memory = rng.random(8) + 0.01
            x0 = rng.standard_normal(8)
            x1 = x0 + 0.1 * rng.standard_normal(8)
            cap = measure_g_G(p, select_top_k1(memory, 3), x1, x0, b=4)
            assert cap.g <= cap.G * (1 + 1e-9) + 1e-12
            assert cap.R == pytest.approx(cap.g + cap.G / 4)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_component_sweeps_stay_under_the_chunk_limit(self, monkeypatch,
                                                         rows):
        # With the limit cut to `rows` rows of d floats, every per-component
        # matrix that measure_g_G and estimate_constants ask for fits under
        # it, and g, G and sigma^2 match the one-chunk sweep.
        xs, labs = gen_class_blobs(40, 6, 3, seed=30)
        p = MLPProblem([6, 5, 3], xs, labs)
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal(p.d)
        x1 = x0 + 0.1 * rng.standard_normal(p.d)
        memory = rng.random(p.d)

        def sweeps():
            cap = measure_g_G(p, select_top_k1(memory, 9), x1, x0, b=4)
            sigma2 = estimate_constants(p, [x0, x1], reference=None).sigma2
            return cap.g, cap.G, sigma2

        whole = sweeps()
        limit = rows * p.d + p.d - 1
        monkeypatch.setattr(problems, "CHUNK_FLOATS", limit)
        sizes, real = [], p.grad_components

        def grad_components(idx, x):
            out = real(idx, x)
            sizes.append((len(idx), out.size))
            return out

        monkeypatch.setattr(p, "grad_components", grad_components)
        chunked = sweeps()
        # measure_g_G sweeps twice per chunk, estimate_constants once per probe
        assert len(sizes) == 4 * math.ceil(p.n / rows)
        assert all(size <= limit and n_rows <= rows for n_rows, size in sizes)
        assert chunked[0] == whole[0]   # g comes from the full gradients
        for got, want in zip(chunked[1:], whole[1:]):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_matches_dense_oracle(self):
        # recompute g and G directly from masked per-component differences
        p = self._problem()
        rng = np.random.default_rng(7)
        memory = rng.random(8)
        x0, x1 = rng.standard_normal(8), rng.standard_normal(8)
        k1 = 3
        cap = measure_g_G(p, select_top_k1(memory, k1), x1, x0, b=5)
        g_oracle = norm2_sq(top_neg_k1(memory, p.full_grad(x1) - p.full_grad(x0), k1))
        per = [norm2_sq(top_neg_k1(memory,
                                   p.grad_batch(np.array([i]), x1)
                                   - p.grad_batch(np.array([i]), x0), k1))
               for i in range(p.n)]
        np.testing.assert_allclose(cap.g, g_oracle, rtol=1e-12)
        np.testing.assert_allclose(cap.G, np.mean(per), rtol=1e-12)

    def test_captured_structure_gives_zero_residual(self):
        # gradient differences concentrated on coordinates the memory ranks
        # on top leave nothing outside the selection
        a = np.zeros((6, 8))
        a[:, 0] = 1.0
        a[:, 1] = np.linspace(0.5, 1.0, 6)
        p = LeastSquaresProblem(a, np.ones(6))
        memory = np.zeros(8)
        memory[[0, 1]] = (10.0, 9.0)
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(8)
        x1 = x0 + rng.standard_normal(8)
        cap = measure_g_G(p, select_top_k1(memory, 2), x1, x0, b=3)
        assert cap.g <= 1e-20 and cap.G <= 1e-20

    def test_subsample_requires_rng(self):
        p = self._problem()
        with pytest.raises(ValueError):
            measure_g_G(p, np.array([0]), np.ones(8), np.zeros(8), b=2,
                        max_components=10)
        cap = measure_g_G(p, np.array([0]), np.ones(8), np.zeros(8), b=2,
                          max_components=10, rng=RngStream(1, 1))
        assert cap.components_used == 10

    def test_arguments_are_checked_before_any_oracle_call(self):
        class NoOracle(LeastSquaresProblem):
            def full_grad(self, x):
                raise RuntimeError("oracle called")

            def grad_components(self, idx, x):
                raise RuntimeError("oracle called")

        a, b, _ = gen_gaussian_ls(30, 8, seed=4)
        p = NoOracle(a, b)
        with pytest.raises(ValueError, match="b must be positive"):
            measure_g_G(p, np.array([0]), np.ones(8), np.zeros(8), b=0)
        for top in (np.array([8]), np.array([-1]), np.array([0.0]),
                    np.zeros((1, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="top must be"):
                measure_g_G(p, top, np.ones(8), np.zeros(8), b=2)


class TestEstimatorVariance:
    def test_deterministic_estimator_is_zero(self):
        p_a, p_b, _ = gen_gaussian_ls(12, 4, seed=9)
        problem = LeastSquaresProblem(p_a, p_b)
        x = np.ones(4)
        var = estimate_estimator_variance(lambda rng: problem.full_grad(x),
                                          trials=50, rng=RngStream(2, 1))
        assert var <= 1e-20

    def test_full_batch_mean_is_zero(self):
        p_a, p_b, _ = gen_gaussian_ls(10, 4, seed=10)
        problem = LeastSquaresProblem(p_a, p_b)
        x = np.ones(4)

        def estimator(rng):
            idx = sample_batch(problem.n, problem.n, rng)
            return problem.grad_batch(idx, x)

        var = estimate_estimator_variance(estimator, trials=20,
                                          rng=RngStream(3, 1))
        assert var <= 1e-20

    def test_pure_random_slot_variance(self):
        # k1=0, k2=1, d=2: variance is (d-k2)/k2 * ||y||^2 = ||y||^2
        y = np.array([1.5, -2.0])
        p = SparsityParams(0, 1, 2)

        def estimator(rng):
            return rtop(np.zeros(2), y, p, rng)

        var = estimate_estimator_variance(estimator, trials=100_000,
                                          rng=RngStream(4, 3))
        assert var == pytest.approx(norm2_sq(y), rel=0.03)

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            estimate_estimator_variance(lambda rng: np.zeros(2), trials=1,
                                        rng=RngStream(5, 1))

    def test_variance_formula_agreement_over_random_instances(self):
        # Monte-Carlo total variance of the operator vs the closed form,
        # within 4 standard errors of the variance estimator itself.
        rng_inst = np.random.default_rng(11)
        trials = 4000
        for _ in range(50):
            d = int(rng_inst.integers(2, 9))
            k1 = int(rng_inst.integers(0, d))
            k2 = int(rng_inst.integers(1, d - k1 + 1))
            p = SparsityParams(k1, k2, d)
            score = rng_inst.standard_normal(d)
            y = rng_inst.standard_normal(d)
            expect = (d - k1 - k2) / k2 * norm2_sq(top_neg_k1(score, y, k1))
            stream = RngStream(int(rng_inst.integers(0, 2 ** 32)), 3)
            draws = np.stack([rtop(score, y, p, stream)
                              for _ in range(trials)])
            var = float(np.sum(draws.var(axis=0, ddof=1)))
            # SE of the total-variance estimate via the spread of the
            # per-draw squared deviations
            q = np.sum((draws - draws.mean(axis=0)) ** 2, axis=1)
            se = float(q.std(ddof=1)) / math.sqrt(trials)
            assert abs(var - expect) <= 4.0 * se + 1e-12
