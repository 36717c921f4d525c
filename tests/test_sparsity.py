import math

import numpy as np
import pytest

from sparsevr import sparsity
from sparsevr.optimize import ema_update
from sparsevr.sampling import RngStream
from sparsevr.sparsity import (ENUMERATION_GUARD, SparsityParams, build_update,
                               draw_support, rtop, rtop_enumerate,
                               select_top_k1, top_neg_k1)
from sparsevr.vecops import densify, norm2_sq

SCORE = np.array([11.0, 12.0, 13.0, -14.0, -15.0])
Y = np.array([-25.0, -24.0, 13.0, 12.0, 11.0])


def sorted_topk_reference(score, k1):
    """Full-sort oracle: first k1 of a sort by (-|score|, index)."""
    order = np.lexsort((np.arange(score.size), -np.abs(score)))
    return set(order[:k1].tolist())


class TestSparsityParams:
    def test_valid(self):
        SparsityParams(1, 1, 5)
        SparsityParams(0, 3, 3)
        SparsityParams(4, 0, 4)  # identity degenerate

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            SparsityParams(0, 0, 3)

    def test_rejects_k2_zero_with_room_left(self):
        with pytest.raises(ValueError):
            SparsityParams(2, 0, 4)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            SparsityParams(3, 3, 5)

    def test_scale_is_exactly_one_when_full(self):
        assert SparsityParams(2, 3, 5).scale == 1.0
        assert SparsityParams(5, 0, 5).scale == 1.0


class TestSelectTopK1:
    def test_largest_absolute_value_wins(self):
        assert select_top_k1(SCORE, 1).tolist() == [4]

    def test_tie_break_by_lowest_index(self):
        assert select_top_k1(np.array([7.0, 7.0, 7.0]), 2).tolist() == [0, 1]

    def test_k1_zero_is_empty(self):
        assert select_top_k1(SCORE, 0).size == 0

    def test_k1_equals_d(self):
        assert select_top_k1(SCORE, 5).tolist() == [0, 1, 2, 3, 4]

    def test_k1_out_of_range(self):
        with pytest.raises(ValueError):
            select_top_k1(SCORE, 6)

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError):
            select_top_k1(np.array([1.0, np.nan]), 1)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            d = int(rng.integers(1, 33))
            k1 = int(rng.integers(0, d + 1))
            if rng.random() < 0.5:
                # quantized values force duplicate magnitudes
                score = rng.integers(-3, 4, size=d).astype(float)
            else:
                score = rng.standard_normal(d)
            got = select_top_k1(score, k1)
            assert set(got.tolist()) == sorted_topk_reference(score, k1)
            assert np.all(np.diff(got) > 0)


def random_memory_and_previous(rng):
    """A nonnegative block, k1 in [1, d-1] and a size-k1 index set.

    Memory is quantized (many ties at the threshold), all zero, or
    continuous.  The index set is arbitrary, or the true top-k1 of the
    memory one EMA step earlier, as the optimizer carries it.
    """
    d = int(rng.integers(2, 41))
    k1 = int(rng.integers(1, d))
    kind = rng.integers(3)
    if kind == 0:
        memory = rng.integers(0, 4, size=d).astype(float)
    elif kind == 1:
        memory = np.zeros(d)
    else:
        memory = np.abs(rng.standard_normal(d))
    if rng.random() < 0.5:
        prev = rng.choice(d, size=k1, replace=False)
    else:
        prev = select_top_k1(memory, k1)
        nu = rng.integers(-3, 4, size=d).astype(float)
        memory = ema_update(memory, nu, float(rng.choice([0.0, 0.5, 1.0])))
    return memory, k1, prev


class TestTopK1FromPrevious:
    """The selection bounded by a previous one equals select_top_k1."""

    def test_equals_full_selection(self):
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            memory, k1, prev = random_memory_and_previous(rng)
            got = sparsity._top_k1_above_prev(memory, k1, prev)
            assert got.dtype == np.int64
            assert np.array_equal(got, select_top_k1(memory, k1))

    def test_draw_support_with_previous_draws_the_same_support(self):
        rng = np.random.default_rng(62)
        for trial in range(300):
            memory, k1, prev = random_memory_and_previous(rng)
            d = memory.size
            p = SparsityParams(k1, int(rng.integers(1, d - k1 + 1)), d)
            stream, ref = RngStream(trial, 3), RngStream(trial, 3)
            got = draw_support(memory, p, stream, prev)
            want = draw_support(memory, p, ref)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert stream.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("inside_prev", [True, False])
    def test_rejects_nan_and_inf_anywhere(self, bad, inside_prev):
        rng = np.random.default_rng(63)
        for _ in range(200):
            memory, k1, prev = random_memory_and_previous(rng)
            outside = np.setdiff1d(np.arange(memory.size), prev)
            memory[rng.choice(prev if inside_prev else outside)] = bad
            with pytest.raises(ValueError):
                select_top_k1(memory, k1)
            with pytest.raises(ValueError):
                sparsity._top_k1_above_prev(memory, k1, prev)

    def test_rejects_a_previous_set_with_repeats(self):
        # b = 3 leaves one candidate for two slots
        with pytest.raises(ValueError, match="distinct"):
            sparsity._top_k1_above_prev(np.arange(4.0), 2, np.array([3, 3]))


class TestTopNegK1:
    def test_masks_top_coordinate(self):
        out = top_neg_k1(SCORE, Y, 1)
        # top index is 4; frozen from the full-sort oracle
        assert sorted_topk_reference(SCORE, 1) == {4}
        assert out.tolist() == [-25.0, -24.0, 13.0, 12.0, 0.0]

    def test_k1_zero_keeps_everything(self):
        assert top_neg_k1(SCORE, Y, 0).tolist() == Y.tolist()

    def test_k1_d_zeroes_everything(self):
        assert top_neg_k1(SCORE, Y, 5).tolist() == [0.0] * 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            top_neg_k1(SCORE, Y[:4], 1)


class TestRtop:
    def test_worked_example_forced_subset(self):
        # With the random slot forced to index 1, the rescaled output is
        # exactly (0, -96, 0, 0, 11): 4*(-24) on the random slot, y_4 kept.
        p = SparsityParams(1, 1, 5)
        upd = build_update(np.array([4]), np.array([1]), p, Y)
        assert densify(upd).tolist() == [0.0, -96.0, 0.0, 0.0, 11.0]

    def test_worked_example_support_distribution(self):
        p = SparsityParams(1, 1, 5)
        rng = RngStream(3, 3)
        seen = set()
        for _ in range(200):
            top, rand = draw_support(SCORE, p, rng)
            assert top.tolist() == [4]
            seen.add(int(rand[0]))
        assert seen == {0, 1, 2, 3}

    def test_identity_when_k_equals_d(self):
        rng = RngStream(5, 3)
        for k1 in range(5 + 1):
            p = SparsityParams(k1, 5 - k1, 5)
            if p.k2 == 0 and k1 != 5:
                continue
            upd = rtop(SCORE, Y, p, rng)
            assert np.array_equal(densify(upd), Y)

    def test_zero_vector_gives_zero_values(self):
        p = SparsityParams(2, 1, 5)
        upd = rtop(SCORE, np.zeros(5), p, RngStream(6, 3))
        assert np.all(upd.values == 0.0)

    def test_support_size_and_disjointness(self):
        rng = np.random.default_rng(9)
        stream = RngStream(9, 3)
        for _ in range(300):
            d = int(rng.integers(2, 20))
            k1 = int(rng.integers(0, d))
            k2 = int(rng.integers(1, d - k1 + 1))
            p = SparsityParams(k1, k2, d)
            score = rng.standard_normal(d)
            top, rand = draw_support(score, p, stream)
            assert top.size == k1 and rand.size == k2
            assert len(set(top.tolist()) & set(rand.tolist())) == 0
            upd = build_update(top, rand, p, rng.standard_normal(d))
            assert len(upd) == k1 + k2

    @pytest.mark.parametrize("d, top, k2", [
        (12, [], 5),                          # k1 = 0
        (12, [0, 11], 4),                     # top holds 0 and d - 1
        (40, list(range(5, 20)) + [30, 31, 32], 9),   # long runs in top
        (15, [0, 1, 2, 7, 8, 14], 9),         # k1 + k2 = d
        (9, list(range(1, 9)), 1),            # a single complement index
    ])
    def test_complement_mapping_equals_the_mask_reference(self, d, top, k2):
        score = np.full(d, 0.5)
        score[top] = 2.0 + np.arange(len(top))
        p = SparsityParams(len(top), k2, d)
        stream, ref = RngStream(31, 3), RngStream(31, 3)
        for _ in range(50):
            got_top, rand = draw_support(score, p, stream)
            mask = np.ones(d, dtype=bool)
            mask[top] = False
            want = ref.choose(np.flatnonzero(mask), k2)
            assert got_top.tolist() == top
            assert rand.dtype == np.int64
            assert np.array_equal(rand, want)
        assert stream.integers(0, 2**62) == ref.integers(0, 2**62)

    def test_complement_mapping_on_random_instances(self):
        rng = np.random.default_rng(32)
        for trial in range(300):
            d = int(rng.integers(1, 60))
            k1 = int(rng.integers(0, d))
            k2 = int(rng.integers(1, d - k1 + 1))
            p = SparsityParams(k1, k2, d)
            score = rng.standard_normal(d)
            top, rand = draw_support(score, p, RngStream(trial, 3))
            mask = np.ones(d, dtype=bool)
            mask[top] = False
            want = RngStream(trial, 3).choose(np.flatnonzero(mask), k2)
            assert np.array_equal(rand, want)

    def test_linearity_in_y_under_replayed_subset(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            d = int(rng.integers(2, 16))
            k1 = int(rng.integers(0, d))
            k2 = int(rng.integers(1, d - k1 + 1))
            p = SparsityParams(k1, k2, d)
            score = rng.standard_normal(d)
            y, z = rng.standard_normal(d), rng.standard_normal(d)
            a, b = rng.standard_normal(2)
            stream = RngStream(trial, 3)
            combined = densify(rtop(score, a * y + b * z, p, stream))
            left = densify(rtop(score, y, p, stream.replay()))
            right = densify(rtop(score, z, p, stream.replay()))
            np.testing.assert_allclose(combined, a * left + b * right,
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rtop(SCORE, Y[:4], SparsityParams(1, 1, 5), RngStream(1, 3))

    def test_monte_carlo_mean_within_4_sigma(self):
        rng = np.random.default_rng(11)
        trials = 100_000
        for d, k1, k2 in ((6, 2, 2), (24, 5, 3)):
            p = SparsityParams(k1, k2, d)
            score = rng.standard_normal(d)
            y = rng.standard_normal(d)
            stream = RngStream(d, 3)
            acc = np.zeros(d)
            for _ in range(trials):
                upd = rtop(score, y, p, stream)
                acc[upd.indices] += upd.values
            mean = acc / trials
            resid = top_neg_k1(score, y, k1)
            sd = np.sqrt((d - k1 - k2) / k2) * np.abs(resid)
            # the 1e-10 floor absorbs float accumulation over 1e5 additions
            # on coordinates whose statistical deviation is exactly zero
            tol = 4.0 * sd / math.sqrt(trials) + 1e-10
            assert np.all(np.abs(mean - y) <= tol)


class TestRtopEnumerate:
    def test_worked_example_mean_and_variance(self):
        p = SparsityParams(1, 1, 5)
        mean, var = rtop_enumerate(SCORE, Y, p)
        np.testing.assert_array_equal(mean, Y)
        # per non-top coordinate: value 4*y w.p. 1/4 else 0 -> Var = 3*y^2;
        # 3 * (625 + 576 + 169 + 144) = 4542, exact in float64
        assert var == 4542.0

    def test_full_k_is_deterministic(self):
        _, var = rtop_enumerate(SCORE, Y, SparsityParams(2, 3, 5))
        assert var == 0.0

    def test_zero_y(self):
        mean, var = rtop_enumerate(SCORE, np.zeros(5), SparsityParams(1, 2, 5))
        assert np.all(mean == 0.0)
        assert var == 0.0

    def test_guard_rejects_huge_enumeration(self):
        d = 50
        assert math.comb(d, 25) > ENUMERATION_GUARD
        with pytest.raises(ValueError):
            rtop_enumerate(np.ones(d), np.ones(d), SparsityParams(0, 25, d))

    def test_unbiasedness_and_variance_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(1, 13))
            k1 = int(rng.integers(0, d + 1))
            k2 = int(rng.integers(0, d - k1 + 1))
            if k1 + k2 < 1 or (k2 == 0 and k1 != d):
                continue
            p = SparsityParams(k1, k2, d)
            score = rng.standard_normal(d)
            y = rng.standard_normal(d) * rng.choice([0.1, 1.0, 10.0])
            mean, var = rtop_enumerate(score, y, p)
            np.testing.assert_allclose(mean, y, atol=1e-12)
            if k2 > 0:
                expect = (d - k1 - k2) / k2 * norm2_sq(top_neg_k1(score, y, k1))
            else:
                expect = 0.0
            assert abs(var - expect) <= 1e-9 * max(expect, 1e-9)
