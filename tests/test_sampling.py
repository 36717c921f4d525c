import itertools
import math

import numpy as np
import pytest

from sparsevr.sampling import (RngStream, _resolve_swaps, check_geom_lemma,
                               draw_geometric_many, sample_batch)


def reference_subset(stream, n, size):
    """Partial Fisher-Yates over an index array, one swap at a time: the
    oracle `RngStream.subset` must reproduce draw for draw."""
    arr = np.arange(n, dtype=np.int64)
    offsets = stream._gen.integers(0, n - np.arange(size))
    for i in range(size):
        j = i + int(offsets[i])
        arr[i], arr[j] = arr[j], arr[i]
    sel = arr[:size]
    sel.sort()
    return sel


def lexsort_resolve_swaps(j):
    """`_resolve_swaps` as it was with a two-key lexsort grouping the steps
    by (target, step), kept as the reference for its one-key sort."""
    size = j.size
    steps = np.arange(size)
    order = np.lexsort((steps, j))
    by_target = j[order]
    same = by_target[1:] == by_target[:-1]
    if not same.any():
        return j
    prev = np.full(size, -1)
    prev[order[1:][same]] = order[:-1][same]
    ends = np.flatnonzero(np.append(~same, True))
    ends = ends[by_target[ends] < size]
    link = steps.copy()
    link[by_target[ends]] = order[ends]
    while True:
        jumped = link[link]
        if np.array_equal(jumped, link):
            break
        link = jumped
    return np.where(prev < 0, j, link[prev])


def subset_cases():
    """(seed, n, size) for the comparison with the reference loop."""
    rng = np.random.default_rng(2024)
    cases = [(1, 200_000, 2_000), (2, 199_000, 2_008), (3, 2, 1), (4, 1, 1)]
    for _ in range(2_000):
        n = int(rng.integers(2, 400))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            size = 1
        elif kind == 1:
            size = n - 1
        elif kind == 2:   # size close to n: many steps hit an earlier target
            size = max(1, n - int(rng.integers(0, 4)))
        else:
            size = int(rng.integers(1, n + 1))
        cases.append((int(rng.integers(0, 2**32)), n, size))
    for n in range(2, 12):   # small n: most steps hit an earlier target
        cases += [(7 * n + size, n, size) for size in range(1, n + 1)]
    return cases


class TestRngStream:
    def test_golden_integer_sequence(self):
        # Frozen draws pin cross-platform reproducibility of the Philox stream.
        s = RngStream(42, 1)
        assert [s.integers(0, 1000) for _ in range(8)] == \
            [870, 443, 171, 816, 568, 509, 94, 387]

    def test_golden_subset_sequence(self):
        s = RngStream(42, 1)
        assert s.subset(10, 4).tolist() == [0, 3, 4, 8]
        assert s.subset(10, 4).tolist() == [0, 1, 2, 5]

    def test_subset_equals_the_reference_loop(self):
        cases = subset_cases()
        assert len(cases) >= 2_000
        for seed, n, size in cases:
            stream, ref = RngStream(seed, 3), RngStream(seed, 3)
            got = stream.subset(n, size)
            want = ref.subset(n, size) if size == n else reference_subset(ref, n, size)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (seed, n, size)
            # the stream is left where the reference loop leaves it
            assert stream.integers(0, 2**62) == ref.integers(0, 2**62)

    def test_replay_is_bit_identical(self):
        s = RngStream(123, 9)
        first = [s.random() for _ in range(20)]
        r = s.replay()
        second = [r.random() for _ in range(20)]
        assert first == second

    def test_distinct_streams_differ(self):
        a = RngStream(5, 1)
        b = RngStream(5, 2)
        assert [a.integers(0, 10**9) for _ in range(4)] != \
            [b.integers(0, 10**9) for _ in range(4)]

    def test_subset_bounds(self):
        s = RngStream(0, 0)
        with pytest.raises(ValueError):
            s.subset(3, 4)
        assert s.subset(3, 0).size == 0
        assert s.subset(4, 4).tolist() == [0, 1, 2, 3]

    def test_subset_rejects_overflowing_sort_keys(self):
        s, fresh = RngStream(8, 3), RngStream(8, 3)
        with pytest.raises(ValueError, match="overflows"):
            s.subset(2**62, 2)   # n*size == 2**63
        assert s.integers(0, 2**62) == fresh.integers(0, 2**62)
        # one below the bound the keys fit, and nothing n-long is built
        sel = s.subset(2**62 - 1, 2)
        assert sel.dtype == np.int64 and sel.size == 2
        assert 0 <= sel[0] < sel[1] < 2**62 - 1

    def test_subset_sorted_unique(self):
        s = RngStream(17, 3)
        for _ in range(200):
            sel = s.subset(23, 7)
            assert sel.size == 7
            assert np.all(np.diff(sel) > 0)

    def test_choose_draws_from_pool(self):
        s = RngStream(2, 2)
        pool = np.array([3, 11, 40, 41, 99])
        for _ in range(50):
            sel = s.choose(pool, 2)
            assert set(sel.tolist()) <= set(pool.tolist())
            assert np.all(np.diff(sel) > 0)


class TestResolveSwaps:
    def test_same_as_the_lexsort_formulation(self):
        rng = np.random.default_rng(2026)
        cases = [(200_000, 2_000), (198_951, 2_008), (10_000, 1_000)]
        for n in (2, 3, 17, 300, 5_000):
            # size close to n: most steps target a position an earlier
            # step already swapped, so groups are long and chains deep
            cases += [(n, size) for size in (1, n // 2, max(1, n - 3), n - 1, n)]
        for _ in range(300):
            n = int(rng.integers(2, 3_000))
            cases.append((n, int(rng.integers(1, n + 1))))
        collided = 0
        for n, size in cases:
            steps = np.arange(size)
            j = steps + rng.integers(0, n - steps)
            want = lexsort_resolve_swaps(j.copy())
            got = _resolve_swaps(j.copy())
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n, size)
            collided += np.unique(j).size < j.size
        assert collided >= 100


class TestSampleBatch:
    def test_full_batch_is_all_indices(self):
        assert sample_batch(5, 5, RngStream(1, 1)).tolist() == [0, 1, 2, 3, 4]

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            sample_batch(2, 3, RngStream(1, 1))
        with pytest.raises(ValueError):
            sample_batch(2, 0, RngStream(1, 1))

    def test_two_choose_one_frequencies(self):
        rng = RngStream(101, 1)
        trials = 100_000
        hits = sum(int(sample_batch(2, 1, rng)[0]) for _ in range(trials))
        assert abs(hits / trials - 0.5) < 0.01

    def test_four_choose_two_pair_frequencies(self):
        rng = RngStream(55, 1)
        trials = 100_000
        counts = {}
        for _ in range(trials):
            key = tuple(sample_batch(4, 2, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for pair in itertools.combinations(range(4), 2):
            assert abs(counts[pair] / trials - 1 / 6) < 0.01

    def test_five_choose_two_uniform_within_3_sigma(self):
        rng = RngStream(77, 1)
        trials = 1_000_000
        counts = {}
        for _ in range(trials):
            key = tuple(sample_batch(5, 2, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        p = 1 / 10
        sigma = math.sqrt(p * (1 - p) / trials)
        assert len(counts) == 10
        for pair in itertools.combinations(range(5), 2):
            assert abs(counts[pair] / trials - p) <= 3.5 * sigma


class TestGeometric:
    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            draw_geometric_many(0.0, RngStream(3, 2), 1)

    def test_sample_mean_near_m(self):
        draws = draw_geometric_many(10.0, RngStream(3, 2), 1_000_000)
        assert 9.9 <= float(draws.mean()) <= 10.1

    def test_mass_at_zero(self):
        draws = draw_geometric_many(10.0, RngStream(4, 2), 1_000_000)
        p0 = float(np.mean(draws == 0))
        assert abs(p0 - 1 / 11) < 0.003

    def test_chi_square_goodness_of_fit(self):
        # First 20 support points plus the tail bucket; critical value is
        # the 0.999 quantile of chi-square with 20 degrees of freedom.
        m = 6.0
        n = 1_000_000
        draws = draw_geometric_many(m, RngStream(8, 2), n)
        gamma = m / (m + 1)
        probs = [(gamma ** k) * (1 - gamma) for k in range(20)]
        tail = 1.0 - sum(probs)
        observed = [int(np.sum(draws == k)) for k in range(20)]
        observed.append(n - sum(observed))
        expected = [n * q for q in probs] + [n * tail]
        stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        chi2_20_999 = 45.315
        assert stat < chi2_20_999


class TestGeomLemma:
    def test_linear_sequence(self):
        # D_t = t: E D_N = m forces both sides to -1.
        lhs, rhs = check_geom_lemma(5.0, lambda t: t.astype(float),
                                    1_000_000, RngStream(21, 5))
        assert abs(lhs + 1.0) < 0.02
        assert abs(rhs + 1.0) < 0.02

    def test_constant_sequence_exact(self):
        lhs, rhs = check_geom_lemma(4.0, lambda t: np.full(t.shape, 3.25),
                                    10_000, RngStream(22, 5))
        assert lhs == 0.0
        assert rhs == 0.0

    def test_quadratic_sequence_against_analytic(self):
        # E N^2 = 2m^2 + m makes both sides -(2m+1).
        m = 3.0
        lhs, rhs = check_geom_lemma(m, lambda t: t.astype(float) ** 2,
                                    1_000_000, RngStream(23, 5))
        analytic = -(2 * m + 1)
        assert abs(lhs - analytic) <= 0.05 * abs(analytic)
        assert abs(rhs - analytic) <= 0.05 * abs(analytic)
        assert abs(lhs - rhs) <= 0.05 * abs(analytic)
