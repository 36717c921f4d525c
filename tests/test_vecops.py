import numpy as np
import pytest

from sparsevr.vecops import as_vector, norm2_sq


class TestNorm2Sq:
    def test_three_four_five(self):
        assert norm2_sq(np.array([3.0, 4.0])) == 25.0

    def test_zero_vector(self):
        assert norm2_sq(np.zeros(7)) == 0.0

    def test_hand_checked_sum(self):
        # 625 + 576 + 169 + 144, checked by integer arithmetic
        v = np.array([-25.0, -24.0, 13.0, 12.0])
        expect = sum(int(x) ** 2 for x in v)
        assert expect == 1514
        assert norm2_sq(v) == float(expect)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(1, 16)))
            if np.any(v != 0):
                assert norm2_sq(v) > 0.0


class TestAsVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)
