import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtbounds import (
    CriticalVector,
    ErrorRateSpec,
    Family,
    Rate,
    associated_matrix,
    bh_constants,
    bound_vector,
    by_constants,
    gr_sd_constants,
    lr_fdp_constants,
    lr_kfwer_constants,
    rescale,
)


class TestBh:
    def test_n2(self):
        assert bh_constants(2).values.tolist() == [0.5, 1.0]

    def test_n10(self):
        assert np.allclose(bh_constants(10).values, np.arange(1, 11) / 10, atol=0)


class TestLrFdp:
    def test_small_gamma_collapses_to_holm_shape(self):
        c = lr_fdp_constants(10, 0.05)
        assert np.allclose(c.values, 1 / (11 - np.arange(1, 11)), atol=0)

    def test_single(self):
        assert lr_fdp_constants(1, 0.0).values.tolist() == [1.0]

    def test_gamma_step(self):
        assert lr_fdp_constants(25, 0.05).values[19] == pytest.approx(2 / 7, abs=1e-15)


class TestLrKfwer:
    def test_holm_type(self):
        c = lr_kfwer_constants(10, 1)
        assert np.allclose(c.values, 1 / (11 - np.arange(1, 11)), atol=0)

    def test_below_k_held_at_value_at_k(self):
        c = lr_kfwer_constants(5, 5)
        assert c.values.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]
        c = lr_kfwer_constants(10, 4)
        assert np.allclose(c.values[:3], 0.4, atol=0)
        assert c.values[3] == pytest.approx(4 / 10, abs=0)

    def test_single(self):
        assert lr_kfwer_constants(1, 1).values.tolist() == [1.0]

    def test_holm_thresholds_under_alpha(self):
        alpha = 0.05
        thr = alpha * lr_kfwer_constants(8, 1).values
        assert np.allclose(thr, alpha / (9 - np.arange(1, 9)), atol=0)


class TestBy:
    def test_single(self):
        assert by_constants(1).values.tolist() == [1.0]

    def test_n3(self):
        assert np.allclose(by_constants(3).values, [2 / 11, 4 / 11, 6 / 11], atol=1e-15)

    def test_n10_top(self):
        h10 = sum(1 / j for j in range(1, 11))
        assert by_constants(10).values[-1] == pytest.approx(1 / h10, abs=1e-12)
        assert by_constants(10).values[-1] == pytest.approx(0.341417, abs=1e-6)


class TestGrSd:
    def test_single(self):
        assert gr_sd_constants(1).values.tolist() == [1.0]

    def test_n2(self):
        c = gr_sd_constants(2)
        assert np.allclose(c.values, [0.5, 1.0], atol=1e-15)

    def test_n10_against_bruteforce(self):
        n = 10
        best = max(
            (i / n) * (sum(1 / j for j in range(1, n - i + 2))
                       + (n - i) / (n - i + 1) - (n - i) / n)
            for i in range(1, n + 1)
        )
        assert np.allclose(gr_sd_constants(n).values, np.arange(1, n + 1) / (n * best),
                           atol=1e-14)


@given(n=st.integers(1, 1000))
def test_families_monotone_nonnegative(n):
    vectors = [bh_constants(n), by_constants(n), gr_sd_constants(n)]
    vectors.append(lr_fdp_constants(n, 0.1))
    vectors.append(lr_kfwer_constants(n, max(1, n // 2)))
    for c in vectors:
        assert np.all(c.values >= 0)
        assert np.all(np.diff(c.values) >= 0)


@given(n=st.integers(1, 300))
def test_by_and_gr_dominated_by_bh(n):
    bh = bh_constants(n).values
    assert np.all(by_constants(n).values <= bh + 1e-15)
    assert np.all(gr_sd_constants(n).values <= bh + 1e-15)


class TestRescale:
    def test_lr_fixed_point(self):
        A = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 30, k=4))
        c = lr_kfwer_constants(30, 4)
        rescaled, divisor = rescale(c, A)
        assert divisor == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rescaled.values, c.values, atol=1e-12)

    def test_identity_after_rescale(self):
        for matrix, c in [
            (associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)), bh_constants(50)),
            (associated_matrix(ErrorRateSpec(Rate.FDP_SD, 37, gamma=0.1)),
             lr_fdp_constants(37, 0.1)),
        ]:
            rescaled, divisor = rescale(c, matrix)
            assert np.max(bound_vector(matrix.spec, rescaled)) == pytest.approx(1.0, abs=1e-12)
            assert rescaled.family is Family.RESCALED

    def test_divisor_attained_at_row_32(self):
        spec = ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)
        bounds = bound_vector(spec, bh_constants(50))
        assert int(np.argmax(bounds)) + 1 == 32

    @given(scale=st.floats(0.001, 1000.0))
    def test_homogeneity(self, scale):
        A = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 12, gamma=0.1))
        c = bh_constants(12)
        base, _ = rescale(c, A)
        scaled, _ = rescale(CriticalVector(c.values * scale), A)
        assert np.allclose(base.values, scaled.values, rtol=1e-12, atol=0)

    def test_zero_bound_is_error(self):
        # rows 1-2 zero, nonzero rows touch columns 3..5
        A = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 5, k=3))
        c = CriticalVector(np.array([0.0, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            rescale(c, A)


class TestCriticalVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            CriticalVector(np.array([0.2, 0.1]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CriticalVector(np.array([-0.1, 0.5]))

    def test_values_above_one_allowed(self):
        CriticalVector(np.array([0.5, 1.5]))

    def test_immutable(self):
        c = bh_constants(4)
        with pytest.raises(ValueError):
            c.values[0] = 9.0

    def test_scaled(self):
        c = bh_constants(4).scaled(0.5)
        assert np.allclose(c.values, np.arange(1, 5) / 8, atol=0)
        with pytest.raises(ValueError):
            bh_constants(4).scaled(0.0)
