import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtbounds import (
    CriticalVector,
    ErrorRateSpec,
    Rate,
    associated_matrix,
    bh_constants,
    bound_vector,
    by_constants,
    constants,
    gr_sd_constants,
    rescale,
    rs_constants,
)


class TestBh:
    def test_n2(self):
        assert bh_constants(2).values.tolist() == [0.5, 1.0]

    def test_n10(self):
        assert np.allclose(bh_constants(10).values, np.arange(1, 11) / 10, atol=0)


class TestLrFdp:
    def test_small_gamma_collapses_to_holm_shape(self):
        c = rs_constants(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        assert np.allclose(c.values, 1 / (11 - np.arange(1, 11)), atol=0)

    def test_single(self):
        assert rs_constants(ErrorRateSpec(Rate.FDP_SU, 1, gamma=0.0)).values.tolist() == [1.0]

    def test_gamma_step(self):
        c = rs_constants(ErrorRateSpec(Rate.FDP_SU, 25, gamma=0.05))
        assert c.values[19] == pytest.approx(2 / 7, abs=1e-15)


class TestLrKfwer:
    def test_holm_type(self):
        c = rs_constants(ErrorRateSpec(Rate.KFWER_SU, 10, k=1))
        assert np.allclose(c.values, 1 / (11 - np.arange(1, 11)), atol=0)

    def test_below_k_held_at_value_at_k(self):
        c = rs_constants(ErrorRateSpec(Rate.KFWER_SU, 5, k=5))
        assert c.values.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]
        c = rs_constants(ErrorRateSpec(Rate.KFWER_SU, 10, k=4))
        assert np.allclose(c.values[:3], 0.4, atol=0)
        assert c.values[3] == pytest.approx(4 / 10, abs=0)

    def test_single(self):
        assert rs_constants(ErrorRateSpec(Rate.KFWER_SU, 1, k=1)).values.tolist() == [1.0]

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match=r"k must satisfy 1 <= k <= n=5, got 6"):
            rs_constants(ErrorRateSpec(Rate.KFWER_SU, 5, k=6))

    def test_holm_thresholds_under_alpha(self):
        alpha = 0.05
        thr = alpha * rs_constants(ErrorRateSpec(Rate.KFWER_SU, 8, k=1)).values
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


def test_harmonic_prefix_against_exact_sums():
    # within 1 ulp where longdouble has a 64-bit mantissa or more, within 8
    # where it is a plain double and the sum is float64's
    tolerance = 1 if np.finfo(np.longdouble).nmant >= 63 else 8
    exact = Fraction(0)
    for j, h in enumerate(constants._harmonic_prefix(2000).tolist(), start=1):
        exact += Fraction(1, j)
        assert abs(Fraction(h) - exact) <= tolerance * Fraction(math.ulp(h)), j


@given(n=st.integers(1, 1000))
def test_families_monotone_nonnegative(n):
    vectors = [bh_constants(n), by_constants(n), gr_sd_constants(n)]
    vectors.append(rs_constants(ErrorRateSpec(Rate.FDP_SU, n, gamma=0.1)))
    vectors.append(rs_constants(ErrorRateSpec(Rate.KFWER_SU, n, k=max(1, n // 2))))
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
        c = rs_constants(A.spec)
        rescaled, divisor = rescale(c, A)
        assert divisor == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rescaled.values, c.values, atol=1e-12)

    def test_identity_after_rescale(self):
        for matrix, c in [
            (associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)), bh_constants(50)),
            (associated_matrix(ErrorRateSpec(Rate.FDP_SD, 37, gamma=0.1)),
             rs_constants(ErrorRateSpec(Rate.FDP_SU, 37, gamma=0.1))),
        ]:
            rescaled, divisor = rescale(c, matrix)
            assert np.max(bound_vector(matrix.spec, rescaled)) == pytest.approx(1.0, abs=1e-12)
            assert (rescaled.family, rescaled.params["stage"]) == (c.family, "rescaled")

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

    @pytest.mark.parametrize("family", [by_constants, gr_sd_constants])
    def test_divisor_keeps_the_whole_normalisation(self, family):
        """A vector that ships normalized records its own divisor times D."""
        c = family(5)
        rescaled, d = rescale(c, ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.1))
        assert rescaled.params["divisor"] == d * c.params["divisor"]
        np.testing.assert_allclose(rescaled.values * 5 * rescaled.params["divisor"],
                                   np.arange(1.0, 6.0), rtol=0, atol=1e-15)

    def test_divisor_of_a_raw_vector_is_d(self):
        rescaled, d = rescale(bh_constants(50), ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05))
        assert rescaled.params["divisor"] == d

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
