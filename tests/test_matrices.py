import hashlib
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from mtbounds import (
    Family,
    ErrorRateSpec,
    ProcedureSpec,
    Rate,
    SimConfig,
    associated_matrix,
    bh_constants,
    bound_vector,
    by_constants,
    gr_sd_constants,
    rescale,
    row_events,
    rs_constants,
)
import mtbounds
from mtbounds import matrices
from mtbounds.matrices import _event_system

GAMMAS = (0.0, 0.05, 0.1, 0.25)


def row_sums_match(matrix):
    n = matrix.n
    sums = matrix.entries.sum(axis=1)
    spec = matrix.spec
    if spec.rate.is_fdp:
        expected = np.arange(1, n + 1, dtype=float)
    else:
        i = np.arange(1, n + 1, dtype=float)
        expected = np.where(i >= spec.k, i / spec.k, 0.0)
    return np.allclose(sums, expected, rtol=0.0, atol=1e-10)


class TestKfwerSu:
    def test_single_hypothesis(self):
        assert associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 1, k=1)).entries.tolist() == [[1.0]]

    def test_three_by_three(self):
        expected = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.5, 0.5, 1.0]]
        assert associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 3, k=1)).entries.tolist() == expected

    def test_row_sums_n50(self):
        sums = associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 50, k=1)).entries.sum(axis=1)
        assert np.allclose(sums, np.arange(1, 51), atol=1e-10)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 5, k=0))
        with pytest.raises(ValueError):
            associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 5, k=6))
        with pytest.raises(ValueError, match="kfwer-su requires k"):
            ErrorRateSpec(Rate.KFWER_SU, 5)


class TestKfwerSd:
    def test_antidiagonal(self):
        A = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 10, k=1)).entries
        for i in range(1, 11):
            assert A[i - 1, 10 - i] == i
        assert np.count_nonzero(A) == 10

    def test_single_hypothesis(self):
        assert associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 1, k=1)).entries.tolist() == [[1.0]]

    def test_k3(self):
        A = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 5, k=3)).entries
        assert np.count_nonzero(A[:2]) == 0
        assert A[2, 4] == 1.0
        assert A[3, 3] == pytest.approx(4 / 3, abs=0)
        assert A[4, 2] == pytest.approx(5 / 3, abs=0)
        assert np.count_nonzero(A) == 3


def column_levels(events):
    """Level paired with each column 1..usable of a step-up row: the lowest
    event level whose column reaches it; usable is the last event column."""
    return [min(lvl for lvl, col in events if col >= l)
            for l in range(1, events[-1][1] + 1)]


class TestFdpSuAux:
    """Event systems of the FDP step-up rows."""

    def test_row_one(self):
        events = row_events(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05), 1)
        assert events == [(1, 19)]  # one event; column 19 is the last usable

    def test_row_32(self):
        events = row_events(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05), 32)
        assert [lvl for lvl, _ in events] == list(range(1, 33))
        assert events[0][1] == 19
        assert [col for _, col in events[1:]] == [18 + k for k in range(2, 33)]

    def test_gamma_zero(self):
        events = row_events(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.0), 5)
        assert [lvl for lvl, _ in events] == [1, 2, 3, 4, 5]
        assert [col for _, col in events] == [6, 7, 8, 9, 10]
        assert column_levels(events) == [max(l - 5, 1) for l in range(1, 11)]

    @given(
        n=st.integers(1, 200),
        gamma=st.sampled_from(GAMMAS),
        data=st.data(),
    )
    def test_level_structure(self, n, gamma, data):
        i = data.draw(st.integers(1, n))
        events = row_events(ErrorRateSpec(Rate.FDP_SU, n, gamma=gamma), i)
        assert [lvl for lvl, _ in events] == list(range(1, len(events) + 1))
        levels = np.array(column_levels(events))
        assert levels[0] == 1
        assert np.all(np.diff(levels) >= 0)
        assert np.all(np.diff(levels) <= 1)
        cols = np.array([col for _, col in events])
        assert np.all(np.diff(cols) >= 1)
        assert cols[-1] <= n
        # every event column is usable at this row count
        assert all(int(np.floor(gamma * c)) + 1 <= i for c in cols)


class TestFdpSuMatrix:
    def test_row32_support(self):
        A = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)).entries
        support = np.flatnonzero(A[31]) + 1
        assert support.tolist() == list(range(19, 51))
        assert np.count_nonzero(A[31, :18]) == 0

    def test_coincides_with_kfwer_when_gamma_small(self):
        A = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        assert np.array_equal(A.entries,
                              associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 10, k=1)).entries)

    @pytest.mark.parametrize("n", [1, 7, 50, 100])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_row_sums(self, n, gamma):
        assert row_sums_match(associated_matrix(ErrorRateSpec(Rate.FDP_SU, n, gamma=gamma)))


def sd_column_map(n, gamma, i):
    """Column of each level 1..floor(gamma*n)+1 in row i of the FDP step-down
    system, whether or not the row holds that level."""
    _, _, cap = _event_system(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma))
    return [int(min(lvl + n - i, cap[lvl - 1])) for lvl in range(1, int(np.floor(gamma * n)) + 2)]


class TestFdpSdAux:
    """Event systems of the FDP step-down rows."""

    def test_small_gamma(self):
        assert row_events(ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.05), 4) == [(1, 7)]
        assert sd_column_map(10, 0.05, 4) == [7]

    def test_gamma_zero(self):
        assert row_events(ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.0), 4) == [(1, 7)]
        assert sd_column_map(10, 0.0, 4) == [7]

    def test_row_n(self):
        assert row_events(ErrorRateSpec(Rate.FDP_SD, 50, gamma=0.05), 50) == [(1, 1)]
        assert sd_column_map(50, 0.05, 50) == [1, 2, 3]

    @given(
        n=st.integers(1, 200),
        gamma=st.sampled_from(GAMMAS),
        data=st.data(),
    )
    def test_bounds(self, n, gamma, data):
        i = data.draw(st.integers(1, n))
        events = row_events(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma), i)
        lmax = int(np.floor(gamma * n)) + 1
        col_map = sd_column_map(n, gamma, i)
        assert len(col_map) == lmax
        assert all(1 <= col <= n for col in col_map)
        assert 1 <= len(events) <= min(lmax, i)
        assert events == [(lvl, col_map[lvl - 1]) for lvl in range(1, len(events) + 1)]


class TestFdpSdMatrix:
    def test_antidiagonal_coincidence(self):
        A = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.05))
        assert np.array_equal(A.entries,
                              associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 10, k=1)).entries)

    def test_single_hypothesis(self):
        A = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 1, gamma=0.0))
        assert A.entries.tolist() == [[1.0]]

    @pytest.mark.parametrize("n", [1, 7, 50, 100])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_row_sums(self, n, gamma):
        assert row_sums_match(associated_matrix(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma)))

    @pytest.mark.parametrize("gamma", [0.29, 0.35, 0.58, 0.69, 0.7])
    def test_cap_is_the_step_up_cap(self, gamma):
        """Both directions read level L's cap off one threshold, the last l
        with floor(gamma*l)+1 <= L, so at these float-edge gammas they agree
        and never fall below the cap of the typed decimal,
        min(n, ceil(L/gamma) - 1)."""
        for n in (100, 300):
            _, _, up = _event_system(ErrorRateSpec(Rate.FDP_SU, n, gamma=gamma))
            _, _, down = _event_system(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma))
            assert np.array_equal(down, up), n
            decimal = Fraction(repr(gamma))
            exact = [min(n, math.ceil(L / decimal) - 1) for L in range(1, n + 1)]
            assert np.all(down >= exact), n


def exact_row_events(rate, n, gamma):
    """Every row's (level, column) pairs by ``_event_system``'s rules, in
    exact rationals from the typed decimal ``Fraction(repr(gamma))``: the
    threshold k(l) = floor(gamma*l)+1, level L's cap (the last l with
    k(l) <= max(L, k(1))), and each row's last level, by the step-up rule
    or by the Romano-Shaikh step-down term."""
    g = Fraction(repr(gamma))
    k = [math.floor(g * l) + 1 for l in range(1, n + 1)]
    cap = [sum(kl <= max(L, k[0]) for kl in k) for L in range(1, n + 1)]
    if rate is Rate.FDP_SU:
        last = [max(i - n + cap[i - 1], k[cap[i - 1] - 1]) for i in range(1, n + 1)]
    else:
        last = [min(k[-1], math.floor(g * ((n - i) / (1 - g) + 1)) + 1) for i in range(1, n + 1)]
    return [[(L, min(L + n - i, cap[L - 1])) for L in range(k[0], min(i, last[i - 1]) + 1)]
            for i in range(1, n + 1)]


def float_edge(n, gamma, rows):
    return pytest.param(n, gamma, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"the float threshold moves a boundary of {rows} (ROADMAP item 8)"))


@pytest.mark.parametrize("n, gamma", [
    *((n, gamma) for n in (50, 60, 100) for gamma in (0.05, 0.1, 0.25)),
    float_edge(50, 0.58, "row 29"),
    float_edge(100, 0.29, "row 29"),
    float_edge(100, 0.57, "row 57"),
    float_edge(100, 0.7, "rows 63-73"),
])
def test_tail_fdp_events_match_exact_derivation(n, gamma):
    for rate in (Rate.FDP_SU, Rate.FDP_SD):
        spec = ErrorRateSpec(rate, n, gamma=gamma)
        exact = exact_row_events(rate, n, gamma)
        differ = [i for i in range(1, n + 1) if row_events(spec, i) != exact[i - 1]]
        assert differ == [], rate.value


@given(n=st.integers(1, 120), data=st.data())
def test_kfwer_row_sums(n, data):
    k = data.draw(st.integers(1, n))
    assert row_sums_match(associated_matrix(ErrorRateSpec(Rate.KFWER_SU, n, k=k)))
    assert row_sums_match(associated_matrix(ErrorRateSpec(Rate.KFWER_SD, n, k=k)))


@given(n=st.integers(1, 120), gamma=st.sampled_from(GAMMAS))
def test_entries_nonnegative(n, gamma):
    assert np.all(associated_matrix(ErrorRateSpec(Rate.FDP_SU, n, gamma=gamma)).entries >= 0)
    assert np.all(associated_matrix(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma)).entries >= 0)


class TestBoundVector:
    def test_lr_saturation(self):
        for n, k in [(10, 1), (20, 3), (50, 25)]:
            spec = ErrorRateSpec(Rate.KFWER_SD, n, k=k)
            b = bound_vector(spec, rs_constants(spec))
            assert np.allclose(b[k - 1:], 1.0, atol=1e-12)
            assert np.allclose(b[:k - 1], 0.0, atol=0)

    def test_zero_constants(self):
        spec = ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.1)
        assert np.array_equal(bound_vector(spec, np.zeros(5)), np.zeros(5))

    def test_bh_max_at_row_32(self):
        spec = ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)
        c, _ = rescale(bh_constants(50), spec)
        b = bound_vector(spec, c)
        assert int(np.argmax(b)) + 1 == 32
        assert b[31] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bound_vector(ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.1), np.zeros(6))

    @pytest.mark.parametrize("n", [15, 100, 2000])
    @pytest.mark.parametrize("rate", list(Rate), ids=lambda r: r.value)
    def test_bit_identical_to_per_row_matmul(self, rate, n):
        spec = ErrorRateSpec(rate, n, **({"gamma": 0.05} if rate.is_fdp else {"k": 2}))
        for c in (bh_constants(n).values, np.sort(np.random.default_rng(n).uniform(size=n))):
            got, reference = bound_vector(spec, c), per_row_bound_vector(spec, c)
            assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))


def per_row_bound_vector(spec, v):
    """``bound_vector``'s sums row by row, each diagonal run's dot product
    taken with ``@``: the levels before a row's crossover come from one
    prefix sum of capped terms, the later ones run along L + n - i."""
    n = spec.n
    first, last, cap = _event_system(spec)
    levels = np.arange(first, n + 1)
    w = 1.0 / (levels * (levels + 1.0))
    gap = np.where(cap < n, cap - np.arange(1, n + 1), n)[first - 1:]
    capped = np.concatenate(([0.0], np.cumsum(v[cap[first - 1:] - 1] * w)))
    out = np.zeros(n)
    for i in range(1, n + 1):
        top = int(last[i - 1])
        if top < first:
            continue
        end = top - first  # the last level, counted from first
        split = min(int(np.searchsorted(gap, n - i)), end)
        total = capped[split]
        if split < end:
            s = first + split + n - i - 1
            total += v[s:s + end - split] @ w[split:end]
        total += v[min(top + n - i, cap[top - 1]) - 1] / top
        out[i - 1] = i * total
    return out


class TestIsFeasible:
    def test_rescaled_is_feasible(self):
        spec = ErrorRateSpec(Rate.FDP_SD, 20, gamma=0.1)
        c, _ = rescale(bh_constants(20), spec)
        b = bound_vector(spec, c)
        assert np.max(b) <= 1 + 1e-12
        assert np.max(b) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        spec = ErrorRateSpec(Rate.FDP_SU, 4, gamma=0.0)
        assert np.max(bound_vector(spec, np.zeros(4))) <= 1.0

    def test_doubled_lr_infeasible(self):
        spec = ErrorRateSpec(Rate.KFWER_SD, 12, k=2)
        c = rs_constants(spec)
        assert np.max(bound_vector(spec, c)) <= 1 + 1e-9
        assert np.max(bound_vector(spec, 2.0 * c.values)) > 1 + 1e-9


class TestRowEvents:
    def test_kfwer_su_band(self):
        events = row_events(ErrorRateSpec(Rate.KFWER_SU, 10, k=2), 5)
        assert events == [(l, 10 - 5 + l) for l in range(2, 6)]
        assert row_events(ErrorRateSpec(Rate.KFWER_SU, 10, k=2), 1) == []

    def test_kfwer_sd_single(self):
        assert row_events(ErrorRateSpec(Rate.KFWER_SD, 10, k=3), 7) == [(3, 6)]

    def test_rejects_row_out_of_range(self):
        with pytest.raises(ValueError, match=r"row must satisfy 1 <= i <= n=10, got 0"):
            row_events(ErrorRateSpec(Rate.KFWER_SD, 10, k=3), 0)

    def test_fdp_su_matches_aux(self):
        spec = ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05)
        events = row_events(spec, 32)
        assert events[0] == (1, 19)
        assert events[-1] == (32, 50)

    @given(
        n=st.integers(1, 60),
        gamma=st.sampled_from(GAMMAS),
        data=st.data(),
    )
    def test_events_reproduce_matrix_rows(self, n, gamma, data):
        """Row i of each matrix must equal the generalized Bonferroni
        coefficients of its event system."""
        i = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, n))
        specs = (
            ErrorRateSpec(Rate.FDP_SU, n, gamma=gamma),
            ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma),
            ErrorRateSpec(Rate.KFWER_SU, n, k=k),
            ErrorRateSpec(Rate.KFWER_SD, n, k=k),
        )
        for spec in specs:
            A = associated_matrix(spec)
            events = row_events(spec, i)
            row = np.zeros(n)
            levels = [lvl for lvl, _ in events]
            cols = [col for _, col in events]
            for j, (lvl, col) in enumerate(events):
                nxt = levels[j + 1] if j + 1 < len(events) else None
                if nxt is None:
                    row[col - 1] += i / lvl
                else:
                    row[col - 1] += i * (1.0 / lvl - 1.0 / nxt)
            assert np.allclose(row, A.entries[i - 1], atol=1e-12)


# sha256 of the entries' bytes, concatenated over HASH_GAMMAS for the FDP
# rates and over k in {1, 2, n} for the kFWER rates. The matrices must stay
# bit-identical to these values whatever code builds them; unlike the
# row-event checks above, this does not read the event systems.
HASH_GAMMAS = (0.0, 0.05, 0.1, 0.25, 0.9)
MATRIX_SHA256 = {
    ('kfwer-su', 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ('kfwer-su', 2): "423b80fb14589e8d109ecce93d08f47e51d17a774af91bb0453482cfc642c0a1",
    ('kfwer-su', 7): "d04cc885409139e8d7f46246ef1502f11b38b322934893f0d3c335299e2db2e4",
    ('kfwer-su', 50): "be5f03b97c2722d9ad750d1ac537bade95d0d8375885dc98b2ae1ad1725666ce",
    ('kfwer-su', 100): "dc59751f01a77eeacf2b0e1479146b81afe49220a4035bce20a48571233b5add",
    ('kfwer-su', 237): "22115645b1b48867dd4c544d5cb7d809a7c5504e950beae8917453ca8e389424",
    ('kfwer-sd', 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ('kfwer-sd', 2): "0fe0fec5e0f0a3301a384630d625ce9c0e08546d5014c832d59a635c1def3471",
    ('kfwer-sd', 7): "208400cb5c57238f88f6c84d72f361484b26883433ff651ae992dae1fe705db9",
    ('kfwer-sd', 50): "47cceb68e80da5db69749fcdbca787342591687a1b6c892c6f41577d0926583b",
    ('kfwer-sd', 100): "aab3657c04d172f04e22e3a184d97f4ebdc949ceaa8f4c66bd011a204375474f",
    ('kfwer-sd', 237): "7804080600799f76bd4cffe725b5cfdc8497a991d1d10c8bc35af01936cfc8d5",
    ('fdp-su', 1): "6e91e92205f42beb0df4ddf13cf0af352b29ffd2de9465348cdb1447a324e828",
    ('fdp-su', 2): "08920e069879bcbd1de04d76d5092efc480e5f9ed67371dd454e608b87668f53",
    ('fdp-su', 7): "9b09067b61a8671dfe55adb0c1c2ae10bea25826202bb4aedfa75f1a9d4b8031",
    ('fdp-su', 50): "8bec34b5587263eca08450b3f82c6579121fb2311c3a557f563566213b5c0cc1",
    ('fdp-su', 100): "b4ac732048e6ba1a0a85b3206d83ace8d1a6d9a6205d69f991645bf70774d65e",
    ('fdp-su', 237): "29b9b930739455699cafaa4a94646919da929a6dce423eeda859c61c556185e5",
    ('fdp-sd', 1): "6e91e92205f42beb0df4ddf13cf0af352b29ffd2de9465348cdb1447a324e828",
    ('fdp-sd', 2): "bd8c5c7dd34aa434c405e6047d27ebf83b753046904cf826145a490b6cbb21f0",
    ('fdp-sd', 7): "736a59bef32a028f98054627fb10e913065137090f3c4c04b50e8656483dc09d",
    ('fdp-sd', 50): "bdb8bcd8c3a64b6b4f765fefadeba18c8c31adba353ebe20c07ba0f084572536",
    ('fdp-sd', 100): "7324e77b81c3d2764093995d15e8edaedbd27658140686d010b2332bfabfc984",
    ('fdp-sd', 237): "8e51de984af9d7ec57cb201d3b5fc8af7af5beb33c2b5a760cd50bdc8f8ef079",
}


@pytest.mark.parametrize("rate,n", sorted(MATRIX_SHA256))
def test_entries_bit_identical(rate, n):
    params = HASH_GAMMAS if rate.startswith("fdp") else sorted({1, min(2, n), n})
    kwarg = "gamma" if rate.startswith("fdp") else "k"
    digest = hashlib.sha256()
    for param in params:
        matrix = associated_matrix(ErrorRateSpec(Rate(rate), n, **{kwarg: param}))
        digest.update(matrix.entries.tobytes())
    assert digest.hexdigest() == MATRIX_SHA256[(rate, n)]


@pytest.mark.parametrize("rate,n", sorted(MATRIX_SHA256))
def test_rows_are_the_csr_of_entries(rate, n):
    """With the pins above, the sparse rows HiGHS reads are those of the
    pinned dense matrices, bit for bit."""
    params = HASH_GAMMAS if rate.startswith("fdp") else sorted({1, min(2, n), n})
    kwarg = "gamma" if rate.startswith("fdp") else "k"
    for param in params:
        matrix = associated_matrix(ErrorRateSpec(Rate(rate), n, **{kwarg: param}))
        rows, reference = matrix.rows, sparse.csr_matrix(matrix.entries)
        assert rows.has_canonical_format
        assert np.array_equal(rows.indptr, reference.indptr)
        assert np.array_equal(rows.indices, reference.indices)
        assert np.array_equal(rows.data.view(np.uint64), reference.data.view(np.uint64))
        assert matrix.rows is rows


def test_rows_build_peak_memory():
    """The CSR build keeps its per-nonzero temporaries in int32: fdp-su at
    n=2000 has 2.0 M nonzeros (24 MB finished), and int64 temporaries would
    peak near 96 MB."""
    spec = ErrorRateSpec(Rate.FDP_SU, 2000, gamma=0.05)
    tracemalloc.start()
    try:
        associated_matrix(spec).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6


def test_spec_validation():
    with pytest.raises(ValueError):
        ErrorRateSpec(Rate.FDP_SU, 10, gamma=1.0)
    with pytest.raises(ValueError):
        ErrorRateSpec(Rate.FDP_SU, 10, gamma=-0.1)
    with pytest.raises(ValueError):
        ErrorRateSpec(Rate.FDP_SU, 10, k=1, gamma=0.05)
    with pytest.raises(ValueError):
        ErrorRateSpec(Rate.KFWER_SU, 10, k=1, gamma=0.05)
    with pytest.raises(ValueError):
        ErrorRateSpec(Rate.KFWER_SU, 0, k=1)


def test_entries_immutable():
    A = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.1))
    with pytest.raises(ValueError):
        A.entries[0, 0] = 7.0


@pytest.mark.parametrize("rate, param", [(Rate.FDP_SU, {"gamma": 0.1}), (Rate.KFWER_SD, {"k": 2})],
                         ids=["fdp-su", "kfwer-sd"])
def test_spec_builds_each_view_once_and_equals_a_fresh_spec(rate, param):
    """A spec is its matrix: a second read of a view returns the object the
    first one built, and the built views take no part in equality or the
    hash."""
    spec = ErrorRateSpec(rate, 6, **param)
    rows, entries = spec.rows, spec.entries
    assert spec.rows is rows and spec.entries is entries
    assert not entries.flags.writeable
    fresh = ErrorRateSpec(rate, 6, **param)
    assert "rows" not in vars(fresh) and "entries" not in vars(fresh)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert len({spec, fresh}) == 1


@pytest.mark.parametrize("build", [
    bh_constants, by_constants, gr_sd_constants,
    lambda n: ErrorRateSpec(Rate.FDP_SU, n, gamma=0.1),
    lambda k: ErrorRateSpec(Rate.KFWER_SD, 10, k=k),
    lambda n: ProcedureSpec(family="by", n=n, alpha=0.05),
    lambda n: SimConfig(n=n),
], ids=["bh", "by", "gr", "spec-n", "spec-k", "procedure", "simulation"])
def test_non_integer_n_or_k_fails_where_it_is_built(build):
    """n and k are integers, Python's or numpy's: 2.5 and 4.0 raise
    ValueError with the usual message when the object is built, not later
    deep in numpy."""
    for bad in (2.5, 4.0):
        with pytest.raises(ValueError, match=rf"^[nk] must .*, got {bad}$"):
            build(bad)
    for good in (4, np.int64(4), np.int32(4)):
        build(good)


# The structured A @ c against the dense product, over the hash grid plus
# gammas whose 1/gamma is not an integer or lies close to 1.
STRUCTURE_GAMMAS = HASH_GAMMAS + (0.5, 0.99, 1 / 3)
STRUCTURE_NS = (1, 2, 3, 7, 50, 237, 1000)


def structure_specs(rate, n):
    if rate.startswith("fdp"):
        return [ErrorRateSpec(Rate(rate), n, gamma=g) for g in STRUCTURE_GAMMAS]
    return [ErrorRateSpec(Rate(rate), n, k=k) for k in sorted({1, min(2, n), n})]


def structure_constants(spec):
    n = spec.n
    step = np.zeros(n)
    step[n // 2:] = 1.0
    uniforms = np.sort(np.random.default_rng(n).uniform(size=n))
    return {"bh": bh_constants(n).values, "rs": rs_constants(spec).values, "uniforms": uniforms,
            "zeros": np.zeros(n), "step": step}


@pytest.mark.parametrize("n", STRUCTURE_NS)
@pytest.mark.parametrize("rate", [r.value for r in Rate])
def test_bound_vector_matches_dense_product(rate, n):
    for spec in structure_specs(rate, n):
        A = associated_matrix(spec).entries
        for name, c in structure_constants(spec).items():
            b = bound_vector(spec, c)
            assert np.all(np.abs(b - A @ c) <= 1e-14 * (np.abs(A) @ np.abs(c))), (spec, name)


@pytest.mark.parametrize("n", STRUCTURE_NS)
@pytest.mark.parametrize("rate", [r.value for r in Rate])
def test_event_system_structure(rate, n):
    """The premises of the structured product and the level-wise builder:
    the threshold is nondecreasing from at least 1 (constant for kFWER,
    floor(gamma*l)+1 for FDP) and gives both directions one rs family;
    cap is nondecreasing, cap[L-1] - L is nondecreasing while cap[L-1] < n
    (one crossover per row), and the rows holding a level are contiguous
    (last rises, then falls)."""
    for spec in structure_specs(rate, n):
        k = spec.threshold
        assert k.shape == (n,) and k[0] >= 1 and np.all(np.diff(k) >= 0)
        if spec.rate.is_fdp:
            assert np.array_equal(k, np.floor(spec.gamma * np.arange(1, n + 1)) + 1)
        else:
            assert np.all(k == spec.k)
        other = next(r for r in Rate if r.is_fdp == spec.rate.is_fdp and r is not spec.rate)
        twin = ErrorRateSpec(other, n, **dict([spec.param]))
        rs, rs_twin = rs_constants(spec), rs_constants(twin)
        assert np.array_equal(rs.values, rs_twin.values)
        assert (rs.family, rs.params) == (rs_twin.family, rs_twin.params)
        first, last, cap = _event_system(spec)
        assert first == k[0]
        assert np.all(np.diff(cap) >= 0)
        below = cap < n
        assert np.all(np.diff((cap - np.arange(1, n + 1))[below]) >= 0)
        assert np.all(below[:np.count_nonzero(below)])
        peak = int(np.argmax(last))
        assert np.all(np.diff(last[:peak + 1]) >= 0) and np.all(np.diff(last[peak:]) <= 0)
        assert np.all(last <= np.arange(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("rate", [Rate.KFWER_SU, Rate.KFWER_SD])
def test_saturate_rows_sets_the_later_rows_to_one(rate, n):
    """Rows start..n of A @ xi are 1 to rounding; the columns no such row
    solves for keep their value, and the dense system agrees."""
    for k in sorted({1, min(2, n), n}):
        spec = ErrorRateSpec(rate, n, k=k)
        c = np.random.default_rng(n).uniform(0.0, 0.01, n)
        for start in range(k, n + 1):
            xi = matrices.saturate_rows(spec, c, start)
            assert np.allclose(bound_vector(spec, xi)[start - 1:], 1.0, rtol=1e-12, atol=0)
            assert np.allclose(associated_matrix(spec).entries[start - 1:] @ xi, 1.0,
                               rtol=1e-12, atol=0)
            solved = n + k - 1 - np.arange(start, n + 1)  # row i's column n - i + k, 0-based
            kept = np.setdiff1d(np.arange(n), solved)
            assert np.array_equal(xi[kept], c[kept])


@pytest.mark.parametrize("n", [1, 2, 7, 40, 2000])
@pytest.mark.parametrize("rate", [Rate.KFWER_SU, Rate.KFWER_SD])
def test_saturate_rows_solves_a_one_level_row_as_k_over_i(rate, n):
    """A row of one level (every kfwer-sd row i >= k, kfwer-su row k alone)
    gets exactly k/i on its column n - i + k, the Lehmann-Romano constant."""
    for k in sorted({1, min(2, n), min(5, n), n}):
        spec = ErrorRateSpec(rate, n, k=k)
        xi = matrices.saturate_rows(spec, np.zeros(n), k)
        rows = range(k, n + 1) if rate is Rate.KFWER_SD else [k]
        for i in rows:
            assert xi[n - i + k - 1] == k / i, (spec, i)


def test_saturate_rows_rejects_capped_levels():
    with pytest.raises(ValueError, match="fdp-su caps its levels"):
        matrices.saturate_rows(ErrorRateSpec(Rate.FDP_SU, 20, gamma=0.25), np.zeros(20), 1)


@pytest.mark.parametrize("rate", [Rate.KFWER_SU, Rate.KFWER_SD])
def test_saturate_rows_checks_start(rate):
    """start must lie in k(1)..n + 1; n + 1 solves no row."""
    spec, c = ErrorRateSpec(rate, 10, k=2), np.linspace(0.0, 0.01, 10)
    for start in (-1, 0, 1, 12):
        with pytest.raises(ValueError, match=rf"2 <= start <= n \+ 1 = 11, got {start}"):
            matrices.saturate_rows(spec, c, start)
    assert np.array_equal(matrices.saturate_rows(spec, c, 11), c)


def test_rescale_reads_the_spec():
    """perfbench passes rescale the result of fdp_sd_matrix, through
    associated_matrix; that rescales into the spec itself."""
    spec = ErrorRateSpec(Rate.FDP_SU, 40, gamma=0.1)
    from_spec, d_spec = rescale(bh_constants(40), spec)
    from_matrix, d_matrix = rescale(bh_constants(40), associated_matrix(spec))
    assert d_spec == d_matrix
    assert np.array_equal(from_spec.values, from_matrix.values)
    assert (from_spec.family, from_spec.params["stage"]) == (Family.BH, "rescaled")
    assert np.max(bound_vector(spec, from_spec)) <= 1 + 1e-12


def test_associated_matrix_is_the_one_public_constructor():
    """A rate is named only by ErrorRateSpec(rate, n, k=|gamma=), and its
    matrix is built only by associated_matrix; the one rate-specific builder
    left is unexported and agrees with it."""
    for names in (mtbounds.__all__, matrices.__all__):
        assert [name for name in names if name.endswith("_matrix")] == ["associated_matrix"]
    assert not [name for name, _ in inspect.getmembers(ErrorRateSpec, inspect.ismethod)
                if not name.startswith("_")]
    assert not hasattr(mtbounds, "fdp_sd_matrix")
    assert not hasattr(matrices, "AssociatedMatrix")
    spec = ErrorRateSpec(Rate.FDP_SD, 20, gamma=0.05)
    assert associated_matrix(spec) is spec and spec.spec is spec
    assert matrices.fdp_sd_matrix(20, 0.05) == spec


PUBLIC_NAMES = {
    "CellStats", "CriticalVector", "DecisionSet", "ErrorRateSpec",
    "Family", "LPProblem", "LPSolution", "ProcedureSpec", "PValueVector", "Rate",
    "SimConfig", "SimReport", "SolverError", "adjusted_pvalues", "associated_matrix",
    "bh_constants", "bound_vector", "build_problem", "by_constants", "family_constants",
    "gr_sd_constants", "rescale", "row_events", "rs_constants", "run_procedure",
    "run_study", "sample_statistics", "solve", "solve_cached", "step_down", "step_up",
    "two_sided_p",
}


def test_package_reexports_its_modules_public_names():
    """``mtbounds.__all__`` is its five modules' lists in turn, each name
    bound to the module's own object; names kept for the modules' own
    importers stay off the package."""
    from mtbounds import constants, lp, procedures, simulation
    modules = (constants, lp, matrices, procedures, simulation)
    assert mtbounds.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(mtbounds.__all__)) == len(mtbounds.__all__)
    assert set(mtbounds.__all__) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(mtbounds, name) is getattr(module, name), name
    from mtbounds.lp import SOLVER_VERSION
    from mtbounds.matrices import fdp_sd_matrix, saturate_rows
    from mtbounds.procedures import FAMILIES
    internal = {"SOLVER_VERSION": SOLVER_VERSION, "saturate_rows": saturate_rows,
                "FAMILIES": FAMILIES, "fdp_sd_matrix": fdp_sd_matrix}
    assert not [name for name in internal if hasattr(mtbounds, name)]
