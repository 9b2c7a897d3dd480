import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtbounds import (
    CriticalVector,
    DecisionSet,
    ErrorRateSpec,
    ProcedureSpec,
    PValueVector,
    Rate,
    SimConfig,
    adjusted_pvalues,
    bound_vector,
    family_constants,
    lr_fdp_constants,
    run_procedure,
    step_down,
    step_up,
)
from mtbounds.procedures import _rejection_counts


def cv(*values):
    return CriticalVector(np.array(values, dtype=float))


def pv(*values):
    return PValueVector(np.array(values, dtype=float))


class TestStepUp:
    def test_all_ones_no_rejection(self):
        d = step_up(pv(1.0, 1.0, 1.0), cv(0.1, 0.2, 0.9))
        assert d.n_rejected == 0
        assert d.rejected == frozenset()

    def test_all_zero_rejects_everything(self):
        d = step_up(pv(0.0, 0.0, 0.0), cv(0.1, 0.2, 0.9))
        assert d.n_rejected == 3

    def test_middle_cutoff(self):
        d = step_up(pv(0.01, 0.04, 0.9), cv(0.02, 0.05, 0.06))
        assert d.n_rejected == 2
        assert d.rejected == frozenset({1, 2})

    def test_thresholds_above_one_clamped(self):
        d = step_up(pv(1.0, 1.0), cv(0.5, 7.0))
        assert d.n_rejected == 2  # clamped threshold 1.0 still catches p = 1


class TestStepDown:
    def test_blocked_at_first(self):
        d = step_down(pv(0.03, 0.04, 0.9), cv(0.02, 0.05, 0.06))
        assert d.n_rejected == 0

    def test_same_input_step_up_rejects_two(self):
        d = step_up(pv(0.03, 0.04, 0.9), cv(0.02, 0.05, 0.06))
        assert d.n_rejected == 2

    def test_all_zero(self):
        d = step_down(pv(0.0, 0.0, 0.0), cv(0.01, 0.01, 0.01))
        assert d.n_rejected == 3


def reference_count(sorted_p, thresholds, direction):
    """The step rules as defined, one sorted row at a time."""
    ok = [p <= min(t, 1.0) for p, t in zip(sorted_p, thresholds)]
    if direction == "su":
        return max((i + 1 for i, hit in enumerate(ok) if hit), default=0)
    k = 0
    while k < len(ok) and ok[k]:
        k += 1
    return k


class TestLabelsAndCounts:
    def test_unlabelled_hypotheses_take_their_index(self):
        assert pv(0.3, 0.1, 0.2).labels == ("1", "2", "3")
        assert PValueVector(np.array([0.3, 0.1]), labels=("a", "b")).labels == ("a", "b")

    def test_labels_must_match_values(self):
        for labels in ((), ("a",), ("a", "b", "c")):
            with pytest.raises(ValueError, match="labels length"):
                PValueVector(np.array([0.3, 0.1]), labels=labels)

    def test_rejection_count_is_the_rejected_set_size(self):
        assert DecisionSet(frozenset({1, 3})).n_rejected == 2
        assert DecisionSet(frozenset()).n_rejected == 0


class TestRejectionCounts:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_batch_matches_definition(self, data):
        n = data.draw(st.integers(1, 10))
        # a shared grid makes ties among p-values and with thresholds likely
        grid = st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0])
        rows = data.draw(st.lists(
            st.lists(st.one_of(grid, st.floats(0.0, 1.0)), min_size=n, max_size=n),
            min_size=1, max_size=6))
        thresholds = np.array(data.draw(st.lists(
            st.one_of(grid, st.floats(0.0, 2.0)), min_size=n, max_size=n)))
        # an all-hit row, and a row of ones that hits nothing unless a
        # threshold reaches 1
        ps = np.sort(np.array(rows + [[0.0] * n, [1.0] * n]), axis=1)
        for direction in ("su", "sd"):
            counts = _rejection_counts(ps, thresholds, direction)
            assert counts.tolist() == [reference_count(row, thresholds, direction)
                                       for row in ps.tolist()]
            assert [int(_rejection_counts(row, thresholds, direction))
                    for row in ps] == counts.tolist()


class TestAdjusted:
    def test_unit_constants_give_sorted_pvalues(self):
        p = pv(0.7, 0.1, 0.4)
        for direction in ("su", "sd"):
            adj = adjusted_pvalues(p, cv(1.0, 1.0, 1.0), direction)
            assert np.allclose(adj[p.order()], [0.1, 0.4, 0.7], atol=0)

    def test_zero_pvalues(self):
        adj = adjusted_pvalues(pv(0.0, 0.0), cv(0.5, 1.0), "su")
        assert adj.tolist() == [0.0, 0.0]

    def test_monotone_and_clipped(self):
        p = pv(0.03, 0.4, 0.9, 0.02)
        adj = adjusted_pvalues(p, cv(0.01, 0.02, 0.5, 0.9), "sd")
        assert np.all(np.diff(adj[p.order()]) >= 0)
        assert np.all(adj <= 1.0)

    def test_zero_constant_convention(self):
        # a zero constant contributes an infinite ratio, clipped to 1
        adj = adjusted_pvalues(pv(0.0, 0.5), cv(0.0, 1.0), "sd")
        assert adj.tolist() == [1.0, 1.0]

    def test_in_original_order(self):
        p = pv(0.7, 0.1, 0.4)
        adj = adjusted_pvalues(p, cv(1.0, 1.0, 1.0), "su")
        assert np.allclose(adj, [0.7, 0.1, 0.4], atol=0)

    def test_read_only(self):
        adj = adjusted_pvalues(pv(0.7, 0.1), cv(0.5, 1.0), "sd")
        with pytest.raises(ValueError, match="read-only"):
            adj[0] = 0.0

    @settings(max_examples=40)
    @given(data=st.data())
    def test_consistency_with_procedure(self, data):
        """Rejection by alpha*c at any alpha equals adjusted <= alpha."""
        n = data.draw(st.integers(1, 12))
        values = data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        steps = data.draw(st.lists(st.floats(0.01, 0.5), min_size=n, max_size=n))
        c = CriticalVector(np.cumsum(steps))
        p = pv(*values)
        for direction, apply in (("su", step_up), ("sd", step_down)):
            adj = adjusted_pvalues(p, c, direction)
            for alpha in (0.01, 0.05, 0.2, 0.5, 0.8, 0.99):
                decision = apply(p, c.scaled(alpha))
                expected = int(np.sum(adj <= alpha))
                assert decision.n_rejected == expected


class TestProcedureProperties:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_step_up_superset_of_step_down(self, data):
        n = data.draw(st.integers(1, 15))
        values = data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        steps = data.draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
        c = CriticalVector(np.minimum(np.cumsum(np.array(steps) + 1e-4), 1.0))
        p = pv(*values)
        up = step_up(p, c)
        down = step_down(p, c)
        assert down.rejected <= up.rejected

    @settings(max_examples=40)
    @given(data=st.data())
    def test_monotone_in_constants(self, data):
        n = data.draw(st.integers(1, 12))
        values = data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
        steps = data.draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
        bumps = data.draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))
        lo = np.cumsum(np.array(steps) + 1e-4)
        hi = np.maximum.accumulate(lo + np.array(bumps))
        p = pv(*values)
        for apply in (step_up, step_down):
            assert apply(p, CriticalVector(lo)).rejected <= apply(p, CriticalVector(hi)).rejected

    @settings(max_examples=40)
    @given(data=st.data())
    def test_permutation_equivariance(self, data):
        n = data.draw(st.integers(1, 12))
        values = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n,
            unique=True)))
        perm = np.array(data.draw(st.permutations(range(n))))
        c = CriticalVector(np.linspace(0.05, 0.8, n))
        base = step_up(pv(*values), c)
        shuffled = step_up(pv(*values[perm]), c)
        # hypothesis j of the permuted vector is hypothesis perm[j] originally
        mapped = frozenset(int(np.flatnonzero(perm == (j - 1))[0]) + 1 for j in base.rejected)
        assert shuffled.rejected == mapped

    def test_tie_handling_stable_and_count_invariant(self):
        p1 = pv(0.05, 0.05, 0.9)
        p2 = pv(0.05, 0.9, 0.05)
        c = cv(0.04, 0.06, 0.07)
        assert step_up(p1, c).n_rejected == step_up(p2, c).n_rejected == 2
        assert step_up(p1, c).rejected == frozenset({1, 2})
        assert step_up(p2, c).rejected == frozenset({1, 3})


class TestRunProcedure:
    def test_bh95_step_up_counts(self, bh95):
        p = PValueVector(bh95)
        for q, expected in ((0.05, 9), (0.10, 9)):
            spec = ProcedureSpec(family="bh", n=15, alpha=0.5,
                                 rate=ErrorRateSpec(Rate.FDP_SU, 15, gamma=q))
            decision, adjusted = run_procedure(p, spec)
            assert decision.n_rejected == expected
            assert int(np.sum(adjusted <= 0.5)) == expected

    def test_bh95_rs_su_anomaly(self, bh95):
        """Fewer rejections at the looser level: both the constants and their
        rescaling depend on the exceedance parameter."""
        p = PValueVector(bh95)
        counts = {}
        for q in (0.05, 0.10):
            spec = ProcedureSpec(family="rs", n=15, alpha=0.5,
                                 rate=ErrorRateSpec(Rate.FDP_SU, 15, gamma=q))
            counts[q] = run_procedure(p, spec)[0].n_rejected
        assert counts == {0.05: 5, 0.10: 4}

    def test_bh95_by_counts(self, bh95):
        p = PValueVector(bh95)
        for q in (0.05, 0.10):
            spec = ProcedureSpec(family="by", n=15, alpha=q)
            assert run_procedure(p, spec)[0].n_rejected == 3

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            ProcedureSpec(family="by", n=10, alpha=0.05,
                          rate=ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.05))
        with pytest.raises(ValueError):
            ProcedureSpec(family="gr", n=10, alpha=0.05, modified=True)
        with pytest.raises(ValueError):
            ProcedureSpec(family="bh", n=10, alpha=0.05)  # no rate
        with pytest.raises(ValueError):
            ProcedureSpec(family="bh", n=10, alpha=1.5,
                          rate=ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))

    def test_gamma_only_for_raw_rs(self):
        raw = family_constants("rs", 10, gamma=0.1)
        assert np.array_equal(raw.values, lr_fdp_constants(10, 0.1).values)
        for family, spec in [("rs", ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.1)), ("bh", None),
                             ("by", None), ("gr", None)]:
            with pytest.raises(ValueError, match="gamma is read only by family 'rs'"):
                family_constants(family, 10, spec, gamma=0.1)

    def test_kfwer_pipeline(self):
        p = pv(0.001, 0.002, 0.2, 0.9)
        spec = ProcedureSpec(family="rs", n=4, alpha=0.05,
                             rate=ErrorRateSpec(Rate.KFWER_SD, 4, k=1))
        decision, _ = run_procedure(p, spec)
        # Holm at level 0.05: thresholds 0.05/4, 0.05/3, ...
        assert decision.n_rejected == 2

    def test_modified_dominates_original(self, bh95):
        p = PValueVector(bh95)
        rate = ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05)
        base = ProcedureSpec(family="bh", n=15, alpha=0.5, rate=rate)
        mod = ProcedureSpec(family="bh", n=15, alpha=0.5, rate=rate, modified=True)
        d_base, _ = run_procedure(p, base)
        d_mod, _ = run_procedure(p, mod)
        assert d_base.rejected <= d_mod.rejected

    def test_modified_family_constants_dominate(self):
        rate = ErrorRateSpec(Rate.FDP_SU, 20, gamma=0.05)
        base = family_constants("bh", 20, rate)
        mod = family_constants("bh", 20, rate, modified=True)
        assert np.all(mod.values >= base.values - 1e-15)
        assert np.max(bound_vector(rate, mod)) <= 1 + 1e-9


class TestRoster:
    def test_standard_roster_shape(self):
        roster = SimConfig(n=10).roster()
        assert len(roster) == 10
        names = [s.name for s in roster]
        assert names.count("FDR-BY-SU") == 1
        assert names.count("FDR-GR-SD") == 1
        assert sum("(mod)" in x for x in names) == 4
        assert len(set(names)) == 10


class TestPValueVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pv(0.5, 1.2)
        with pytest.raises(ValueError):
            pv(-0.01)
