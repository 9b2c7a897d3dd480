import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from mtbounds import (
    CriticalVector,
    ErrorRateSpec,
    InfeasibleFloorError,
    Rate,
    associated_matrix,
    bh_constants,
    bound_vector,
    build_problem,
    family_constants,
    solve,
    solve_cached,
)
from mtbounds import lp
from mtbounds.lp import SOLVER_VERSION, cache_key


def scipy_optimum(matrix, floor, weights=None):
    """Certified optimum: a weak-duality upper bound checked in numpy.

    The solver under test also runs on HiGHS, so HiGHS's answer alone would
    not be an independent check. Here the program is posed densely, with the
    floor as constraint rows, and only HiGHS's dual multipliers are used:
    y for ``A xi <= 1``, z for the difference rows ``D xi <= 0`` and w for
    ``xi >= floor``. Once clipped to be nonnegative they satisfy
    ``A.T@y + D.T@z - w == a`` to within 1e-9 (checked here), so every
    feasible xi has ``a@xi <= y.sum() - floor@w`` up to that residual; a
    feasible xi that reaches this bound is optimal, whatever produced it.
    """
    A = matrix.entries
    n = matrix.n
    w = np.ones(n) if weights is None else weights * (n / weights.sum())
    a = w @ A
    D = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    A_ub = np.vstack([A, D, -np.eye(n)])
    b_ub = np.concatenate([np.ones(n), np.zeros(n - 1), -floor.values])
    res = linprog(-a, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    duals = np.maximum(-res.ineqlin.marginals, 0.0)
    y, z, w_floor = duals[:n], duals[n:2 * n - 1], duals[2 * n - 1:]
    assert np.allclose(A.T @ y + D.T @ z - w_floor, a, rtol=0, atol=1e-9)
    return float(y.sum() - floor.values @ w_floor)


def rescaled_floor(matrix, family="bh"):
    return family_constants(family, matrix.n, matrix.spec)


def no_solve(problem):
    raise AssertionError("solved on a cache hit")


def check_solution_invariants(matrix, floor, solution):
    assert solution.status == "optimal"
    xi = solution.xi.values
    assert np.all(xi >= floor.values)
    assert np.all(np.diff(xi) >= 0)
    assert np.max(bound_vector(matrix.spec, solution.xi)) <= 1 + 1e-9
    assert solution.objective >= solution.floor_objective - 1e-12


class TestTrivialCases:
    def test_single_variable(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 1, k=1))
        floor = CriticalVector(np.array([0.5]))
        solution = solve(build_problem(matrix, floor))
        assert solution.xi.values.tolist() == [1.0]
        assert solution.objective == pytest.approx(1.0, abs=0)

    def test_fixed_point_floor(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 10, k=1))
        floor = rescaled_floor(matrix, "rs")
        solution = solve(build_problem(matrix, floor))
        assert np.allclose(solution.xi.values, floor.values, atol=1e-12)
        assert solution.m1 == pytest.approx(1.0, abs=1e-12)
        assert solution.m2 == pytest.approx(1.0, abs=1e-12)

    def test_antidiagonal_exact_optimum(self):
        # 10 hypotheses, gamma small: the matrix is the antidiagonal, the
        # optimum caps each constant at 1/(11-j)
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix, floor))
        assert solution.floor_objective == pytest.approx(22 / 3, abs=1e-12)
        assert solution.objective == pytest.approx(10.0, abs=1e-12)
        assert np.allclose(solution.xi.values, 1 / (11 - np.arange(1, 11)), atol=1e-12)
        assert solution.m1 == pytest.approx(3.0, abs=1e-12)
        assert solution.m2 == pytest.approx(3.0, abs=1e-12)

    def test_zero_floor_optimizes_whole_feasible_set(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        floor = CriticalVector(np.zeros(10))
        solution = solve(build_problem(matrix, floor))
        assert solution.objective == pytest.approx(scipy_optimum(matrix, floor), abs=1e-9)
        assert np.isnan(solution.m1)


# (family, rate, param, n): every small size with k <= n, plus two rates at
# n=300, the largest size of the optimize benchmark.
OBJECTIVE_CASES = [
    (family, rate, param, n)
    for family in ("bh", "rs")
    for rate, param in [
        (Rate.FDP_SU, 0.05), (Rate.FDP_SD, 0.05),
        (Rate.FDP_SU, 0.25), (Rate.FDP_SD, 0.25),
        (Rate.KFWER_SU, 1), (Rate.KFWER_SD, 1),
        (Rate.KFWER_SU, 2), (Rate.KFWER_SD, 2),
    ]
    for n in (1, 2, 3, 5, 10, 25, 50)
    if rate.is_fdp or param <= n
] + [
    (family, rate, param, 300)
    for family in ("bh", "rs")
    for rate, param in [(Rate.KFWER_SU, 2), (Rate.FDP_SD, 0.05)]
]


class TestAgainstScipy:
    # ids read family-<rate>_matrix-param-n, the rate in snake case
    @pytest.mark.parametrize(
        "family,rate,param,n", OBJECTIVE_CASES,
        ids=[f"{f}-{r.name.lower()}_matrix-{p}-{n}" for f, r, p, n in OBJECTIVE_CASES])
    def test_objective_matches(self, family, rate, param, n):
        kwarg = "gamma" if rate.is_fdp else "k"
        matrix = associated_matrix(ErrorRateSpec(rate, n, **{kwarg: param}))
        floor = rescaled_floor(matrix, family)
        solution = solve(build_problem(matrix, floor))
        check_solution_invariants(matrix, floor, solution)
        assert solution.objective == pytest.approx(
            scipy_optimum(matrix, floor), rel=1e-10, abs=1e-10)

    @settings(max_examples=25)
    @given(
        n=st.integers(1, 25),
        gamma=st.sampled_from([0.0, 0.05, 0.1, 0.25]),
        su=st.booleans(),
        data=st.data(),
    )
    def test_random_feasible_floors(self, n, gamma, su, data):
        rate = Rate.FDP_SU if su else Rate.FDP_SD
        matrix = associated_matrix(ErrorRateSpec(rate, n, gamma=gamma))
        steps = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        raw = np.cumsum(np.asarray(steps) + 1e-3)
        floor = CriticalVector(raw / np.max(bound_vector(matrix.spec, raw)))
        shrink = data.draw(st.floats(0.2, 1.0))
        floor = CriticalVector(floor.values * shrink)
        solution = solve(build_problem(matrix, floor))
        check_solution_invariants(matrix, floor, solution)
        assert solution.objective == pytest.approx(
            scipy_optimum(matrix, floor), rel=1e-9, abs=1e-9)


class TestSaturationStructure:
    def test_su_tail_saturates_exactly_rows_32_to_50(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix, floor))
        bounds = bound_vector(matrix.spec, solution.xi)
        saturated = set(np.flatnonzero(bounds >= 1 - 1e-9) + 1)
        assert saturated == set(range(32, 51))

    def test_sd_row_32_cannot_saturate(self):
        # The step-down twin saturates everything in the tail except the row
        # that pins the rescaling.
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 50, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix, floor))
        bounds = bound_vector(matrix.spec, solution.xi)
        assert bounds[31] < 1 - 1e-3
        assert np.all(bounds[32:] >= 1 - 1e-9)


class TestWeights:
    def test_uniform_weights_give_column_sums(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix, floor)
        assert np.allclose(problem.objective_coefficients,
                           matrix.entries.sum(axis=0), atol=1e-12)

    def test_point_mass_objective_is_single_row_bound(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        w = np.zeros(8)
        w[4] = 1.0
        problem = build_problem(matrix, floor, weights=w)
        solution = solve(problem)
        # mean-1 normalization makes the objective n * (A xi)_{i0}
        assert solution.objective == pytest.approx(
            8 * bound_vector(matrix.spec, solution.xi)[4], rel=1e-12)
        assert solution.objective == pytest.approx(
            scipy_optimum(matrix, floor, weights=w), rel=1e-10)

    def test_bad_weights_rejected(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 4, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        with pytest.raises(ValueError):
            build_problem(matrix, floor, weights=np.array([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            build_problem(matrix, floor, weights=np.zeros(4))


class TestValidation:
    def test_infeasible_floor_raises(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 6, gamma=0.05))
        raw = bh_constants(6)
        with pytest.raises(InfeasibleFloorError):
            build_problem(matrix, CriticalVector(raw.values * 10))

    def test_dimension_mismatch(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.05))
        with pytest.raises(ValueError):
            build_problem(matrix, bh_constants(6))


class TestDeterminismAndDiagnostics:
    def test_bit_identical_resolve(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 25, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        first = solve(build_problem(matrix, floor))
        second = solve(build_problem(matrix, floor))
        assert np.array_equal(first.xi.values, second.xi.values)
        assert first.objective == second.objective

    def test_diagnostics_identity_floor(self, tmp_path, monkeypatch):
        """A cache hit passes its xi through the acceptance check, so an
        entry holding the floor yields the floor's own diagnostics."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 12, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix, floor)
        (tmp_path / f"{cache_key(problem)}.json").write_text(json.dumps({
            "solver_version": SOLVER_VERSION, "xi": floor.values.tolist()}))
        monkeypatch.setattr(lp, "solve", no_solve)
        solution = solve_cached(problem, tmp_path)
        assert solution.floor_objective == solution.objective
        assert solution.m1 == pytest.approx(1.0, abs=0)
        assert solution.m2 == pytest.approx(1.0, abs=0)

    def test_improvement_implies_componentwise_growth(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 25, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix, floor))
        assert solution.objective > solution.floor_objective
        assert np.any(solution.xi.values > floor.values + 1e-9)
        assert solution.objective <= matrix.n + 1e-9

    def test_objective_bounded_by_n(self):
        for n in (5, 20, 60):
            matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, n, gamma=0.1))
            floor = rescaled_floor(matrix, "rs")
            solution = solve(build_problem(matrix, floor))
            assert solution.objective <= n + 1e-9


class TestCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix, floor)
        fresh = solve_cached(problem, tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
        again = solve_cached(problem, tmp_path)
        assert np.array_equal(fresh.xi.values, again.xi.values)
        assert fresh.objective == again.objective
        assert fresh.m1 == again.m1

    def test_distinct_problems_distinct_keys(self):
        m1 = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05))
        m2 = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.1))
        f1 = rescaled_floor(m1, "bh")
        f2 = rescaled_floor(m2, "bh")
        assert cache_key(build_problem(m1, f1)) != cache_key(build_problem(m2, f2))

    def test_version_mismatch_forces_resolve(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix, floor)
        solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        stale = path.read_text().replace(SOLVER_VERSION, "older-solver")
        path.write_text(stale)
        refreshed = solve_cached(problem, tmp_path)
        assert refreshed.solver_version == SOLVER_VERSION
        assert SOLVER_VERSION in path.read_text()

    @pytest.mark.parametrize("corrupt", [
        lambda entry: {"solver_version": entry["solver_version"]},
        lambda entry: {**entry, "xi": entry["xi"][:2]},
        lambda entry: {**entry, "xi": [0.0] * len(entry["xi"])},
        lambda entry: {**entry, "xi": [1.0] * len(entry["xi"])},
        lambda entry: {**entry, "xi": entry["xi"][:-1] + [None]},
    ], ids=["no-xi", "short-xi", "below-floor", "infeasible", "null-in-xi"])
    def test_bad_entry_is_resolved(self, tmp_path, corrupt):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
        clean = solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        entry = path.read_text()
        path.write_text(json.dumps(corrupt(json.loads(entry))))
        refreshed = solve_cached(problem, tmp_path)
        assert np.array_equal(refreshed.xi.values, clean.xi.values)
        assert path.read_text() == entry

    def test_entry_holds_only_version_and_xi(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 12, gamma=0.1))
        problem = build_problem(matrix, rescaled_floor(matrix, "rs"))
        fresh = solve_cached(problem, tmp_path)
        entry = json.loads((tmp_path / f"{cache_key(problem)}.json").read_text())
        assert entry == {"solver_version": SOLVER_VERSION, "xi": fresh.xi.values.tolist()}
        hit = solve_cached(problem, tmp_path)
        assert (fresh.iterations > 0, hit.iterations) == (True, 0)

    def test_forged_fields_are_recomputed(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
        fresh = solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "objective": 999.0, "floor_objective": 5.0,
                                    "m1": 42.0, "m2": 7.0,
                                    "xi_params": {"parent": "forged"}}))
        served = solve_cached(problem, tmp_path)
        assert np.array_equal(served.xi.values, fresh.xi.values)
        assert ((served.objective, served.floor_objective, served.m1, served.m2)
                == (fresh.objective, fresh.floor_objective, fresh.m1, fresh.m2))
        assert served.xi.params == fresh.xi.params

    def test_nine_field_entry_is_a_hit(self, tmp_path, monkeypatch):
        """Entries that also store the derived fields and the status are
        served from their xi, without a solve."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
        fresh = solve(problem)
        (tmp_path / f"{cache_key(problem)}.json").write_text(json.dumps({
            "solver_version": SOLVER_VERSION, "status": "optimal",
            "xi": fresh.xi.values.tolist(), "xi_params": dict(fresh.xi.params),
            "objective": fresh.objective, "floor_objective": fresh.floor_objective,
            "m1": fresh.m1, "m2": fresh.m2, "iterations": fresh.iterations,
        }))

        monkeypatch.setattr(lp, "solve", no_solve)
        served = solve_cached(problem, tmp_path)
        assert np.array_equal(served.xi.values, fresh.xi.values)
        assert ((served.objective, served.m1, served.m2)
                == (fresh.objective, fresh.m1, fresh.m2))

    @pytest.mark.parametrize("cache_dir", [None, ""])
    def test_no_cache_dir_solves(self, cache_dir):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
        solution = solve_cached(problem, cache_dir)
        assert np.array_equal(solution.xi.values, solve(problem).xi.values)
        assert solution.iterations > 0

    def test_failed_solve_leaves_no_cache_file(self, tmp_path, monkeypatch):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
        calls = []

        def failing(p):
            calls.append(p)
            raise lp.SolverError("solver failed: numeric-failure")

        monkeypatch.setattr(lp, "solve", failing)
        for _ in range(2):
            with pytest.raises(lp.SolverError):
                solve_cached(problem, tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert len(calls) == 2  # the failure was not served from the cache


def test_non_optimal_highs_status_raises(monkeypatch):
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
    problem = build_problem(matrix, rescaled_floor(matrix, "bh"))
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: SimpleNamespace(
        status=4, message="Numerical difficulties encountered.", nit=7, x=None))
    with pytest.raises(lp.SolverError, match="Numerical difficulties"):
        solve(problem)


def test_each_bound_vector_computed_once_per_solve(monkeypatch):
    """build_problem computes A @ floor and solve A @ xi; the diagnostics
    reuse both."""
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 30, gamma=0.05))
    floor = rescaled_floor(matrix, "bh")
    calls = []

    def counting(spec, c):
        calls.append(spec)
        return bound_vector(spec, c)

    monkeypatch.setattr(lp, "bound_vector", counting)
    solution = solve(build_problem(matrix, floor))
    assert solution.status == "optimal"
    assert len(calls) == 2
    assert solution.m2 == pytest.approx(
        np.max(bound_vector(matrix.spec, solution.xi) / bound_vector(matrix.spec, floor)), rel=1e-12)
