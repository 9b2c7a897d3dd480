import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from mtbounds import (
    CriticalVector,
    ErrorRateSpec,
    Family,
    Rate,
    associated_matrix,
    bh_constants,
    bound_vector,
    build_problem,
    family_constants,
    row_events,
    rs_constants,
    solve,
    solve_cached,
)
from mtbounds import lp, matrices
from mtbounds.lp import SOLVER_VERSION


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
        solution = solve(build_problem(matrix.spec, floor))
        assert solution.xi.values.tolist() == [1.0]
        assert solution.objective == pytest.approx(1.0, abs=0)

    def test_fixed_point_floor(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, 10, k=1))
        floor = rescaled_floor(matrix, "rs")
        solution = solve(build_problem(matrix.spec, floor))
        assert np.allclose(solution.xi.values, floor.values, atol=1e-12)
        assert solution.m1 == pytest.approx(1.0, abs=1e-12)
        assert solution.m2 == pytest.approx(1.0, abs=1e-12)

    def test_antidiagonal_exact_optimum(self):
        # 10 hypotheses, gamma small: the matrix is the antidiagonal, the
        # optimum caps each constant at 1/(11-j)
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 10, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix.spec, floor))
        assert solution.floor_objective == pytest.approx(22 / 3, abs=1e-12)
        assert solution.objective == pytest.approx(10.0, abs=1e-12)
        assert np.allclose(solution.xi.values, 1 / (11 - np.arange(1, 11)), atol=1e-12)
        assert solution.m1 == pytest.approx(3.0, abs=1e-12)
        assert solution.m2 == pytest.approx(3.0, abs=1e-12)

    def test_zero_floor_optimizes_whole_feasible_set(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        floor = CriticalVector(np.zeros(10))
        solution = solve(build_problem(matrix.spec, floor))
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
        solution = solve(build_problem(matrix.spec, floor))
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
        solution = solve(build_problem(matrix.spec, floor))
        check_solution_invariants(matrix, floor, solution)
        assert solution.objective == pytest.approx(
            scipy_optimum(matrix, floor), rel=1e-9, abs=1e-9)


class TestSaturationStructure:
    def test_su_tail_saturates_exactly_rows_32_to_50(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix.spec, floor))
        bounds = bound_vector(matrix.spec, solution.xi)
        saturated = set(np.flatnonzero(bounds >= 1 - 1e-9) + 1)
        assert saturated == set(range(32, 51))

    def test_sd_row_32_cannot_saturate(self):
        # The step-down twin saturates everything in the tail except the row
        # that pins the rescaling.
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 50, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix.spec, floor))
        bounds = bound_vector(matrix.spec, solution.xi)
        assert bounds[31] < 1 - 1e-3
        assert np.all(bounds[32:] >= 1 - 1e-9)


class TestWeights:
    def test_uniform_weights_give_column_sums(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix.spec, floor)
        assert np.array_equal(problem.weights, np.ones(8))
        solution = solve(problem)
        # F(xi) = w @ (A @ xi) = (w @ A) @ xi: the column sums under uniform weights
        assert solution.objective == pytest.approx(
            matrix.entries.sum(axis=0) @ solution.xi.values, rel=1e-12)

    def test_point_mass_objective_is_single_row_bound(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        w = np.zeros(8)
        w[4] = 1.0
        problem = build_problem(matrix.spec, floor, weights=w)
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
            build_problem(matrix.spec, floor, weights=np.array([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            build_problem(matrix.spec, floor, weights=np.zeros(4))
        with pytest.raises(ValueError, match="weights must have length 4"):
            build_problem(matrix.spec, floor, weights=np.ones(3))


class TestValidation:
    def test_infeasible_floor_raises(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 6, gamma=0.05))
        raw = bh_constants(6)
        with pytest.raises(ValueError, match="floor is infeasible"):
            build_problem(matrix.spec, CriticalVector(raw.values * 10))

    def test_dimension_mismatch(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 5, gamma=0.05))
        with pytest.raises(ValueError):
            build_problem(matrix.spec, bh_constants(6))


class TestDeterminismAndDiagnostics:
    def test_bit_identical_resolve(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 25, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        first = solve(build_problem(matrix.spec, floor))
        second = solve(build_problem(matrix.spec, floor))
        assert np.array_equal(first.xi.values, second.xi.values)
        assert first.objective == second.objective

    def test_diagnostics_identity_floor(self, tmp_path, monkeypatch):
        """A cache hit passes its xi through the acceptance check, so an
        entry holding the floor yields the floor's own diagnostics."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 12, gamma=0.1))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix.spec, floor)
        solve_cached(problem, tmp_path)
        next(tmp_path.glob("*.json")).write_text(json.dumps({
            "solver_version": SOLVER_VERSION, "xi": floor.values.tolist()}))
        monkeypatch.setattr(lp, "solve", no_solve)
        solution = solve_cached(problem, tmp_path)
        assert solution.floor_objective == solution.objective
        assert solution.m1 == pytest.approx(1.0, abs=0)
        assert solution.m2 == pytest.approx(1.0, abs=0)

    def test_improvement_implies_componentwise_growth(self):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 25, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        solution = solve(build_problem(matrix.spec, floor))
        assert solution.objective > solution.floor_objective
        assert np.any(solution.xi.values > floor.values + 1e-9)
        assert solution.objective <= matrix.n + 1e-9

    def test_objective_bounded_by_n(self):
        for n in (5, 20, 60):
            matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, n, gamma=0.1))
            floor = rescaled_floor(matrix, "rs")
            solution = solve(build_problem(matrix.spec, floor))
            assert solution.objective <= n + 1e-9


class TestCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix.spec, floor)
        fresh = solve_cached(problem, tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
        again = solve_cached(problem, tmp_path)
        assert np.array_equal(fresh.xi.values, again.xi.values)
        assert fresh.objective == again.objective
        assert fresh.m1 == again.m1

    def test_distinct_problems_distinct_keys(self, tmp_path):
        for gamma in (0.05, 0.1):
            matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 15, gamma=gamma))
            solve_cached(build_problem(matrix.spec, rescaled_floor(matrix, "bh")), tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_version_mismatch_forces_resolve(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        problem = build_problem(matrix.spec, floor)
        solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        stale = path.read_text().replace(SOLVER_VERSION, "older-solver")
        path.write_text(stale)
        refreshed = solve_cached(problem, tmp_path)
        assert refreshed.solver_version == SOLVER_VERSION
        assert SOLVER_VERSION in path.read_text()

    def test_version_change_overwrites_in_place(self, tmp_path, monkeypatch):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        solve_cached(problem, tmp_path)
        monkeypatch.setattr(lp, "SOLVER_VERSION", "newer-solver")
        solve_cached(problem, tmp_path)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        assert json.loads(entries[0].read_text())["solver_version"] == "newer-solver"

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A write that fails before the rename removes its temporary file
        and stores nothing, so the next call solves afresh."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(lp.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            solve_cached(problem, tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        assert solve_cached(problem, tmp_path).iterations > 0
        assert [entry.suffix for entry in tmp_path.iterdir()] == [".json"]

    def test_key_ignores_floor_provenance(self, tmp_path, monkeypatch):
        """A custom floor with the bits of a rescaled one is the same program,
        so it is served from that entry, with family and params from its own
        floor."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        floor = rescaled_floor(matrix, "bh")
        fresh = solve_cached(build_problem(matrix.spec, floor), tmp_path)
        monkeypatch.setattr(lp, "solve", no_solve)
        served = solve_cached(build_problem(matrix.spec, CriticalVector(floor.values)), tmp_path)
        assert np.array_equal(served.xi.values, fresh.xi.values)
        assert (served.xi.family, served.xi.params) == (Family.CUSTOM, {"stage": "modified"})

    @pytest.mark.parametrize("corrupt", [
        lambda entry: {"solver_version": entry["solver_version"]},
        lambda entry: {**entry, "xi": entry["xi"][:2]},
        lambda entry: {**entry, "xi": [0.0] * len(entry["xi"])},
        lambda entry: {**entry, "xi": [1.0] * len(entry["xi"])},
        lambda entry: {**entry, "xi": entry["xi"][:-1] + [None]},
    ], ids=["no-xi", "short-xi", "below-floor", "infeasible", "null-in-xi"])
    def test_bad_entry_is_resolved(self, tmp_path, corrupt):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        clean = solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        entry = path.read_text()
        path.write_text(json.dumps(corrupt(json.loads(entry))))
        refreshed = solve_cached(problem, tmp_path)
        assert np.array_equal(refreshed.xi.values, clean.xi.values)
        assert path.read_text() == entry

    def test_entry_holds_only_version_and_xi(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 12, gamma=0.1))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "rs"))
        fresh = solve_cached(problem, tmp_path)
        entry = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert entry == {"solver_version": SOLVER_VERSION, "xi": fresh.xi.values.tolist()}
        hit = solve_cached(problem, tmp_path)
        assert (fresh.iterations > 0, hit.iterations) == (True, 0)

    def test_forged_fields_are_recomputed(self, tmp_path):
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        fresh = solve_cached(problem, tmp_path)
        path = next(tmp_path.glob("*.json"))
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "objective": 999.0, "floor_objective": 5.0,
                                    "m1": 42.0, "m2": 7.0,
                                    "xi_params": {"stage": "forged"}}))
        served = solve_cached(problem, tmp_path)
        assert np.array_equal(served.xi.values, fresh.xi.values)
        assert ((served.objective, served.floor_objective, served.m1, served.m2)
                == (fresh.objective, fresh.floor_objective, fresh.m1, fresh.m2))
        assert served.xi.params == fresh.xi.params

    def test_nine_field_entry_is_a_hit(self, tmp_path, monkeypatch):
        """Entries that also store the derived fields and the status are
        served from their xi, without a solve."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 10, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        fresh = solve_cached(problem, tmp_path)
        next(tmp_path.glob("*.json")).write_text(json.dumps({
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
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        solution = solve_cached(problem, cache_dir)
        assert np.array_equal(solution.xi.values, solve(problem).xi.values)
        assert solution.iterations > 0

    def test_failed_solve_leaves_no_cache_file(self, tmp_path, monkeypatch):
        """A failed solve stores nothing, and creates no cache directory that
        did not exist yet."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
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
        with pytest.raises(lp.SolverError):
            solve_cached(problem, tmp_path / "new" / "cache")
        assert list(tmp_path.iterdir()) == []

    def test_directory_made_only_to_write(self, tmp_path, monkeypatch):
        """A miss creates the missing cache directory, parents too, to store
        its entry; a hit makes no directory."""
        matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
        problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
        cache = tmp_path / "new" / "cache"
        fresh = solve_cached(problem, cache)
        assert len(list(cache.glob("*.json"))) == 1

        def no_mkdir(*args, **kwargs):
            raise AssertionError("mkdir on a cache hit")

        monkeypatch.setattr(lp.Path, "mkdir", no_mkdir)
        monkeypatch.setattr(lp, "solve", no_solve)
        assert np.array_equal(solve_cached(problem, cache).xi.values, fresh.xi.values)

    def test_concurrent_and_crashed_writers(self, tmp_path, monkeypatch):
        """Writers racing on one cold key each return the solve's own bits and
        leave one entry; the temporary file of a writer killed before its
        rename does not disturb a later hit."""
        spec = ErrorRateSpec(Rate.FDP_SU, 200, gamma=0.05)
        problem = build_problem(spec, family_constants("bh", 200, spec))
        expected = solve(problem).xi.values.tobytes()
        start = threading.Barrier(4)

        def racer(_):
            start.wait()
            return solve_cached(problem, tmp_path)

        with ThreadPoolExecutor(max_workers=4) as pool:
            solutions = list(pool.map(racer, range(4)))
        assert [s.xi.values.tobytes() for s in solutions] == [expected] * 4
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1 and not list(tmp_path.glob("*.tmp"))
        partial = entries[0].read_text()[:100]
        (tmp_path / f"{entries[0].stem}abcd.tmp").write_text(partial)
        monkeypatch.setattr(lp, "solve", no_solve)
        assert solve_cached(problem, tmp_path).xi.values.tobytes() == expected
        assert list(tmp_path.glob("*.json")) == entries

    def test_miss_removes_the_temporaries_of_its_key(self, tmp_path):
        """A cold solve removes the temporary file that a writer of its key
        left when it was killed before its rename, and no other key's."""
        spec = ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05)
        problem = build_problem(spec, family_constants("bh", 15, spec))
        solve_cached(problem, tmp_path)
        entry = next(tmp_path.glob("*.json"))
        stored = entry.read_bytes()
        entry.unlink()
        stale, foreign = tmp_path / f"{entry.stem}abcd.tmp", tmp_path / f"{'0' * 64}abcd.tmp"
        for path in (stale, foreign):
            path.write_text('{"solver_version"')
        solve_cached(problem, tmp_path)
        assert entry.read_bytes() == stored
        assert list(tmp_path.glob("*.tmp")) == [foreign]

    def test_writer_whose_temporary_a_peer_removed(self, tmp_path, monkeypatch):
        """A peer that stores the entry first removes this writer's temporary
        with its own, so the rename finds no file; the writer returns its
        solution, the one the peer stored."""
        spec = ErrorRateSpec(Rate.FDP_SU, 15, gamma=0.05)
        problem = build_problem(spec, family_constants("bh", 15, spec))
        replace, renames = os.replace, []

        def peer_first(tmp, path):
            Path(path).write_bytes(Path(tmp).read_bytes())  # the peer's entry
            os.unlink(tmp)
            renames.append(tmp)
            return replace(tmp, path)

        monkeypatch.setattr(os, "replace", peer_first)
        solution = solve_cached(problem, tmp_path)
        assert len(renames) == 1
        assert solution.xi.values.tobytes() == solve(problem).xi.values.tobytes()
        assert len(list(tmp_path.glob("*.json"))) == 1 and not list(tmp_path.glob("*.tmp"))
        monkeypatch.undo()
        monkeypatch.setattr(lp, "solve", no_solve)
        assert solve_cached(problem, tmp_path).xi.values.tobytes() == solution.xi.values.tobytes()


def test_non_optimal_highs_status_raises(monkeypatch):
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
    problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: SimpleNamespace(
        status=4, message="Numerical difficulties encountered.", nit=7, x=None))
    with pytest.raises(lp.SolverError, match="Numerical difficulties"):
        solve(problem)


def test_decreasing_highs_optimum_raises(monkeypatch):
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 8, gamma=0.05))
    problem = build_problem(matrix.spec, rescaled_floor(matrix, "bh"))
    x = problem.floor.values.copy()
    x[0] = x[1] + 2 * lp.FEASIBILITY_TOL
    monkeypatch.setattr(lp, "linprog", lambda *args, **kwargs: SimpleNamespace(
        status=0, message="Optimization terminated successfully.", nit=3, x=x))
    with pytest.raises(lp.SolverError, match="xi is not nondecreasing"):
        solve(problem)


def test_build_problem_reads_the_spec_of_a_matrix():
    """perfbench still poses its program on an AssociatedMatrix; that is the
    program of the matrix's spec."""
    spec = ErrorRateSpec(Rate.FDP_SD, 20, gamma=0.05)
    floor = family_constants("bh", 20, spec)
    for weights in (None, np.arange(1.0, 21.0)):
        from_spec = build_problem(spec, floor, weights)
        from_matrix = build_problem(associated_matrix(spec), floor, weights)
        assert from_matrix.spec is spec
        assert np.array_equal(from_matrix.floor_bounds, from_spec.floor_bounds)
        assert np.array_equal(from_matrix.weights, from_spec.weights)


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
    solution = solve(build_problem(matrix.spec, floor))
    assert solution.status == "optimal"
    assert len(calls) == 2
    assert solution.m2 == pytest.approx(
        np.max(bound_vector(matrix.spec, solution.xi) / bound_vector(matrix.spec, floor)), rel=1e-12)


def stacked_round(A, active, scale):
    """The reference program of one round: ``A[active] @ diag(scale)``
    stacked on the scaled difference rows by ``sparse.vstack``, canonical."""
    n = A.shape[1]
    steps = sparse.diags([scale[:-1] / scale[1:], -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    rows = (A if active is None else A[active]) @ sparse.diags(scale)
    stacked = sparse.vstack([rows, steps], format="csr")
    stacked.sort_indices()
    return stacked


ROUND_CASES = [(rate, gamma, family, n) for rate in (Rate.FDP_SU, Rate.FDP_SD)
               for gamma in (0.0, 0.05) for family in ("bh", "rs") for n in (15, 100, 300)]


class TestRoundPrograms:
    @pytest.mark.parametrize("rate,gamma,family,n", ROUND_CASES,
                             ids=[f"{r.value}-{g}-{f}-{n}" for r, g, f, n in ROUND_CASES])
    def test_highs_receives_the_stacked_program(self, rate, gamma, family, n, monkeypatch):
        """Every round hands HiGHS the program of ``stacked_round`` entry for
        entry, in the same order, with the same bounds, objective and right-hand
        side; the active rows and the scale are replayed from the outside."""
        rounds = []

        def recording(*args, **kwargs):
            result = linprog(*args, **kwargs)
            rounds.append((args[0], kwargs, result.x))
            return result

        monkeypatch.setattr(lp, "linprog", recording)
        spec = ErrorRateSpec(rate, n, gamma=gamma)
        problem = build_problem(spec, family_constants(family, n, spec))
        solve(problem)
        A, c = associated_matrix(spec).rows, problem.floor.values
        active, scale, upper = None, np.ones(n), np.full(n, np.inf)
        if A.nnz > 2 * lp.START_ROWS * n:
            active = np.union1d(np.argsort(-problem.floor_bounds, kind="stable")[:lp.START_ROWS],
                                [n - 1])
            with np.errstate(divide="ignore"):
                implied = 1.0 / A.max(axis=0).toarray().ravel()
            implied = np.maximum(np.minimum.accumulate(implied[::-1])[::-1], c)
            scale = np.where(np.isfinite(implied), implied, 1.0)
            upper = implied / scale
        for objective, kwargs, x in rounds:
            got, reference = sparse.csr_array(kwargs["A_ub"]), stacked_round(A, active, scale)
            assert got.has_sorted_indices and got.shape == reference.shape
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(reference, field)), field
            m = reference.shape[0] - (n - 1)
            assert np.array_equal(kwargs["b_ub"], np.concatenate([np.ones(m), np.zeros(n - 1)]))
            assert np.array_equal(kwargs["bounds"], np.column_stack([c / scale, upper]))
            assert np.array_equal(objective, -(problem.weights @ A) * scale)
            if active is not None:
                stepped = np.maximum.accumulate(np.maximum(x * scale, c))
                violated = np.flatnonzero(bound_vector(spec, stepped) > 1.0)
                active = np.union1d(active, violated)
        assert rounds  # the program went to HiGHS

    @pytest.mark.parametrize("rate,gamma,n,family,rounds", [
        (Rate.FDP_SU, 0.05, 300, "bh", None),  # dense: several rounds
        (Rate.FDP_SD, 0.05, 300, "rs", 1),  # sparse: every row from the start
        (Rate.FDP_SU, 0.05, 100, "bh", 1),
    ], ids=["fdp-su-300", "fdp-sd-300", "fdp-su-100"])
    def test_row_generation_computes_one_bound_vector_per_round(
            self, rate, gamma, n, family, rounds, monkeypatch):
        """Each round checks its optimum with one A @ xi, and the accepted
        optimum's diagnostics reuse the last one. A sparse matrix starts
        from all its rows, so its first round is its last."""
        spec = ErrorRateSpec(rate, n, gamma=gamma)
        problem = build_problem(spec, family_constants(family, n, spec))
        bound_calls, highs_calls = [], []

        def counting(spec, c):
            bound_calls.append(spec)
            return bound_vector(spec, c)

        monkeypatch.setattr(lp, "bound_vector", counting)
        monkeypatch.setattr(lp, "linprog", recording_linprog(highs_calls))
        solution = solve(problem)
        if rounds is None:
            assert len(highs_calls) > 1  # a row-generation solve from START_ROWS rows
        else:
            assert len(highs_calls) == rounds
            assert highs_calls[0][0] == 2 * n - 1  # all n rows and the n - 1 difference rows
        assert len(bound_calls) == len(highs_calls)
        assert solution.m2 == pytest.approx(
            np.max(bound_vector(spec, solution.xi) / problem.floor_bounds), rel=1e-12)


def full_matrix_solve(problem):
    """The whole program in one HiGHS call with the solver's options, post-
    processed as ``solve`` post-processes each round."""
    n, c = problem.spec.n, problem.floor.values
    A = associated_matrix(problem.spec).rows
    steps = np.eye(n - 1, n) - np.eye(n - 1, n, k=1)
    result = linprog(-(problem.weights @ A),
                     A_ub=sparse.vstack([A, steps], format="csr"),
                     b_ub=np.concatenate([np.ones(n), np.zeros(n - 1)]),
                     bounds=np.column_stack([c, np.full(n, np.inf)]),
                     method="highs", options={"presolve": False})
    assert result.status == 0, result.message
    return np.maximum.accumulate(np.maximum(result.x, c))


ROWGEN_CASES = [
    (rate, param, family, n)
    for rate, params in [(Rate.FDP_SU, (0.0, 0.005, 0.05, 0.25)),
                         (Rate.FDP_SD, (0.0, 0.005, 0.05, 0.25)),
                         (Rate.KFWER_SU, (1, 2, 5)), (Rate.KFWER_SD, (1, 2, 5))]
    for param in params
    for family in ("bh", "rs")
    for n in (50, 200, 400)
]


class TestRowGeneration:
    @pytest.mark.parametrize("rate,param,family,n", ROWGEN_CASES,
                             ids=[f"{r.value}-{p}-{f}-{n}" for r, p, f, n in ROWGEN_CASES])
    def test_matches_full_matrix_solve(self, rate, param, family, n):
        kwarg = "gamma" if rate.is_fdp else "k"
        matrix = associated_matrix(ErrorRateSpec(rate, n, **{kwarg: param}))
        floor = rescaled_floor(matrix, family)
        problem = build_problem(matrix.spec, floor)
        solution = solve(problem)
        full = full_matrix_solve(problem)
        check_solution_invariants(matrix, floor, solution)
        assert solution.objective == pytest.approx(
            problem.weights @ bound_vector(matrix.spec, full), rel=1e-9)
        pos = floor.values > 0
        assert solution.m1 == pytest.approx(np.max(full[pos] / floor.values[pos]), rel=1e-9)
        one_round = matrix.rows.nnz <= 2 * lp.START_ROWS * n  # today's program, in one round
        if matrix.spec.rate.is_fdp and one_round:
            assert np.array_equal(solution.xi.values, full)

    def test_rounds(self, monkeypatch):
        """A sparse matrix starts from every row, unbounded above; a dense
        one starts from START_ROWS rows plus row n under finite implied
        bounds, grows its active set, and sums the rounds' iterations."""
        calls = []

        def recording(*args, **kwargs):
            result = linprog(*args, **kwargs)
            calls.append((kwargs["A_ub"].shape[0], kwargs["bounds"][:, 1], result.nit))
            return result

        monkeypatch.setattr(lp, "linprog", recording)
        n = 400
        for rate, family in [(Rate.FDP_SD, "rs"), (Rate.FDP_SU, "bh")]:
            calls.clear()
            matrix = associated_matrix(ErrorRateSpec(rate, n, gamma=0.05))
            solution = solve(build_problem(matrix.spec, rescaled_floor(matrix, family)))
            assert solution.iterations == sum(nit for _, _, nit in calls)
            if rate is Rate.FDP_SD:
                assert [(rows, np.isinf(upper).all()) for rows, upper, _ in calls] == [
                    (2 * n - 1, True)]
            else:
                rows = [rows - (n - 1) for rows, _, _ in calls]
                assert rows[0] == lp.START_ROWS + 1 and len(rows) > 1
                assert rows == sorted(set(rows)) and rows[-1] < n
                assert all(np.isfinite(upper).all() for _, upper, _ in calls)


def closed_form_weights(kind, n):
    if kind == "uniform":
        return None
    if kind == "random":
        return np.random.default_rng(n).uniform(0.0, 1.0, n)
    return np.arange(1.0, n + 1.0) ** 4  # skewed toward the rows with many true nulls


def highs_forbidden(*args, **kwargs):
    raise AssertionError("HiGHS called for a closed-form program")


def recording_linprog(calls):
    def recording(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape)
        return linprog(*args, **kwargs)
    return recording


# (rate, n, k, family, weights): every program here has a constant threshold.
CLOSED_FORM_CASES = [
    (rate, n, k, family, weights)
    for rate in (Rate.KFWER_SU, Rate.KFWER_SD)
    for n in (1, 2, 3, 10, 50, 400)
    for k in sorted({1, 2, 5, n})
    if k <= n
    for family in ("bh", "rs")
    for weights in ("uniform", "random", "skewed")
]


class TestClosedForm:
    @pytest.mark.parametrize(
        "rate,n,k,family,weights", CLOSED_FORM_CASES,
        ids=[f"{r.value}-{n}-{k}-{f}-{w}" for r, n, k, f, w in CLOSED_FORM_CASES])
    def test_exact_optimum(self, rate, n, k, family, weights, monkeypatch):
        """Step-up attains the bound of its optimality proof; step-down is
        the Lehmann-Romano vector of column bounds. Both match a whole-program
        HiGHS solve on F(xi) and M1."""
        spec = ErrorRateSpec(rate, n, k=k)
        floor = family_constants(family, n, spec)
        problem = build_problem(spec, floor, closed_form_weights(weights, n))
        monkeypatch.setattr(lp, "linprog", highs_forbidden)
        solution = solve(problem)
        matrix = associated_matrix(spec)
        check_solution_invariants(matrix, floor, solution)
        assert solution.iterations == 0
        xi, c, w = solution.xi.values, floor.values, problem.weights
        assert np.array_equal(xi[:k - 1], c[:k - 1])  # columns in no row stay at the floor
        if rate is Rate.KFWER_SU:
            tight = np.flatnonzero(problem.floor_bounds >= 1.0 - 1e-12)
            last = tight[-1] + 1 if tight.size else k - 1
            bound = w[:last] @ problem.floor_bounds[:last] + w[last:].sum()
            assert solution.objective == pytest.approx(bound, rel=1e-12)
        else:
            lehmann_romano = rs_constants(spec).values[k - 1:]
            assert lehmann_romano == pytest.approx(
                1.0 / matrix.entries.max(axis=0)[k - 1:], rel=1e-15)  # the column bounds
            assert np.array_equal(xi[k - 1:], np.maximum(lehmann_romano, c[k - 1:]))
        full = full_matrix_solve(problem)
        assert solution.objective == pytest.approx(w @ bound_vector(spec, full), rel=1e-9)
        pos = c > 0
        assert solution.m1 == pytest.approx(np.max(full[pos] / c[pos]), rel=1e-9)

    @pytest.mark.parametrize("family", ["bh", "rs"])
    @pytest.mark.parametrize("n,k", [(n, k) for n in (2, 400, 20000) for k in (1, 2, 5)
                                     if k <= n])
    def test_step_down_is_lehmann_romano_bit_for_bit(self, n, k, family, monkeypatch):
        """The back-substitution of ``saturate_rows`` gives the kfwer-sd
        optimum the bits of the Lehmann-Romano constants, lifted to the
        floor; the columns below k stay at the floor."""
        spec = ErrorRateSpec(Rate.KFWER_SD, n, k=k)
        floor = family_constants(family, n, spec).values
        monkeypatch.setattr(lp, "linprog", highs_forbidden)
        xi = solve(build_problem(spec, CriticalVector(floor))).xi.values
        expected = np.maximum(rs_constants(spec).values, floor)
        assert xi[k - 1:].tobytes() == expected[k - 1:].tobytes()
        assert xi[:k - 1].tobytes() == floor[:k - 1].tobytes()

    @pytest.mark.parametrize("rate", [Rate.KFWER_SU, Rate.KFWER_SD])
    @pytest.mark.parametrize("n,k", [(1, 1), (10, 2), (50, 5)])
    def test_zero_floor(self, rate, n, k, monkeypatch):
        """With no tight row, step-up sets rows k..n to 1: all mass on xi_n."""
        spec = ErrorRateSpec(rate, n, k=k)
        problem = build_problem(spec, CriticalVector(np.zeros(n)))
        monkeypatch.setattr(lp, "linprog", highs_forbidden)
        solution = solve(problem)
        assert solution.objective == pytest.approx(n - k + 1, rel=1e-12)
        if rate is Rate.KFWER_SU:
            assert solution.xi.values.tolist() == [0.0] * (n - 1) + [1.0]

    @pytest.mark.parametrize("n,k", [(10, 2), (50, 2), (50, 5)])
    def test_back_substitution_starts_after_the_last_tight_row(self, n, k, monkeypatch):
        """A floor whose tight rows have a gap (row r + 1 below 1, rows r and
        r + 2..n at 1) is its own optimum: every column lies in a tight row."""
        spec = ErrorRateSpec(Rate.KFWER_SU, n, k=k)
        x = solve(build_problem(spec, family_constants("bh", n, spec))).xi.values.copy()
        r = int(np.flatnonzero(bound_vector(spec, x) >= 1.0 - 1e-12)[0]) + 1
        j = n - r + k - 2  # 0-based column that row r + 1 adds
        x[j] -= 1e-3 * (x[j] - x[j - 1])
        floor = CriticalVector(matrices.saturate_rows(spec, x, r + 2))
        bounds = bound_vector(spec, floor)
        assert bounds[r - 1] >= 1.0 - 1e-12 and bounds[r] < 1.0 - 1e-6
        assert np.all(bounds[r + 1:] >= 1.0 - 1e-12)
        monkeypatch.setattr(lp, "linprog", highs_forbidden)
        solution = solve(build_problem(spec, floor))
        assert np.array_equal(solution.xi.values, floor.values)

    def test_decreasing_back_substitution_falls_back_to_highs(self, monkeypatch):
        spec = ErrorRateSpec(Rate.KFWER_SU, 50, k=2)
        floor = family_constants("bh", 50, spec)
        problem = build_problem(spec, floor)
        closed = solve(problem)
        calls = []
        monkeypatch.setattr(lp, "_closed_form", lambda problem: np.linspace(1.0, 0.5, 50))
        monkeypatch.setattr(lp, "linprog", recording_linprog(calls))
        solution = solve(problem)
        assert calls and solution.iterations > 0
        check_solution_invariants(associated_matrix(spec), floor, solution)
        assert solution.objective == pytest.approx(closed.objective, rel=1e-9)

    def test_back_substitution_below_floor_falls_back_to_highs(self, monkeypatch):
        """A shrunk floor has no tight row, and setting rows k..n to 1 drives
        xi below it; HiGHS solves that program."""
        matrix = associated_matrix(ErrorRateSpec(Rate.KFWER_SU, 10, k=2))
        floor = CriticalVector(rescaled_floor(matrix).values * 0.5)
        assert lp._closed_form(build_problem(matrix.spec, floor))[8] < floor.values[8]
        calls = []
        monkeypatch.setattr(lp, "linprog", recording_linprog(calls))
        solution = solve(build_problem(matrix.spec, floor))
        assert calls and solution.iterations > 0
        check_solution_invariants(matrix, floor, solution)
        assert solution.objective == pytest.approx(
            scipy_optimum(matrix, floor), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("family", ["bh", "rs"])
    @pytest.mark.parametrize("n,k", [(10, 2), (50, 2), (50, 5)])
    def test_nearly_tight_floor_is_not_tight(self, n, k, family):
        """A floor whose largest row bound lies in (1 - 1e-6, 1 - 1e-12) has
        no tight row, and F(xi) is that of a whole-program HiGHS solve. Were
        those rows taken as tight, xi would keep their columns at the floor
        and F(xi) would fall short by about 1e-7 relative."""
        spec = ErrorRateSpec(Rate.KFWER_SU, n, k=k)
        floor = CriticalVector(family_constants(family, n, spec).values * (1 - 1e-7))
        problem = build_problem(spec, floor)
        assert 1 - 1e-6 < problem.floor_bounds.max() < 1 - 1e-12
        solution = solve(problem)
        check_solution_invariants(associated_matrix(spec), floor, solution)
        full = full_matrix_solve(problem)
        assert solution.objective == pytest.approx(
            problem.weights @ bound_vector(spec, full), rel=1e-9)

    @pytest.mark.parametrize("family", ["bh", "rs"])
    @pytest.mark.parametrize("n", [1, 10, 19])
    def test_fdp_programs_with_constant_threshold_go_to_highs(self, n, family):
        """fdp-su with gamma * n < 1 and fdp-sd at gamma 0 are kFWER programs
        with k = 1, but HiGHS solves them; the optima agree."""
        pairs = [(ErrorRateSpec(Rate.FDP_SU, n, gamma=0.0), Rate.KFWER_SU),
                 (ErrorRateSpec(Rate.FDP_SU, n, gamma=0.99 / n), Rate.KFWER_SU),
                 (ErrorRateSpec(Rate.FDP_SD, n, gamma=0.0), Rate.KFWER_SD)]
        for fdp, kfwer_rate in pairs:
            kfwer = ErrorRateSpec(kfwer_rate, n, k=1)
            fdp_solution, kfwer_solution = (
                solve(build_problem(spec, family_constants(family, n, spec)))
                for spec in (fdp, kfwer))
            assert fdp_solution.iterations > 0 and kfwer_solution.iterations == 0
            assert fdp_solution.objective == pytest.approx(kfwer_solution.objective, rel=1e-9)
            assert fdp_solution.m1 == pytest.approx(kfwer_solution.m1, rel=1e-9)

    @pytest.mark.parametrize("spec", [
        ErrorRateSpec(Rate.KFWER_SU, 300, k=2), ErrorRateSpec(Rate.KFWER_SD, 300, k=2),
    ], ids=["kfwer-su", "kfwer-sd"])
    def test_cold_solve_builds_nothing_and_is_cached(self, spec, tmp_path, monkeypatch):
        problem = build_problem(spec, family_constants("rs", spec.n, spec))

        def no_matrix(spec):
            raise AssertionError("matrix built for a closed-form program")

        monkeypatch.setattr(lp, "associated_matrix", no_matrix)
        monkeypatch.setattr(lp, "linprog", highs_forbidden)
        fresh = solve_cached(problem, tmp_path)
        assert fresh.iterations == 0
        assert len(list(tmp_path.glob("*.json"))) == 1
        monkeypatch.setattr(lp, "solve", no_solve)
        served = solve_cached(problem, tmp_path)
        assert served.xi.values.tobytes() == fresh.xi.values.tobytes()
        assert ((served.objective, served.m1, served.m2)
                == (fresh.objective, fresh.m1, fresh.m2))


def exact_bound(spec, c):
    """max(A @ c) in exact rationals, from ``row_events``: row i weighs its
    levels L by i/(L(L+1)) and its last level by i/L, and every float in c
    is read as the rational it is."""
    values = [Fraction(x) for x in c.values.tolist()]
    worst = Fraction(0)
    for i in range(1, spec.n + 1):
        events = row_events(spec, i)
        if events:
            *inner, (last, column) = events
            total = sum(values[col - 1] / (L * (L + 1)) for L, col in inner)
            worst = max(worst, i * (total + values[column - 1] / last))
    return worst


@pytest.fixture(scope="module")
def exact_excesses():
    """Exact max(A @ c) - 1 of every rescaled and LP-improved bh and rs
    vector, over the four rates at n in {10, 50, 100} (gamma 0.05, k 2)."""
    excesses = {}
    for rate in Rate:
        for n in (10, 50, 100):
            spec = (ErrorRateSpec(rate, n, gamma=0.05) if rate.is_fdp
                    else ErrorRateSpec(rate, n, k=2))
            for family in ("bh", "rs"):
                for modified in (False, True):
                    c = family_constants(family, n, spec, modified=modified)
                    excesses[rate.value, n, family, modified] = exact_bound(spec, c) - 1
    assert len(excesses) == 48
    return excesses


@pytest.mark.xfail(strict=True, reason="rescaled floors and LP optima are feasible only to "
                   "within rounding: exact max(A @ c) exceeds 1 by up to about 1e-14")
def test_every_vector_is_exactly_feasible(exact_excesses):
    assert {case: float(excess) for case, excess in exact_excesses.items() if excess > 0} == {}


def test_exact_excess_is_below_1e_12(exact_excesses):
    assert max(exact_excesses.values()) <= Fraction(1, 10**12)
