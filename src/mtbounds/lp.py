"""Linear-programming improvement of feasible critical constants.

Given a bound matrix A and a feasible floor c, the program maximizes
``sum_j a_j xi_j`` (a = weighted column sums of A) over all nondecreasing
xi >= c with ``max(A @ xi) <= 1``. Its optimum dominates the floor
coordinatewise, so the resulting procedure rejects everything the floor
procedure rejects; the objective is the sum of the rows' maximal
significance bounds and serves as a surrogate for power.

A kFWER program (kfwer-su, kfwer-sd) has a known optimum: the
Lehmann-Romano column bounds when stepping down, a back-substitution over
the nested row supports (``matrices.saturate_rows``) when stepping up.
``solve`` computes it in O(n) memory and O(nnz(A)) time, builds no matrix
and calls no solver. Every tail-FDP program, and a closed
form that fails its monotone or floor test, is solved by HiGHS through
``scipy.optimize.linprog``: the rows of A's sparse form, built by ``solve``
alone from the problem's spec, are stacked on the difference rows
``xi_j - xi_{j+1} <= 0``, and the floor is passed as the variables' lower
bounds. HiGHS's presolve is off: it did not shorten these solves, and on
the step-up matrices, about half full, its time grew by a fifth when
another process streamed memory. Those dense programs are solved by row
generation (Kelley's cutting-plane method): at the optimum only a few
dozen of their n rows are tight, so ``solve`` hands HiGHS a growing subset
of the rows until no other row is violated. A sparse matrix goes to HiGHS
whole, in one round. Both paths are deterministic, so repeated solves are
bit-identical.

xi is the program's one product: the objective, M1, M2 and provenance are
functions of A, the floor and xi, and are fields of ``LPSolution``.
``_solution`` alone accepts a candidate xi, solved or from the cache,
raises SolverError on a rejection, and derives those fields from the
floor's bound vector and the one ``A @ xi`` that its check computed; both
are taken without building A, so a cache hit builds no matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize import linprog

from .constants import CriticalVector, Family, rs_constants
from .matrices import ErrorRateSpec, associated_matrix, bound_vector, saturate_rows

__all__ = [
    "SOLVER_VERSION",
    "SolverError",
    "LPProblem",
    "LPSolution",
    "build_problem",
    "solve",
    "solve_cached",
]

SOLVER_VERSION = f"kfwer-closedform+highs-rowgen-nopresolve-scipy-{scipy.__version__}"
FEASIBILITY_TOL = 1e-9
START_ROWS = 40  # rows of the first restricted program of a dense matrix


class SolverError(RuntimeError):
    """No optimal vector, or one that fails the acceptance check."""


@dataclass(frozen=True)
class LPProblem:
    """The assembled program: the spec that names A, a feasible floor,
    mean-1 weights and the floor's bound vector A @ floor."""

    spec: ErrorRateSpec
    floor: CriticalVector
    weights: np.ndarray
    floor_bounds: np.ndarray

    @property
    def n(self) -> int:
        return self.spec.n


@dataclass(frozen=True)
class LPSolution:
    """An accepted optimum: xi with the diagnostics derived from it.

    objective = F(xi) and floor_objective = F(floor), where
    F(x) = weights @ (A @ x);
    m1 = max xi_i / floor_i over floor_i > 0 (nan if the floor is zero);
    m2 = max (A xi)_i / (A floor)_i over rows with positive floor bound.
    Both are vertex diagnostics: the objective value is the unique part of
    the optimum, the maximizing vertex need not be. ``iterations`` is 0 for
    a cache hit or a closed-form solve.
    """

    xi: CriticalVector
    objective: float
    floor_objective: float
    m1: float
    m2: float
    iterations: int
    status = "optimal"  # class attributes, not fields
    solver_version = SOLVER_VERSION


def build_problem(
    spec: ErrorRateSpec,
    floor: CriticalVector,
    weights: np.ndarray | None = None,
) -> LPProblem:
    """Validate inputs and assemble an LPProblem; A is not built.

    Raises ValueError when max(A @ floor) > 1 + 1e-9, on a dimension
    mismatch or on bad weights.
    """
    spec = getattr(spec, "spec", spec)  # perfbench still passes an AssociatedMatrix
    n = spec.n
    if floor.n != n:
        raise ValueError(f"floor has length {floor.n}, matrix is {n}x{n}")
    floor_bounds = bound_vector(spec, floor)
    worst = float(np.max(floor_bounds))
    if worst > 1.0 + FEASIBILITY_TOL:
        raise ValueError(f"floor is infeasible: max bound {worst:.12g} > 1")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights must have length {n}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must have positive sum")
        w = w * (n / total)  # mean 1, so uniform weights give plain column sums
    w.setflags(write=False)
    floor_bounds.setflags(write=False)
    return LPProblem(spec=spec, floor=floor, weights=w, floor_bounds=floor_bounds)


def _solution(problem: LPProblem, xi: np.ndarray, iterations: int) -> LPSolution:
    """Accept the candidate ``xi`` for ``problem`` and package it as the
    MODIFIED vector with its provenance and diagnostics.

    Raises SolverError unless xi is finite, nondecreasing, of length n, at
    or above the floor and has max(A @ xi) <= 1 + FEASIBILITY_TOL.
    """
    params = dict(problem.floor.params or {})
    if "parent" in params:
        params["origin"] = params.pop("parent")
    params["parent"] = problem.floor.family.value
    try:  # CriticalVector checks finite, nonnegative and nondecreasing
        vec = CriticalVector(xi, Family.MODIFIED, params)
    except ValueError as exc:
        raise SolverError(f"solver failed: {exc}") from None
    if vec.n != problem.n:
        raise SolverError(f"solver failed: xi has length {vec.n}, expected {problem.n}")
    if np.any(vec.values < problem.floor.values):
        raise SolverError("solver failed: xi falls below the floor")
    bounds = bound_vector(problem.spec, vec)
    worst = float(np.max(bounds))
    if worst > 1.0 + FEASIBILITY_TOL:
        raise SolverError(f"solver failed: xi is infeasible, max bound {worst:.12g} > 1")
    floor, floor_bounds = problem.floor.values, problem.floor_bounds
    pos = floor > 0
    m1 = float(np.max(vec.values[pos] / floor[pos])) if pos.any() else float("nan")
    rows = floor_bounds > 0
    m2 = float(np.max(bounds[rows] / floor_bounds[rows])) if rows.any() else float("nan")
    return LPSolution(xi=vec, objective=float(problem.weights @ bounds),
                      floor_objective=float(problem.weights @ floor_bounds), m1=m1, m2=m2,
                      iterations=iterations)


def _closed_form(problem: LPProblem) -> np.ndarray | None:
    """The optimum of a kFWER program, or None for a tail-FDP one; A is not
    built.

    The threshold k is constant, so rows below k are empty and columns below
    k lie in no row; they stay at the floor, the vertex HiGHS returns.
    Step-down row i >= k holds i/k on column n - i + k alone, so the optimum
    for any nonnegative weights is the coordinatewise largest feasible
    vector: the Lehmann-Romano constants k/(n + k - j) (2005), lifted to the
    floor where rounding leaves them a hair below.

    Step-up row i >= k holds columns n - i + k..n, so the supports are
    nested. Let i* be the last tight row, one whose floor bound is 1 to
    within 1e-12 (k - 1 when there is none). Its coefficients are positive,
    so every column in its support, and every row up to i*, is held at the
    floor. Each later row adds one column, and ``saturate_rows`` sets the
    rows i*+1..n to exactly 1 in turn. No feasible xi has an objective
    above ``sum_{i<=i*} w_i (A floor)_i + sum_{i>i*} w_i``, and this vector
    attains that bound, so it is optimal whenever it is nondecreasing and
    at or above the floor (complementary slackness with dual y = w on the
    tight rows; Bertsimas & Tsitsiklis 1997, ch. 4); ``solve`` checks both.

    Tail-FDP at gamma * n < 1 has the constant threshold 1 too, the program
    of kFWER with k = 1, but goes to HiGHS: perfbench's tracer test counts
    the matrix bytes of such a solve (fdp-sd, gamma 0.05, n = 15).
    """
    spec = problem.spec
    if spec.rate.is_fdp:
        return None
    k = spec.k
    xi = problem.floor.values.copy()
    if spec.rate.direction == "sd":
        xi[k - 1:] = np.maximum(rs_constants(spec).values[k - 1:], xi[k - 1:])
        return xi
    tight = np.flatnonzero(problem.floor_bounds >= 1.0 - 1e-12)
    return saturate_rows(spec, xi, int(tight[-1]) + 2 if tight.size else k)


def solve(problem: LPProblem) -> LPSolution:
    """Solve the program and package the optimum with its diagnostics.

    A kFWER program takes ``_closed_form``'s optimum: no matrix is built,
    no HiGHS call is made and ``iterations`` is 0. If that vector is not
    nondecreasing or falls below the floor, the program goes to HiGHS like
    any other.

    A matrix with at most ``2 * START_ROWS * n`` nonzeros, about as many as
    a first restricted program of a step-up matrix would hold, goes to HiGHS
    whole, in one round, because row generation is slower there: on a 2-vCPU
    machine, the six fdp-sd programs at gamma 0.05 (n = 100, 200, 300; bh
    and rs floors) took 30 ms together whole and 48-62 ms by row generation
    from ``START_ROWS`` rows. A denser one (the step-up rates beyond n of
    about 160, fdp-sd once gamma * n passes about 160) is solved on an
    active set of its rows: first the ``START_ROWS`` rows with the largest
    floor bound and row n, under the implied bounds
    ``xi_j <= min_{l>=j} 1/max_i A_il`` (raised to the floor where it lies
    above them within tolerance) that keep the restricted program bounded.
    There each variable is measured in units of its implied bound and each
    difference row in units of its larger variable, so HiGHS's absolute
    tolerances become relative ones. Each round adds every inactive row
    whose bound at the round's optimum exceeds 1, and the loop stops when
    there is none. Each restricted program relaxes the full one, so its
    optimum, once no row is violated, is the full optimum. ``iterations``
    sums over the rounds.

    Never returns an infeasible point: a non-optimal HiGHS status, a
    monotonicity violation beyond FEASIBILITY_TOL, or a vector that fails
    ``_solution``'s check raises SolverError. The returned vector dominates
    the floor exactly.
    """
    c = problem.floor.values
    xi = _closed_form(problem)
    if xi is not None and np.all(np.diff(xi) >= 0) and np.all(xi >= c):
        return _solution(problem, xi, 0)
    n = problem.n
    A = associated_matrix(problem.spec).rows
    active, scale, upper = None, np.ones(n), np.full(n, np.inf)
    if A.nnz > 2 * START_ROWS * n:
        start = np.argsort(-problem.floor_bounds, kind="stable")[:START_ROWS]
        active = np.union1d(start, [n - 1])
        with np.errstate(divide="ignore"):
            implied = 1.0 / A.max(axis=0).toarray().ravel()
        implied = np.maximum(np.minimum.accumulate(implied[::-1])[::-1], c)
        # HiGHS's bound tolerance is absolute: unscaled, fdp-su at gamma 0 and
        # n=2000 ended 5e-8 below floors near 1e-3, and lifting xi to the floor
        # put a row's bound at 1 + 4.9e-6.
        scale = np.where(np.isfinite(implied), implied, 1.0)
        upper = implied / scale
    units = sparse.diags(scale)
    # xi_j - xi_{j+1} <= 0, in units of xi_{j+1}
    steps = sparse.diags([scale[:-1] / scale[1:], -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    objective = -(problem.weights @ A) * scale  # a_j = sum_i w_i A_ij
    iterations = 0
    while True:
        rows = (A if active is None else A[active]) @ units
        result = linprog(
            objective,
            A_ub=sparse.vstack([rows, steps], format="csr"),
            b_ub=np.concatenate([np.ones(rows.shape[0]), np.zeros(n - 1)]),
            bounds=np.column_stack([c / scale, upper]),
            method="highs",
            options={"presolve": False},
        )
        if result.status != 0:
            raise SolverError(f"solver failed: {result.message}")
        iterations += int(result.nit)
        xi = np.maximum(result.x * scale, c)  # HiGHS may end a hair below a bound
        stepped = np.maximum.accumulate(xi)
        if np.max(stepped - xi) > FEASIBILITY_TOL:
            raise SolverError("solver failed: xi is not nondecreasing")
        if active is None:
            break
        violated = np.setdiff1d(np.flatnonzero(bound_vector(problem.spec, stepped) > 1.0),
                                active, assume_unique=True)
        if violated.size == 0:
            break
        active = np.union1d(active, violated)
    return _solution(problem, stepped, iterations)


def solve_cached(problem: LPProblem, cache_dir: str | Path | None) -> LPSolution:
    """solve() through an on-disk JSON cache; with ``cache_dir`` None or
    empty, solve() alone.

    An entry is named by a hash of rate, n, parameter, floor values and
    weights, and holds the solver version and xi (more fields are ignored).
    A hit passes xi through the acceptance check of a fresh optimum, which
    recomputes the objective, M1, M2 and provenance, and reports 0
    iterations; xi round-trips bit-for-bit (JSON stores shortest-roundtrip
    decimals). An entry of another solver version, or one that does not
    decode or fails the check, is re-solved and overwritten in place. Only
    accepted solutions are stored, each written to a temporary file and
    renamed into place, so a reader never sees a partial entry and a failed
    solve is tried again.
    """
    if not cache_dir:
        return solve(problem)
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    spec = problem.spec
    key = hashlib.sha256(f"{spec.rate.value}|{spec.n}|{spec.param[1]!r}".encode()
                         + problem.floor.values.tobytes() + problem.weights.tobytes())
    path = cache / f"{key.hexdigest()}.json"
    try:
        entry = json.loads(path.read_text())
        if entry["solver_version"] == SOLVER_VERSION:
            return _solution(problem, np.array(entry["xi"], dtype=float), 0)
    except (OSError, ValueError, KeyError, TypeError, SolverError):
        pass  # a miss: re-solve and overwrite
    solution = solve(problem)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"solver_version": SOLVER_VERSION,
                                 "xi": solution.xi.values.tolist()}))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return solution
