"""Linear-programming improvement of feasible critical constants.

Given a bound matrix A and a feasible floor c, the program maximizes
``sum_j a_j xi_j`` (a = weighted column sums of A) over all nondecreasing
xi >= c with ``max(A @ xi) <= 1``. Its optimum dominates the floor
coordinatewise, so the resulting procedure rejects everything the floor
procedure rejects; the objective is the sum of the rows' maximal
significance bounds and serves as a surrogate for power.

The program is solved by HiGHS through ``scipy.optimize.linprog``: A's
sparse rows, assembled from the event system without a dense intermediate,
are stacked on the difference rows ``xi_j - xi_{j+1} <= 0``, and the floor
is passed as the variables' lower bounds. HiGHS's presolve is off: it did
not shorten these solves, and on the step-up matrices, about half full, its
time grew by a fifth when another process streamed memory.
HiGHS is deterministic, so repeated solves are bit-identical.

xi is the program's one product: the objective, M1, M2 and provenance are
functions of A, the floor and xi, and are fields of ``LPSolution``.
``_solution`` alone accepts a candidate xi, from HiGHS or from the cache,
raises SolverError on a rejection, and derives those fields from the
floor's bound vector and the one ``A @ xi`` that its check computed.
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

from .constants import CriticalVector, Family
from .matrices import AssociatedMatrix, bound_vector

__all__ = [
    "SOLVER_VERSION",
    "InfeasibleFloorError",
    "SolverError",
    "LPProblem",
    "LPSolution",
    "build_problem",
    "solve",
    "solve_cached",
    "cache_key",
]

SOLVER_VERSION = f"highs-nopresolve-scipy-{scipy.__version__}"
FEASIBILITY_TOL = 1e-9


class InfeasibleFloorError(ValueError):
    """The floor vector violates the bound constraints."""


class SolverError(RuntimeError):
    """No optimal vector, or one that fails the acceptance check."""


@dataclass(frozen=True)
class LPProblem:
    """The assembled program: matrix, feasible floor, mean-1 weights and the
    floor's bound vector A @ floor."""

    matrix: AssociatedMatrix
    floor: CriticalVector
    weights: np.ndarray
    floor_bounds: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def objective_coefficients(self) -> np.ndarray:
        """a_j = sum_i weights_i * A_ij; plain column sums under uniform
        weights."""
        return self.weights @ self.matrix.rows


@dataclass(frozen=True)
class LPSolution:
    """An accepted optimum: xi with the diagnostics derived from it.

    objective = F(xi) and floor_objective = F(floor), where
    F(x) = weights @ (A @ x);
    m1 = max xi_i / floor_i over floor_i > 0 (nan if the floor is zero);
    m2 = max (A xi)_i / (A floor)_i over rows with positive floor bound.
    Both are vertex diagnostics: the objective value is the unique part of
    the optimum, the maximizing vertex need not be. ``iterations`` is 0 for
    a cache hit.
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
    matrix: AssociatedMatrix,
    floor: CriticalVector,
    weights: np.ndarray | None = None,
) -> LPProblem:
    """Validate inputs and assemble an LPProblem.

    Raises InfeasibleFloorError when max(A @ floor) > 1 + 1e-9, ValueError on
    dimension mismatch or bad weights.
    """
    n = matrix.n
    if floor.n != n:
        raise ValueError(f"floor has length {floor.n}, matrix is {n}x{n}")
    floor_bounds = bound_vector(matrix.spec, floor)
    worst = float(np.max(floor_bounds))
    if worst > 1.0 + FEASIBILITY_TOL:
        raise InfeasibleFloorError(f"floor is infeasible: max bound {worst:.12g} > 1")
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
    return LPProblem(matrix=matrix, floor=floor, weights=w, floor_bounds=floor_bounds)


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
    bounds = bound_vector(problem.matrix.spec, vec)
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


def solve(problem: LPProblem) -> LPSolution:
    """Solve the program with HiGHS and package the optimum with its
    diagnostics.

    Never returns an infeasible point: a non-optimal HiGHS status, a
    monotonicity violation beyond FEASIBILITY_TOL, or a vector that fails
    ``_solution``'s check raises SolverError. The returned vector dominates
    the floor exactly.
    """
    c = problem.floor.values
    n = problem.n
    steps = sparse.diags([np.ones(n - 1), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    result = linprog(
        -problem.objective_coefficients,
        A_ub=sparse.vstack([problem.matrix.rows, steps], format="csr"),
        b_ub=np.concatenate([np.ones(n), np.zeros(n - 1)]),
        bounds=np.column_stack([c, np.full(n, np.inf)]),
        method="highs",
        options={"presolve": False},
    )
    if result.status != 0:
        raise SolverError(f"solver failed: {result.message}")
    xi = np.maximum(result.x, c)  # HiGHS may end a hair below a bound
    stepped = np.maximum.accumulate(xi)
    if np.max(stepped - xi) > FEASIBILITY_TOL:
        raise SolverError("solver failed: xi is not nondecreasing")
    return _solution(problem, stepped, int(result.nit))


def cache_key(problem: LPProblem) -> str:
    """Content hash identifying a solve: rate, n, parameter, floor family and
    exact values, weights and solver version."""
    spec = problem.matrix.spec
    h = hashlib.sha256()
    parts = [
        spec.rate.value,
        str(spec.n),
        repr(spec.param[1]),
        problem.floor.family.value,
        repr(sorted((problem.floor.params or {}).items())),
        SOLVER_VERSION,
    ]
    h.update("|".join(parts).encode())
    h.update(problem.floor.values.tobytes())
    h.update(problem.weights.tobytes())
    return h.hexdigest()


def solve_cached(problem: LPProblem, cache_dir: str | Path | None) -> LPSolution:
    """solve() through an on-disk JSON cache keyed by ``cache_key``; with
    ``cache_dir`` None or empty, solve() alone.

    An entry holds the solver version and xi (entries with more fields are
    read the same way). A hit passes xi through the acceptance check of a
    fresh optimum, which recomputes the objective, M1, M2 and provenance,
    and reports 0 iterations; cached vectors round-trip bit-for-bit (JSON
    stores shortest-roundtrip decimals). An entry that does not decode,
    comes from another solver version or whose xi fails the check is
    re-solved and overwritten. Only accepted solutions are stored, each
    written to a temporary file and renamed into place, so a reader never
    sees a partial entry and a failed solve is tried again.
    """
    if not cache_dir:
        return solve(problem)
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{cache_key(problem)}.json"
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
