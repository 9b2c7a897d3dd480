"""Linear-programming improvement of feasible critical constants.

Given a bound matrix A and a feasible floor c, the program maximizes
``sum_j a_j xi_j`` (a = weighted column sums of A) over all nondecreasing
xi >= c with ``max(A @ xi) <= 1``. Its optimum dominates the floor
coordinatewise, so the resulting procedure rejects everything the floor
procedure rejects; the objective is the sum of the rows' maximal
significance bounds and serves as a surrogate for power.

``solve`` takes a kFWER program's closed form and hands any other to HiGHS,
through ``scipy.optimize.linprog``, in rounds of row generation (Kelley's
cutting-plane method); ``_solution`` accepts each optimum, solved or
cached. Before HiGHS, every column of a floor-tight row is fixed at the
floor, the forcing-constraint reduction of LP presolve (Andersen &
Andersen, Math. Programming 71, 1995), so HiGHS sees only the free
columns. HiGHS's own presolve is off: on a 2-vCPU machine the twelve
tail-FDP programs of the optimize benchmark (n = 100, 200, 300; bh and rs
floors; gamma 0.05) took 52-64 ms together with it on and 44-46 ms with
it off. The loop is deterministic, so repeated solves are bit-identical.
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

from .constants import CriticalVector
from .matrices import ErrorRateSpec, associated_matrix, bound_vector, saturate_rows

__all__ = [
    "SolverError",
    "LPProblem",
    "LPSolution",
    "build_problem",
    "solve",
    "solve_cached",
]

SOLVER_VERSION = f"kfwer-closedform+highs-rowgen-forcing-nopresolve-scipy-{scipy.__version__}"
FEASIBILITY_TOL = 1e-9
START_ROWS = 40  # rows of the first restricted program of a dense matrix


class SolverError(RuntimeError):
    """No optimal vector, or one that fails the acceptance check."""


@dataclass(frozen=True)
class LPProblem:
    """The assembled program: the spec, which is A, a feasible floor,
    mean-1 weights and the floor's bound vector A @ floor."""

    spec: ErrorRateSpec
    floor: CriticalVector
    weights: np.ndarray
    floor_bounds: np.ndarray


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
    n = spec.n
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


def _solution(problem: LPProblem, xi: np.ndarray, iterations: int,
              bounds: np.ndarray | None = None) -> LPSolution:
    """Accept the candidate ``xi`` for ``problem`` and package it, as a
    vector of the floor's family and params at stage "modified", with its
    diagnostics; ``bounds``, when given, is A @ xi, already computed.

    Raises SolverError unless xi is finite, nondecreasing, of length n, at
    or above the floor and has max(A @ xi) <= 1 + FEASIBILITY_TOL.
    """
    params = {**(problem.floor.params or {}), "stage": "modified"}
    try:  # CriticalVector checks finite, nonnegative and nondecreasing
        vec = CriticalVector(xi, problem.floor.family, params)
    except ValueError as exc:
        raise SolverError(f"solver failed: {exc}") from None
    if vec.n != problem.spec.n:
        raise SolverError(f"solver failed: xi has length {vec.n}, expected {problem.spec.n}")
    if np.any(vec.values < problem.floor.values):
        raise SolverError("solver failed: xi falls below the floor")
    if bounds is None:
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


def _tight_rows(problem: LPProblem) -> np.ndarray:
    """The rows whose floor bound is 1 to within 1e-12. A row's coefficients
    are positive and xi >= floor, so each column in a tight row's support
    stays at the floor."""
    return np.flatnonzero(problem.floor_bounds >= 1.0 - 1e-12)


def _closed_form(problem: LPProblem) -> np.ndarray | None:
    """The optimum of a kFWER program, or None for a tail-FDP one; A is not
    built.

    The threshold k is constant, so rows below k are empty and columns below
    k lie in no row; they stay at the floor, the vertex HiGHS returns.
    Step-down row i >= k holds i/k on column n - i + k alone, so the optimum
    for any nonnegative weights is the coordinatewise largest feasible
    vector: ``saturate_rows`` from row k, the Lehmann-Romano constants
    k/(n + k - j) (2005), lifted to the floor where rounding leaves them a
    hair below.

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
    of kFWER with k = 1, but takes the HiGHS path: perfbench's tracer test
    counts the matrix bytes of such a solve (fdp-sd, gamma 0.05, n = 15).
    """
    spec = problem.spec
    if spec.rate.is_fdp:
        return None
    k, floor = spec.k, problem.floor.values
    if spec.rate.direction == "sd":
        return np.maximum(saturate_rows(spec, floor, k), floor)
    tight = _tight_rows(problem)
    return saturate_rows(spec, floor, int(tight[-1]) + 2 if tight.size else k)


def solve(problem: LPProblem) -> LPSolution:
    """Solve the program and package the optimum with its diagnostics.

    A kFWER program takes ``_closed_form``'s optimum: no matrix is built,
    no HiGHS call is made and ``iterations`` is 0. If that vector is not
    nondecreasing or falls below the floor, the program goes to HiGHS like
    any other.

    Any other program first fixes the columns in the support of each tight
    row (``_tight_rows``) at the floor. If no column is free, the floor is
    returned: no HiGHS call is made and ``iterations`` is 0. Otherwise
    HiGHS sees only the free columns: the right-hand side is
    ``1 - A @ (floor on the fixed columns, 0 elsewhere)``, a difference row
    joins each pair of adjacent free columns, and each free column is capped
    by the floor of the next fixed column, which the monotone xi cannot pass.
    A row with no free column keeps the floor's bound and is never sent.
    On the rescaled floors of the optimize benchmark this fixes 44-75% of
    the fdp-su columns and 2-4% of the fdp-sd ones.

    The free block is solved by row generation on an active set of the rows
    with a free column (live rows). A block with at most
    ``2 * START_ROWS * m`` nonzeros for m free columns, about as many as a
    first restricted program of a step-up matrix would hold, starts from
    every live row, unscaled and bounded above by the caps alone, and takes
    one round: on a 2-vCPU machine, the six fdp-sd programs at gamma 0.05
    (n = 100, 200, 300; bh and rs floors) took 30 ms together that way and
    48-62 ms from ``START_ROWS`` rows, before the reduction. A denser one
    (fdp-su from n of about 300 at gamma 0 and by n = 1000 at gamma 0.05,
    fdp-sd at gamma 0.25 by n = 3000) starts from the ``START_ROWS`` live
    rows with the largest floor bound and the last live row, under the
    implied bounds
    ``xi_j <= min_{l>=j} min(1/max_i A_il, cap_l)`` (raised to the floor
    where it lies above them within tolerance) that keep the restricted
    program bounded. Each round is one ``csr_array``: ``A[active]``, each
    variable in units of its implied bound, then the difference rows, each
    in units of its larger variable, so HiGHS's absolute tolerances become
    relative ones. Each round clips the free columns to their floors and
    caps, checks its optimum with one ``A @ xi``, adds every inactive live
    row whose bound there exceeds 1 and stops when there is none. Each
    restricted program relaxes the full one, so its optimum, once no row is
    violated, is the full optimum. ``iterations`` sums the rounds.

    Never returns an infeasible point: a non-optimal HiGHS status, a
    monotonicity violation beyond FEASIBILITY_TOL, or a vector that fails
    ``_solution``'s check raises SolverError. The returned vector dominates
    the floor exactly, and equals it bit for bit on every fixed column.
    """
    c = problem.floor.values
    xi = _closed_form(problem)
    if xi is not None and np.all(np.diff(xi) >= 0) and np.all(xi >= c):
        return _solution(problem, xi, 0)
    from scipy import sparse  # imported on first use: most runs solve no LP
    n = problem.spec.n
    A = associated_matrix(problem.spec).rows  # through the call that perfbench and tests watch
    fixed = np.zeros(n, dtype=bool)
    fixed[A[_tight_rows(problem)].indices] = True
    free = np.flatnonzero(~fixed)
    if free.size == 0:
        return _solution(problem, c, 0, problem.floor_bounds)
    # a free column lies below the next fixed one, so stepping raises no fixed column
    cap = np.minimum.accumulate(np.where(fixed, c, np.inf)[::-1])[::-1][free]
    rhs = 1.0 - A @ np.where(fixed, c, 0.0)
    A, lower, m = A[:, free], c[free], free.size
    live = np.diff(A.indptr) > 0  # a row with no free column keeps the floor's bound
    active, scale, implied = np.flatnonzero(live), np.ones(m), cap
    if A.nnz > 2 * START_ROWS * m:
        start = active[np.argsort(-problem.floor_bounds[active], kind="stable")[:START_ROWS]]
        active = np.union1d(start, active[-1:])
        column_max = np.zeros(m)
        np.maximum.at(column_max, A.indices, A.data)
        with np.errstate(divide="ignore"):
            implied = np.minimum(1.0 / column_max, cap)
        implied = np.maximum(np.minimum.accumulate(implied[::-1])[::-1], lower)
        # HiGHS's bound tolerance is absolute: unscaled, fdp-su at gamma 0 and
        # n=2000 ended 5e-8 below floors near 1e-3, and lifting xi to the floor
        # put a row's bound at 1 + 4.9e-6.
        scale = np.where(np.isfinite(implied) & (implied > 0), implied, 1.0)
    upper = implied / scale
    # xi_j - xi_{j+1} <= 0 for adjacent free columns, in units of xi_{j+1}
    pairs = np.flatnonzero(np.diff(free) == 1)
    step_columns = pairs.repeat(2) + np.tile([0, 1], pairs.size)
    step_data = np.column_stack([scale[pairs] / scale[pairs + 1], -np.ones(pairs.size)]).ravel()
    objective = -(problem.weights @ A) * scale  # a_j = sum_i w_i A_ij
    iterations = 0
    while True:
        rows = A[active]
        result = linprog(
            objective,
            A_ub=sparse.csr_array(
                (np.concatenate([rows.data * scale[rows.indices], step_data]),
                 np.concatenate([rows.indices, step_columns]),
                 np.concatenate([rows.indptr, rows.nnz + 2 * np.arange(1, pairs.size + 1)])),
                shape=(rows.shape[0] + pairs.size, m)),
            b_ub=np.concatenate([rhs[active], np.zeros(pairs.size)]),
            bounds=np.column_stack([lower / scale, upper]),
            method="highs",
            options={"presolve": False},
        )
        if result.status != 0:
            raise SolverError(f"solver failed: {result.message}")
        iterations += int(result.nit)
        xi = c.copy()  # HiGHS may end a hair outside a bound
        xi[free] = np.minimum(np.maximum(result.x * scale, lower), cap)
        stepped = np.maximum.accumulate(xi)
        if np.max(stepped - xi) > FEASIBILITY_TOL:
            raise SolverError("solver failed: xi is not nondecreasing")
        bounds = bound_vector(problem.spec, stepped)
        violated = np.setdiff1d(np.flatnonzero((bounds > 1.0) & live), active,
                                assume_unique=True)
        if violated.size == 0:
            break
        active = np.union1d(active, violated)
    return _solution(problem, stepped, iterations, bounds)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def solve_cached(problem: LPProblem, cache_dir: str | Path | None) -> LPSolution:
    """solve() through an on-disk JSON cache; with ``cache_dir`` None or
    empty, solve() alone.

    An entry is named by a hash of rate, n, parameter, floor values and
    weights, and holds the solver version and xi (more fields are ignored).
    A hit builds no matrix: it passes xi through the acceptance check of a
    fresh optimum, which recomputes the objective, M1, M2, family and
    params, and reports 0 iterations; xi round-trips bit-for-bit (JSON
    stores shortest-roundtrip decimals). An entry of another solver
    version, or one that does not decode or fails the check, is re-solved
    and overwritten in place. Only accepted solutions are stored, each
    written to a temporary file and renamed into place, so a reader never
    sees a partial entry and a failed solve is tried again. After its
    write, a miss removes every temporary file of its key, those of writers
    killed before their rename included; a writer whose temporary a peer
    removed returns its solution, which the deterministic solve makes the
    one the peer stored.
    """
    if not cache_dir:
        return solve(problem)
    cache = Path(cache_dir)
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
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"solver_version": SOLVER_VERSION,
                                 "xi": solution.xi.values.tolist()}))
        os.replace(tmp, path)
    except FileNotFoundError:  # a peer stored this solution and removed our temporary
        pass
    finally:  # ours, a peer's or one a killed writer left
        for stale in cache.glob(f"{path.stem}*.tmp"):
            stale.unlink(missing_ok=True)
    return solution
