"""Bound matrices for generalized multiple-testing error rates.

Each supported error rate (kFWER or tail-FDP, step-up or step-down) has an
associated nonnegative n-by-n matrix A. Row i of A turns a vector c of
critical constants into an upper bound (A @ c)[i-1] on the error rate when
exactly i null hypotheses are true, valid under arbitrary dependence of the
p-values. Constants with ``max(A @ c) <= 1`` therefore control the rate at
level alpha once multiplied by alpha.

Rows and columns are 1-based in every public field and docstring (row i =
number of true hypotheses, column j = index of the j-th critical constant);
the raw ``entries`` array uses ordinary 0-based numpy indexing.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Rate",
    "ErrorRateSpec",
    "AssociatedMatrix",
    "kfwer_su_matrix",
    "kfwer_sd_matrix",
    "fdp_su_matrix",
    "fdp_sd_matrix",
    "associated_matrix",
    "bound_vector",
    "is_feasible",
    "row_events",
]


class Rate(str, Enum):
    """Error rate plus stepping direction targeted by a matrix or procedure."""

    KFWER_SU = "kfwer-su"
    KFWER_SD = "kfwer-sd"
    FDP_SU = "fdp-su"
    FDP_SD = "fdp-sd"

    @property
    def is_fdp(self) -> bool:
        return self in (Rate.FDP_SU, Rate.FDP_SD)

    @property
    def direction(self) -> str:
        """Stepping direction, ``"su"`` or ``"sd"``."""
        return "su" if self in (Rate.KFWER_SU, Rate.FDP_SU) else "sd"


@dataclass(frozen=True)
class ErrorRateSpec:
    """Which error rate a matrix or procedure targets, with its parameter.

    kFWER variants carry ``k`` (1 <= k <= n), FDP variants carry ``gamma``
    (0 <= gamma < 1). ``n`` is the number of hypotheses.
    """

    rate: Rate
    n: int
    k: int | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.rate.is_fdp:
            if self.gamma is None:
                raise ValueError(f"{self.rate.value} requires gamma")
            if self.k is not None:
                raise ValueError(f"{self.rate.value} does not take k")
            if not 0.0 <= self.gamma < 1.0:
                raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        else:
            if self.k is None:
                raise ValueError(f"{self.rate.value} requires k")
            if self.gamma is not None:
                raise ValueError(f"{self.rate.value} does not take gamma")
            if not 1 <= self.k <= self.n:
                raise ValueError(f"k must satisfy 1 <= k <= n={self.n}, got {self.k}")

    @classmethod
    def kfwer_su(cls, n: int, k: int) -> "ErrorRateSpec":
        return cls(Rate.KFWER_SU, n, k=k)

    @classmethod
    def kfwer_sd(cls, n: int, k: int) -> "ErrorRateSpec":
        return cls(Rate.KFWER_SD, n, k=k)

    @classmethod
    def fdp_su(cls, n: int, gamma: float) -> "ErrorRateSpec":
        return cls(Rate.FDP_SU, n, gamma=gamma)

    @classmethod
    def fdp_sd(cls, n: int, gamma: float) -> "ErrorRateSpec":
        return cls(Rate.FDP_SD, n, gamma=gamma)

    @property
    def direction(self) -> str:
        return self.rate.direction

    def param_text(self) -> str:
        """Human/CSV-header form, e.g. ``rate=fdp-su n=50 gamma=0.05``."""
        if self.rate.is_fdp:
            return f"rate={self.rate.value} n={self.n} gamma={self.gamma!r}"
        return f"rate={self.rate.value} n={self.n} k={self.k}"


@dataclass(frozen=True)
class AssociatedMatrix:
    """The nonnegative bound matrix for one error-rate spec.

    ``entries[i-1, j-1]`` is the coefficient of constant c_j in the bound on
    the error rate when i hypotheses are true. Entries are immutable.
    """

    spec: ErrorRateSpec
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.spec.n, self.spec.n):
            raise ValueError(f"entries must be {self.spec.n}x{self.spec.n}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.spec.n


def _event_system(spec: ErrorRateSpec) -> tuple[int, np.ndarray, Callable]:
    """The order-statistic event system behind every row of the matrix.

    Returns ``(first, last, column)``: row i holds the levels
    ``first..last[i-1]`` (none when ``last[i-1] < first``), and level L of
    the rows in the integer array ``rows`` pairs with the constants at
    columns ``column(L, rows)``. The kFWER systems start at level k, the
    tail-FDP systems at level 1.
    """
    n = spec.n
    rows = np.arange(1, n + 1)
    if spec.rate is Rate.KFWER_SU:
        return spec.k, rows, lambda L, r: n - r + L
    if spec.rate is Rate.KFWER_SD:
        return spec.k, np.where(rows >= spec.k, spec.k, 0), lambda L, r: n - r + L
    gamma = spec.gamma
    if spec.rate is Rate.FDP_SU:
        # Rejecting down to constant l can push the FDP above gamma only from
        # level floor(gamma*l)+1 on; a row pairs each level with the largest
        # column that level can reach.
        min_level = np.floor(gamma * rows).astype(int) + 1
        usable = np.searchsorted(min_level, rows, side="right")
        last = np.maximum(rows - n + usable, min_level[usable - 1])
        return 1, last, lambda L, r: np.minimum(
            L + n - r, np.searchsorted(min_level, L, side="right"))
    # Step-down: with L false rejections the FDP exceeds gamma only while the
    # rejection count stays below L/gamma, and with i true nulls it is at most
    # n-i+L; level L pairs with the largest such count.
    last = np.minimum(
        np.minimum(rows, math.floor(gamma * n) + 1),
        np.floor(gamma * ((n - rows) / (1.0 - gamma) + 1.0)).astype(int) + 1)
    return 1, last, lambda L, r: np.minimum(
        n + L - r, n if gamma == 0.0 else min(n, math.ceil(L / gamma) - 1))


def associated_matrix(spec: ErrorRateSpec) -> AssociatedMatrix:
    """Build the matrix for any error-rate spec.

    Row i is the generalized Bonferroni bound on the union of its events
    (Lehmann & Romano 2005; Romano & Shaikh 2006): level L < last puts
    i*(L_next-L)/(L*L_next) on its column, the last level i/L_last. The loop
    runs over levels and fills every row holding a level at once.
    """
    n = spec.n
    first, last, column = _event_system(spec)
    order = np.argsort(-last, kind="stable")  # rows by last level, descending
    top = int(last[order[0]])
    # the rows holding level first+j are the first holding[j] rows of order
    holding = np.searchsorted(-last[order], -np.arange(first, top + 2), side="right")
    by_last = order + 1
    row_start = order * n - 1  # flat index of each row's column 0, minus 1
    A = np.zeros((n, n))
    flat = A.reshape(-1)
    weights = np.empty(n)
    for L, held, going_on in zip(range(first, top + 1), holding, holding[1:]):
        rows = by_last[:held]
        L_next = L + 1
        weights[:going_on] = rows[:going_on] * (L_next - L) / (L * L_next)
        weights[going_on:held] = rows[going_on:] / L
        flat[row_start[:held] + column(L, rows)] += weights[:held]
    return AssociatedMatrix(spec, A)


def kfwer_su_matrix(n: int, k: int) -> AssociatedMatrix:
    """Bound matrix for the k-familywise error rate of step-up procedures."""
    return associated_matrix(ErrorRateSpec.kfwer_su(n, k))


def kfwer_sd_matrix(n: int, k: int) -> AssociatedMatrix:
    """Bound matrix for the k-familywise error rate of step-down procedures."""
    return associated_matrix(ErrorRateSpec.kfwer_sd(n, k))


def fdp_su_matrix(n: int, gamma: float) -> AssociatedMatrix:
    """Bound matrix for the tail false discovery proportion of step-up procedures."""
    return associated_matrix(ErrorRateSpec.fdp_su(n, gamma))


def fdp_sd_matrix(n: int, gamma: float) -> AssociatedMatrix:
    """Bound matrix for the tail false discovery proportion of step-down procedures."""
    return associated_matrix(ErrorRateSpec.fdp_sd(n, gamma))


def _constant_values(c) -> np.ndarray:
    values = getattr(c, "values", c)
    return np.asarray(values, dtype=float)


def bound_vector(matrix: AssociatedMatrix, c) -> np.ndarray:
    """A @ c: component i bounds the error rate when i hypotheses are true.

    ``c`` may be a CriticalVector or a plain array of length n.
    """
    v = _constant_values(c)
    if v.shape != (matrix.n,):
        raise ValueError(f"constants must have length {matrix.n}, got shape {v.shape}")
    return matrix.entries @ v


def is_feasible(matrix: AssociatedMatrix, c, tol: float = 0.0) -> bool:
    """Whether c is nondecreasing, nonnegative and max(A @ c) <= 1 + tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    v = _constant_values(c)
    if v.shape != (matrix.n,):
        raise ValueError(f"constants must have length {matrix.n}, got shape {v.shape}")
    if np.any(v < 0) or np.any(np.diff(v) < 0):
        return False
    return float(np.max(matrix.entries @ v)) <= 1.0 + tol


def row_events(spec: ErrorRateSpec, i: int) -> list[tuple[int, int]]:
    """The order-statistic event system whose union row ``i`` bounds.

    Returns (level, column) pairs, both 1-based: when i hypotheses are true,
    the error-rate event for constants c is contained in the union over pairs
    of {(level-th smallest true-null p-value) <= c[column]}, and row i of the
    matrix dotted with c is the generalized Bonferroni bound on that union's
    probability. An empty list means the event is impossible for this row.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"row must satisfy 1 <= i <= n={spec.n}, got {i}")
    first, last, column = _event_system(spec)
    return [(L, int(column(L, i))) for L in range(first, int(last[i - 1]) + 1)]
