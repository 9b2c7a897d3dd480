"""Bound matrices for generalized multiple-testing error rates.

Each supported error rate (kFWER or tail-FDP, step-up or step-down) has an
associated nonnegative n-by-n matrix A. Row i of A turns a vector c of
critical constants into an upper bound (A @ c)[i-1] on the error rate when
exactly i null hypotheses are true, valid under arbitrary dependence of the
p-values. Constants with ``max(A @ c) <= 1`` therefore control the rate at
level alpha once multiplied by alpha. Every rate is its threshold
(``ErrorRateSpec.threshold``): l rejections count as an error once k(l) of
them are false, so the event system, and with it A, follows from k and the
stepping direction alone.

``bound_vector`` computes ``A @ c`` from the rate's event system without
forming A, in O(n) memory. Rescaling divides by its maximum; ``verify`` and
the LP's checks of its floor and its optimum compare that maximum with
``1 + lp.FEASIBILITY_TOL``, the one feasibility test. The spec is A: it
builds its sparse ``rows`` and dense ``entries`` on first read, which only
``lp.solve`` (``rows``) and ``cli.cmd_matrix`` (``entries``, for the
``matrix`` writers in ``fileio``) do, each through ``associated_matrix``.

Rows and columns are 1-based in every public field and docstring (row i =
number of true hypotheses, column j = index of the j-th critical constant);
the raw ``entries`` array uses ordinary 0-based numpy indexing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Rate",
    "ErrorRateSpec",
    "associated_matrix",
    "bound_vector",
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


def _check_n(n) -> None:
    if not isinstance(n, numbers.Integral) or n < 1:  # numpy integers are Integral
        raise ValueError(f"n must be a positive integer, got {n}")


@dataclass(frozen=True)
class ErrorRateSpec:
    """An error rate with its parameter, which is its bound matrix A.

    kFWER variants carry an integer ``k`` (1 <= k <= n), FDP variants carry
    ``gamma`` (0 <= gamma < 1); ``n`` counts the hypotheses. A's views,
    ``rows`` (sparse) and ``entries`` (dense, read-only, ``[i-1, j-1]`` the
    coefficient of c_j when i hypotheses are true), are built on first read
    and kept for as long as the spec lives; equality and hashing ignore them.
    """

    rate: Rate
    n: int
    k: int | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        _check_n(self.n)
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
            if not (isinstance(self.k, numbers.Integral) and 1 <= self.k <= self.n):
                raise ValueError(f"k must satisfy 1 <= k <= n={self.n}, got {self.k}")

    @property
    def param(self) -> tuple[str, int | float]:
        """The rate's parameter as ``(name, value)``: ``("gamma", gamma)`` or
        ``("k", k)``."""
        return ("gamma", self.gamma) if self.rate.is_fdp else ("k", self.k)

    @property
    def threshold(self) -> np.ndarray:
        """k(l) for l = 1..n: l rejections are an error once k(l) of them are
        false, k for kFWER and floor(gamma*l)+1 for tail-FDP. Nondecreasing,
        and k(1) >= 1."""
        if not self.rate.is_fdp:
            return np.full(self.n, self.k)
        return np.floor(self.gamma * np.arange(1, self.n + 1)).astype(int) + 1

    @property
    def spec(self) -> ErrorRateSpec:  # itself: perfbench reads a matrix's spec
        return self

    @cached_property
    def rows(self) -> sparse.csr_array:
        """A in canonical CSR form, assembled row by row from the event system.

        Row i is the generalized Bonferroni bound on the union of its events
        (Lehmann & Romano 2005; Romano & Shaikh 2006): level L < last puts
        i/(L*(L+1)) on its column, the last level i/L. A row's columns
        increase with its levels, and every weight is positive, so the rows
        are sorted, free of duplicates and of explicit zeros.
        """
        n = self.n
        first, last, cap = _event_system(self)
        counts = np.maximum(last - first + 1, 0)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        index = np.int32 if indptr[-1] < 2**31 else np.int64
        last, cap, indptr = last.astype(index), cap.astype(index), indptr.astype(index)
        i = np.repeat(np.arange(1, n + 1, dtype=index), counts)
        levels = np.arange(indptr[-1], dtype=index) - np.repeat(indptr[:-1] - first, counts)
        data = i / np.where(levels == last[i - 1], levels, levels * (levels + 1.0))
        columns = np.minimum(levels + n - i, cap[levels - 1]) - 1
        from scipy import sparse  # imported on first use: most runs build no sparse A
        return sparse.csr_array((data, columns, indptr), shape=(n, n))

    @cached_property
    def entries(self) -> np.ndarray:
        dense = self.rows.toarray()
        dense.setflags(write=False)
        return dense


def _event_system(spec: ErrorRateSpec) -> tuple[int, np.ndarray, np.ndarray]:
    """The order-statistic event system behind every row of the matrix;
    every rate is its threshold k = ``spec.threshold``.

    Returns ``(first, last, cap)``: row i holds the levels
    ``first..last[i-1]`` (none when ``last[i-1] < first``), and level L of
    row i pairs with the constant at column ``min(L + n - i, cap[L-1])``.
    Every system starts at level k(1), and level L >= k(1) reaches at most
    column ``cap[L-1]``, the last l with k(l) <= L: beyond it, l rejections
    need more than L false ones. ``cap`` is nondecreasing, and ``cap[L-1] - L``
    is nondecreasing while ``cap[L-1] < n``; ``last`` rises and then falls,
    so the rows holding a level are contiguous.
    """
    n = spec.n
    rows = np.arange(1, n + 1)
    k = spec.threshold
    cap = np.searchsorted(k, np.maximum(rows, k[0]), side="right")
    if spec.rate.direction == "su":
        # Rejecting down to constant l errs only from level k(l) on; each
        # level pairs with the largest column it can reach.
        last = np.maximum(rows - n + cap, k[cap - 1])
    elif spec.rate.is_fdp:
        # Step-down: with L false rejections the FDP exceeds gamma only while
        # the rejection count stays below L/gamma, and with i true nulls it is
        # at most n-i+L (Romano & Shaikh 2006).
        gamma = spec.gamma
        last = np.minimum(
            k[-1], np.floor(gamma * ((n - rows) / (1.0 - gamma) + 1.0)).astype(int) + 1)
    else:  # kfwer-sd: each row i >= k holds level k alone
        last = k
    return int(k[0]), np.minimum(rows, last), cap


def associated_matrix(spec: ErrorRateSpec) -> ErrorRateSpec:
    """The spec itself, which is A: the one call that reaches A's views, so
    perfbench counts the bytes they take and tests substitute a builder."""
    return spec


def fdp_sd_matrix(n: int, gamma: float) -> ErrorRateSpec:
    """The fdp-sd spec, unexported: ``perfbench/test_perfbench.py`` imports it."""
    return ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma)


def bound_vector(spec: ErrorRateSpec, c) -> np.ndarray:
    """A @ c without building A: component i bounds the error rate when i
    hypotheses are true.

    ``c`` is a CriticalVector or a plain array of length n. Time is
    O(nnz(A)), memory O(n). Row i sums c over its levels: the levels before
    its crossover (where ``cap[L-1] - L`` reaches n - i) sit on their capped
    columns, which no row changes, so one prefix sum serves every row; the
    later ones run along the diagonal ``L + n - i``, one dot product of two
    contiguous slices; the last level adds ``c[col]/L``.
    """
    n = spec.n
    v = np.asarray(getattr(c, "values", c), dtype=float)
    if v.shape != (n,):
        raise ValueError(f"constants must have length {n}, got shape {v.shape}")
    first, last, cap = _event_system(spec)
    rows = np.arange(1, n + 1)
    levels = rows[first - 1:]
    w = 1.0 / (levels * (levels + 1.0))
    # level L sits on its capped column in rows i with cap[L-1] - L < n - i
    gap = np.where(cap < n, cap - rows, n)[first - 1:]
    capped = np.concatenate(([0.0], np.cumsum(v[cap[first - 1:] - 1] * w)))
    ends = np.maximum(last - first, 0)  # each row's last level, counted from first
    split = np.minimum(np.searchsorted(gap, n - rows), ends)
    total = capped[split]
    diagonal = np.flatnonzero(split < ends)
    starts = first + split[diagonal] + n - diagonal - 2  # 0-based, first diagonal level
    total[diagonal] += [v[s:s + b - a].dot(w[a:b]) for s, a, b in zip(
        starts.tolist(), split[diagonal].tolist(), ends[diagonal].tolist())]
    final = np.maximum(last, first)
    total += v[np.minimum(final + n - rows, cap[final - 1]) - 1] / final
    return np.where(last >= first, rows * total, 0.0)


def saturate_rows(spec: ErrorRateSpec, c, start: int) -> np.ndarray:
    """c with rows start..n of A @ xi set to exactly 1, in turn, each solved
    for the column of its first level; A is not built. k(1) <= start <= n+1.

    Only for a system whose levels all sit on their diagonal columns
    L + n - i (no level capped below n, as for every kFWER rate): row i's
    first level then holds column k(1) + n - i, which no earlier row holds,
    and every other column of the row is already fixed; a row of one level
    gets k(1)/i there. Time is O(nnz(A)) over those rows, memory O(n).
    """
    n = spec.n
    first, last, cap = _event_system(spec)
    if np.any(cap[first - 1:] < n):
        raise ValueError(f"{spec.rate.value} caps its levels; its rows share columns")
    if not first <= start <= n + 1:
        raise ValueError(f"start must satisfy {first} <= start <= n + 1 = {n + 1}, got {start}")
    xi = np.array(getattr(c, "values", c), dtype=float)
    levels = np.arange(first, n + 1)
    w = 1.0 / (levels * (levels + 1.0))
    rows = np.arange(start, n + 1)
    single = last[start - 1:] == first  # a row of one level reads no other column
    xi[first + n - rows[single] - 1] = first / rows[single]
    for i in rows[~single].tolist():
        top = int(last[i - 1])  # levels first..top on columns first+n-i..top+n-i
        j = first + n - i - 1  # 0-based
        end = top + n - i - 1  # 0-based column of the last level
        rest = i * xi[j + 1:end].dot(w[1:top - first]) + i / top * xi[end]
        xi[j] = (1.0 - rest) / (i / (first * (first + 1.0)))
    return xi


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
    first, last, cap = _event_system(spec)
    return [(L, int(min(L + spec.n - i, cap[L - 1])))
            for L in range(first, int(last[i - 1]) + 1)]
