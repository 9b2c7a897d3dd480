"""Step-up/step-down testing procedures, adjusted p-values, and
``family_constants``, the one path from a named constant family to feasible
constants.

Both step rules are one kernel, ``_rejection_counts``, over sorted p-values:
it serves ``step_up``/``step_down`` on one vector and the power study on a
batch of replications alike. Hypotheses are identified by their 1-based
position in the input p-value vector. Sorting is stable on (value, original
index), so ties are resolved reproducibly; rejection counts do not depend on
the tie order because the step rules only look at order statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import lp
from .constants import (
    CriticalVector,
    Family,
    bh_constants,
    by_constants,
    gr_sd_constants,
    rescale,
    rs_constants,
)
from .matrices import ErrorRateSpec, _check_n

__all__ = [
    "PValueVector",
    "DecisionSet",
    "step_up",
    "step_down",
    "adjusted_pvalues",
    "ProcedureSpec",
    "family_constants",
    "run_procedure",
]

# Constant-family selector names: bh and rs are rescaled into a bound
# matrix's feasible set; by and gr ship pre-normalized for FDR control, each
# with its stepping direction and its constants.
FDR_FAMILIES = {"by": ("su", by_constants), "gr": ("sd", gr_sd_constants)}
FAMILIES = tuple(f.value for f in Family if f is not Family.CUSTOM)


def _check_family(family: str, n: int, spec: ErrorRateSpec | None, modified: bool) -> None:
    """Raise ValueError on the first family rule that fails: a known name;
    by and gr take no spec and no ``modified``; bh and rs need a spec of n
    hypotheses."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if family in FDR_FAMILIES:
        if spec is not None:
            raise ValueError(f"family {family!r} is pre-normalized and takes no error-rate spec")
        if modified:
            raise ValueError(f"family {family!r} has no modified variant")
    elif spec is None:
        raise ValueError(f"family {family!r} requires an error-rate spec")
    elif spec.n != n:
        raise ValueError(f"error-rate spec is for n={spec.n}, got n={n}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class PValueVector:
    """Raw p-values, with hypothesis labels or None; the writers in ``fileio``
    label an unlabelled hypothesis by its 1-based index."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)  # a copy: the caller keeps its array writeable
        if v.ndim != 1 or v.size == 0:
            raise ValueError("p-values must form a nonempty 1-D array")
        if np.any(~np.isfinite(v)) or np.any(v < 0) or np.any(v > 1):
            raise ValueError("p-values must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.labels is not None and len(self.labels) != v.size:
            raise ValueError("labels length must match values")

    @property
    def n(self) -> int:
        return self.values.size

    def order(self) -> np.ndarray:
        """Stable ascending sort permutation (0-based original indices), a
        read-only array computed once per vector."""
        return self._order

    @cached_property
    def _order(self) -> np.ndarray:
        order = np.argsort(self.values, kind="stable")
        order.setflags(write=False)
        return order


@dataclass(frozen=True)
class DecisionSet:
    """Outcome of one procedure application: ``rejected`` holds the 1-based
    original indices of the ``n_rejected`` smallest p-values."""

    rejected: frozenset[int]

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


def _rejection_counts(sorted_p: np.ndarray, thresholds: np.ndarray,
                      direction: str) -> np.ndarray:
    """Rejection counts of a step rule along the last axis of ascending
    p-values, for one vector or a batch of rows. Step-up ("su") rejects up to
    the last p-value at or below its threshold, step-down ("sd") up to the
    first one above it. P-values lie in [0, 1], so a threshold above 1 acts
    as 1 without a clamp."""
    hit = sorted_p <= thresholds
    n = hit.shape[-1]
    if direction == "su":
        return np.where(hit.any(axis=-1), n - np.argmax(hit[..., ::-1], axis=-1), 0)
    return np.where(hit.all(axis=-1), n, np.argmax(~hit, axis=-1))


def _step(p: PValueVector, c: CriticalVector, direction: str) -> DecisionSet:
    if c.n != p.n:
        raise ValueError(f"constants have length {c.n}, p-values {p.n}")
    order = p.order()
    k = int(_rejection_counts(p.values[order], c.values, direction))
    return DecisionSet(rejected=frozenset((order[:k] + 1).tolist()))


def step_up(p: PValueVector, c: CriticalVector) -> DecisionSet:
    """Reject the k smallest p-values, k the largest index whose order
    statistic sits at or below its constant; nothing if no index qualifies."""
    return _step(p, c, "su")


def step_down(p: PValueVector, c: CriticalVector) -> DecisionSet:
    """Reject the longest prefix of sorted p-values that stays at or below
    the constants throughout; nothing if the smallest p-value already
    exceeds its constant."""
    return _step(p, c, "sd")


def adjusted_pvalues(p: PValueVector, c: CriticalVector, direction: str) -> np.ndarray:
    """Generic adjusted p-values: the smallest alpha at which the hypothesis
    is rejected by the procedure family alpha*c, as a read-only array in
    input order (``adjusted[j]`` belongs to hypothesis j+1).

    Over the sorted p-values, step-up takes the running suffix-minimum of
    pv_(j)/c_j, step-down the running prefix-maximum, both clipped to 1. A
    zero constant makes the ratio +inf (then clipped): hypotheses at such
    positions are only ever rejected through a later (step-up) position.
    """
    if direction not in ("su", "sd"):
        raise ValueError(f"direction must be 'su' or 'sd', got {direction!r}")
    if c.n != p.n:
        raise ValueError(f"constants have length {c.n}, p-values {p.n}")
    order = p.order()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(c.values > 0, p.values[order] / c.values, np.inf)
    if direction == "su":
        adj = np.minimum.accumulate(ratio[::-1])[::-1]
    else:
        adj = np.maximum.accumulate(ratio)
    out = np.empty_like(adj)
    out[order] = np.minimum(adj, 1.0)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProcedureSpec:
    """A fully parameterized procedure.

    Families ``bh`` and ``rs`` are floors for an error-rate matrix: they are
    rescaled into its feasible set and optionally LP-improved, then applied
    at level ``alpha`` in the matrix's stepping direction. Families ``by``
    (step-up) and ``gr`` (step-down) are the pre-normalized FDR procedures.
    ``_check_family`` holds these rules: bh and rs need a ``rate`` of n
    hypotheses, by and gr take no ``rate`` and cannot be modified.
    """

    family: str
    n: int
    alpha: float
    rate: ErrorRateSpec | None = None
    modified: bool = False

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_n(self.n)
        _check_family(self.family, self.n, self.rate, self.modified)

    @property
    def direction(self) -> str:
        return FDR_FAMILIES[self.family][0] if self.rate is None else self.rate.rate.direction

    @property
    def name(self) -> str:
        if self.rate is None:
            kind = "FDR"
        else:
            kind = "FDP" if self.rate.rate.is_fdp else f"kFWER(k={self.rate.k})"
        base = f"{kind}-{self.family.upper()}-{self.direction.upper()}"
        return f"{base} (mod)" if self.modified else base


def family_constants(
    family: str,
    n: int,
    spec: ErrorRateSpec | None = None,
    *,
    modified: bool = False,
    cache_dir: str | Path | None = None,
) -> CriticalVector:
    """The level-1 constants of a named family, along the one path
    family -> raw vector -> rescale -> [LP improvement].

    ``by`` and ``gr`` come pre-normalized, take no ``spec`` and have no
    modified variant. ``bh`` and ``rs`` need ``spec``, the bound matrix of
    n hypotheses: they are rescaled into its feasible set without building
    it and, when ``modified``, improved by the LP (through the cache in
    ``cache_dir``), which reads the matrix's sparse rows only on a cache
    miss. ``_check_family`` raises ValueError on a broken family rule;
    lp.SolverError means the LP has no accepted solution.
    """
    _check_family(family, n, spec, modified)
    if family in FDR_FAMILIES:
        return FDR_FAMILIES[family][1](n)
    floor, _ = rescale(bh_constants(n) if family == "bh" else rs_constants(spec), spec)
    if not modified:
        return floor
    return lp.solve_cached(lp.build_problem(spec, floor), cache_dir).xi


def run_procedure(
    p: PValueVector,
    spec: ProcedureSpec,
    cache_dir: str | Path | None = None,
) -> tuple[DecisionSet, np.ndarray]:
    """Apply the procedure to raw p-values.

    Decisions come from the thresholds alpha * ``family_constants``; adjusted
    p-values use the unscaled constants, so "adjusted <= alpha" matches the
    rejection decision at every level.
    """
    if p.n != spec.n:
        raise ValueError(f"procedure is for n={spec.n}, got {p.n} p-values")
    base = family_constants(spec.family, spec.n, spec.rate, modified=spec.modified,
                            cache_dir=cache_dir)
    thresholds = base.scaled(spec.alpha)
    apply = step_up if spec.direction == "su" else step_down
    return apply(p, thresholds), adjusted_pvalues(p, base, spec.direction)
