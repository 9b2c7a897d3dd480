"""Classical critical-constant families and feasibility rescaling.

All families are nondecreasing nonnegative vectors indexed 1..n. They become
level-alpha procedures after rescaling into the feasible set of the relevant
bound matrix (``rescale``) and multiplying by alpha; the BY and GR families
ship pre-normalized for FDR control under arbitrary dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .matrices import AssociatedMatrix, ErrorRateSpec, bound_vector

__all__ = [
    "Family",
    "CriticalVector",
    "bh_constants",
    "lr_fdp_constants",
    "lr_kfwer_constants",
    "by_constants",
    "gr_sd_constants",
    "rescale",
]


class Family(str, Enum):
    BH = "bh"
    LR_FDP = "lr-fdp"
    LR_KFWER = "lr-kfwer"
    BY = "by"
    GR_SD = "gr-sd"
    RESCALED = "rescaled"
    MODIFIED = "modified"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CriticalVector:
    """A nondecreasing nonnegative vector of n critical constants.

    Values above 1 are legal here (against p-values in [0, 1] they act as
    1). ``params`` records provenance such as gamma, k, the parent family
    or the rescaling divisor.
    """

    values: np.ndarray
    family: Family = Family.CUSTOM
    params: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be nondecreasing")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def scaled(self, s: float) -> "CriticalVector":
        """The vector s*values with the same provenance, s > 0."""
        if not s > 0:  # NaN fails the comparison too
            raise ValueError("scale must be positive")
        params = dict(self.params or {})
        params["scale"] = s * float(params.get("scale", 1.0))
        return CriticalVector(self.values * s, self.family, params)


def bh_constants(n: int) -> CriticalVector:
    """The linear staircase i/n."""
    if n < 1:
        raise ValueError("n must be positive")
    return CriticalVector(np.arange(1, n + 1) / n, Family.BH, {"n": n})


def lr_fdp_constants(n: int, gamma: float) -> CriticalVector:
    """(floor(gamma*i)+1) / (n + floor(gamma*i) + 1 - i) for i = 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    i = np.arange(1, n + 1, dtype=float)
    m = np.floor(gamma * i) + 1.0
    return CriticalVector(m / (n + m - i), Family.LR_FDP, {"n": n, "gamma": gamma})


def lr_kfwer_constants(n: int, k: int) -> CriticalVector:
    """k/(n+k-i) for i >= k; entries below k are held at the value at i = k
    (k/n), which keeps the vector nondecreasing and costs nothing since the
    step-down kFWER matrix never touches columns below k."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    i = np.arange(1, n + 1, dtype=float)
    vals = np.where(i >= k, k / (n + k - i), k / n)
    return CriticalVector(vals, Family.LR_KFWER, {"n": n, "k": k})


def _harmonic_prefix(n: int) -> np.ndarray:
    """H_1..H_n accumulated in extended precision."""
    terms = 1.0 / np.arange(1, n + 1, dtype=np.longdouble)
    return np.cumsum(terms).astype(float)


def by_constants(n: int) -> CriticalVector:
    """The linear staircase divided by the n-th harmonic number; controls the
    false discovery rate under arbitrary dependence."""
    if n < 1:
        raise ValueError("n must be positive")
    h_n = float(_harmonic_prefix(n)[-1])
    return CriticalVector(np.arange(1, n + 1) / (n * h_n), Family.BY, {"n": n, "divisor": h_n})


def gr_sd_constants(n: int) -> CriticalVector:
    """The linear staircase divided by its worst-case step-down FDR bound
    D = max_i (i/n) * (H_{n-i+1} + (n-i)/(n-i+1) - (n-i)/n); controls the
    false discovery rate of step-down procedures under arbitrary dependence.
    """
    if n < 1:
        raise ValueError("n must be positive")
    h = _harmonic_prefix(n)
    i = np.arange(1, n + 1, dtype=float)
    tail = n - i
    d = np.max((i / n) * (h[(n - i.astype(int))] + tail / (tail + 1.0) - tail / n))
    return CriticalVector(np.arange(1, n + 1) / (n * d), Family.GR_SD, {"n": n, "divisor": float(d)})


def rescale(c: CriticalVector,
            spec: ErrorRateSpec | AssociatedMatrix) -> tuple[CriticalVector, float]:
    """Divide c by D = max(A @ c), the smallest factor making it feasible.

    ``spec`` names A (an ErrorRateSpec, or an AssociatedMatrix whose spec
    is read); A itself is never built. Returns the rescaled vector (family
    RESCALED, parent recorded in params) and D. Raises if the bound is
    identically zero (c cannot be normalized).
    """
    bounds = bound_vector(getattr(spec, "spec", spec), c)
    d = float(np.max(bounds))
    if d <= 0.0:
        raise ValueError("bound vector is identically zero; cannot rescale")
    params = {"parent": c.family.value, "divisor": d}
    if c.params:
        params.update({k: v for k, v in c.params.items() if k != "divisor"})
    return CriticalVector(c.values / d, Family.RESCALED, params), d
