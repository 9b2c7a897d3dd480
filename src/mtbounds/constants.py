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

from .matrices import ErrorRateSpec, _check_n, bound_vector

__all__ = [
    "Family",
    "CriticalVector",
    "bh_constants",
    "rs_constants",
    "by_constants",
    "gr_sd_constants",
    "rescale",
]


class Family(str, Enum):
    """Where a vector came from, named as ``--family`` names it; ``custom``
    is any other vector. Rescaling and LP improvement keep the family."""

    BH = "bh"
    RS = "rs"
    BY = "by"
    GR = "gr"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CriticalVector:
    """A nondecreasing nonnegative vector of n critical constants.

    Values above 1 are legal here (against p-values in [0, 1] they act as
    1). ``params`` records the family's parameters, such as n, gamma or k,
    and what later stages did: ``stage`` is "rescaled" or "modified" (a raw
    vector has none), next to the rescaling ``divisor`` and the ``scale``.
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
        """The vector s*values, s > 0, of the same family and stage; ``scale``
        records the product of the factors."""
        if not s > 0:  # NaN fails the comparison too
            raise ValueError("scale must be positive")
        params = dict(self.params or {})
        params["scale"] = s * float(params.get("scale", 1.0))
        return CriticalVector(self.values * s, self.family, params)


def bh_constants(n: int) -> CriticalVector:
    """The linear staircase i/n."""
    _check_n(n)
    return CriticalVector(np.arange(1, n + 1) / n, Family.BH, {"n": n})


def rs_constants(spec: ErrorRateSpec) -> CriticalVector:
    """The Lehmann-Romano family k_i/(n + k_i - i) over the rate's threshold
    k = ``spec.threshold``, which depends on the rate's parameter only, not
    on its direction. Below a kFWER threshold the entries are held at k/n,
    which keeps the vector nondecreasing and costs nothing since the
    step-down kFWER matrix never touches columns below k."""
    n = spec.n
    k = spec.threshold
    i = np.arange(1, n + 1)
    return CriticalVector(k / (n + k - np.maximum(i, k)), Family.RS, dict([("n", n), spec.param]))


def _harmonic_prefix(n: int) -> np.ndarray:
    """H_1..H_n accumulated in extended precision."""
    terms = 1.0 / np.arange(1, n + 1, dtype=np.longdouble)
    return np.cumsum(terms).astype(float)


def by_constants(n: int) -> CriticalVector:
    """The linear staircase divided by the n-th harmonic number; controls the
    false discovery rate under arbitrary dependence."""
    _check_n(n)
    h_n = float(_harmonic_prefix(n)[-1])
    return CriticalVector(np.arange(1, n + 1) / (n * h_n), Family.BY, {"n": n, "divisor": h_n})


def gr_sd_constants(n: int) -> CriticalVector:
    """The linear staircase divided by its worst-case step-down FDR bound
    D = max_i (i/n) * (H_{n-i+1} + (n-i)/(n-i+1) - (n-i)/n); controls the
    false discovery rate of step-down procedures under arbitrary dependence.
    """
    _check_n(n)
    h = _harmonic_prefix(n)
    i = np.arange(1, n + 1, dtype=float)
    tail = n - i
    d = np.max((i / n) * (h[(n - i.astype(int))] + tail / (tail + 1.0) - tail / n))
    return CriticalVector(np.arange(1, n + 1) / (n * d), Family.GR, {"n": n, "divisor": float(d)})


def rescale(c: CriticalVector, spec: ErrorRateSpec) -> tuple[CriticalVector, float]:
    """Divide c by D = max(A @ c), the smallest factor making it feasible.

    ``spec`` is A; no view of it is built, since ``bound_vector`` gives
    A @ c. Returns the rescaled vector, of c's family at stage "rescaled"
    with ``divisor`` D times c's own (by, gr), and D. Raises if the bound is
    identically zero (c cannot be normalized).
    """
    bounds = bound_vector(spec, c)
    d = float(np.max(bounds))
    if d <= 0.0:
        raise ValueError("bound vector is identically zero; cannot rescale")
    params = dict(c.params or {})
    params.update(divisor=d * float(params.get("divisor", 1.0)), stage="rescaled")
    return CriticalVector(c.values / d, c.family, params), d
