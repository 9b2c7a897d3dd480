"""Exhaustive containment oracle: at small n, every error state of every rate
lies in the union of its row's events.

A step rule's rejection count R, its false rejections V, and every event
"the L-th smallest null p-value is at most c_col" depend on the p-values only
through the interval (c_{j-1}, c_j] that each falls in (c_0 = 0, and the last
interval lies above c_n). So enumerating the (n+1)^n assignments of
hypotheses to intervals, with hypotheses 1..i as the nulls, checks row i's
containment exactly, for every nondecreasing c and every p-vector at that n.
The error is read from the rate's definition, not from ``threshold``: R >= 1
and V >= k for kFWER, V > gamma*R (V >= floor(gamma*R) + 1) for tail-FDP,
with gamma read as the decimal ``Fraction(repr(gamma))``.

Run as a script, the module checks the n = 6 grid as well:
``python tests/test_containment.py``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from mtbounds import ErrorRateSpec, Rate, row_events

GAMMAS = (0.0, 0.1, 0.2, 0.25, 0.34, 0.5, 0.6, 0.8)
KS = (1, 2, 3)

# fdp-sd rows hold events that no error state needs: each listed system's
# count of events that cover no error state alone. Every other system of
# the grid, and every system of the other three rates, has none.
UNNEEDED_FDP_SD = {(3, 0.8): 1, (4, 0.6): 1, (4, 0.8): 3, (5, 0.6): 2, (5, 0.8): 6,
                   (6, 0.6): 3, (6, 0.8): 9}


def grid_specs(rate: Rate, n: int) -> list[ErrorRateSpec]:
    if rate.is_fdp:
        return [ErrorRateSpec(rate, n, gamma=gamma) for gamma in GAMMAS]
    return [ErrorRateSpec(rate, n, k=k) for k in KS if k <= n]


@lru_cache(maxsize=None)
def states(n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Every assignment of n hypotheses to the intervals 1..n+1, interval j
    being (c_{j-1}, c_j] for j <= n. Returns ``below``, where
    ``below[s, h, j]`` counts the hypotheses 1..h at or below c_j in state s
    (none at j = 0), and each direction's rejection count R per state."""
    positions = np.indices((n + 1,) * n).reshape(n, -1).T + 1  # (S, n), 1..n+1
    at_or_below = positions[:, :, None] <= np.arange(n + 1)  # (S, n, n+1)
    below = np.concatenate(
        (np.zeros((len(positions), 1, n + 1), dtype=np.int8),
         np.cumsum(at_or_below, axis=1, dtype=np.int8)), axis=1)
    count = below[:, n, 1:]  # p-values at or below c_j, j = 1..n
    enough = count >= np.arange(1, n + 1)
    # step-up: the largest j with enough; step-down: the run of enough from j=1
    step_up = np.where(enough.any(axis=1), n - np.argmax(enough[:, ::-1], axis=1), 0)
    step_down = np.where(enough.all(axis=1), n, np.argmin(enough, axis=1))
    return below, {"su": step_up, "sd": step_down}


def error_threshold(spec: ErrorRateSpec, r: np.ndarray) -> np.ndarray:
    """The least V that makes R = r rejections an error, from the definition."""
    if not spec.rate.is_fdp:
        return np.full_like(r, spec.k)
    gamma = Fraction(repr(spec.gamma))
    return np.array([math.floor(gamma * x) + 1 for x in r.tolist()])


def check(spec: ErrorRateSpec, events=row_events) -> tuple[int, int]:
    """(uncovered error states, unneeded events) over every row of the
    spec's system, with row i's events from ``events(spec, i)``."""
    n = spec.n
    below, rejections = states(n)
    r = rejections[spec.rate.direction]
    k = error_threshold(spec, np.arange(n + 1))
    uncovered = unneeded = 0
    for i in range(1, n + 1):
        nulls = below[:, i]  # nulls at or below each column
        # either rule rejects the hypotheses at or below c_R, exactly R of them
        error = (r >= 1) & (nulls[np.arange(len(r)), r] >= k[r])
        pairs = events(spec, i)
        held = np.array([nulls[:, col] >= level for level, col in pairs], dtype=bool).reshape(
            len(pairs), len(r))
        uncovered += int(np.count_nonzero(error & ~held.any(axis=0)))
        alone = error & (held.sum(axis=0) == 1)
        unneeded += int(np.count_nonzero(~(held & alone).any(axis=1)))
    return uncovered, unneeded


def expected_unneeded(spec: ErrorRateSpec) -> int:
    return UNNEEDED_FDP_SD.get((spec.n, spec.gamma), 0) if spec.rate is Rate.FDP_SD else 0


def without_last_level(spec: ErrorRateSpec, i: int) -> list[tuple[int, int]]:
    return row_events(spec, i)[:-1]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("rate", list(Rate), ids=lambda rate: rate.value)
def test_every_error_state_lies_in_its_rows_events(rate, n):
    for spec in grid_specs(rate, n):
        assert check(spec) == (0, expected_unneeded(spec)), spec


def test_grid_holds_104_systems():
    assert sum(len(grid_specs(rate, n)) for rate in Rate for n in range(1, 6)) == 104


def test_oracle_sees_a_dropped_level():
    """The self-check: fdp-sd rows without their last level leave error
    states uncovered, the shape of a matrix that is too small."""
    uncovered = sum(check(ErrorRateSpec(Rate.FDP_SD, n, gamma=gamma), without_last_level)[0]
                    for n in range(1, 6) for gamma in (0.0, 0.1, 0.25, 0.5, 0.8))
    assert uncovered == 68044


def main(max_n: int = 6) -> int:
    """Check every system of the grid up to ``max_n``, print each failing
    one, and return 1 if any fails."""
    failures = systems = 0
    for n in range(1, max_n + 1):
        for rate in Rate:
            for spec in grid_specs(rate, n):
                systems += 1
                found, expected = check(spec), (0, expected_unneeded(spec))
                if found != expected:
                    failures += 1
                    print(f"{spec}: (uncovered, unneeded) = {found}, expected {expected}")
    print(f"{systems} systems at n <= {max_n}, {failures} failing")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
