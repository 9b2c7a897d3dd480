"""Monte Carlo power study on equicorrelated Gaussian test statistics.

Each replication draws T_i = sqrt(rho)*Z0 + sqrt(1-rho)*Z_i + mu_i (one
common factor, exact equicorrelated covariance), converts to two-sided
Gaussian p-values and applies every configured procedure. True nulls occupy
the first ``true_count`` coordinates (mu = 0), the rest sit at ``effect``.
The study runs the same pieces that ``sample_statistics`` and
``two_sided_p`` expose, a batch of replications at a time, and the step
rules of ``procedures``; it counts false rejections itself.

Replication r consumes its own counter block of the Philox stream (key =
seed, counter = r * 2**128). Its noise is drawn once and shared by every
(true_count, effect) cell; a batch of replications builds one generator and
resets its counter per replication. Every count lands in a fixed slot, so
results are bit-identical however replications are batched or threaded.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np
from scipy.special import erfc

from .matrices import ErrorRateSpec, Rate
from .procedures import ProcedureSpec, _rejection_counts, family_constants

__all__ = [
    "SimConfig",
    "CellStats",
    "SimReport",
    "sample_statistics",
    "two_sided_p",
    "run_study",
]

_SQRT2 = math.sqrt(2.0)
_BATCH = 2048


@dataclass(frozen=True)
class SimConfig:
    """One study: a single n and grids over true counts and effect sizes, run
    on the ten-procedure ``roster``; neither grid may repeat a value. Empty
    ``true_counts`` ask for the quarter-point grid {0, n/4, n/2, 3n/4, n},
    rounded and deduplicated.
    ``seed`` keys the Philox streams and must lie in [0, 2**64)."""

    n: int
    true_counts: tuple[int, ...] = ()
    effects: tuple[float, ...] = (0.1, 1.0, 3.0)
    rho: float = 0.5
    reps: int = 20000
    alpha: float = 0.5
    gamma: float = 0.05
    fdr_level: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.true_counts:
            n = self.n
            grid = tuple(sorted({0, round(n / 4), round(n / 2), round(3 * n / 4), n}))
            object.__setattr__(self, "true_counts", grid)
        if any(not 0 <= t <= self.n for t in self.true_counts):
            raise ValueError("true counts must lie in 0..n")
        if not self.effects:
            raise ValueError("at least one effect size is required")
        if any(not math.isfinite(d) for d in self.effects):
            raise ValueError("effect sizes must be finite")
        for name, grid in (("true counts", self.true_counts), ("effect sizes", self.effects)):
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} must not repeat, got {grid}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if not 0.0 < self.alpha < 1.0 or not 0.0 <= self.gamma < 1.0:
            raise ValueError("alpha must lie in (0,1) and gamma in [0,1)")
        if not 0.0 < self.fdr_level < 1.0:
            raise ValueError(f"fdr_level must lie in (0, 1), got {self.fdr_level}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def roster(self) -> tuple[ProcedureSpec, ...]:
        """The four rescaled tail-FDP procedures with their modified variants
        (level ``alpha``, parameter ``gamma``), then the BY step-up and GR
        step-down FDR procedures at ``fdr_level``."""
        procs = [ProcedureSpec(family=family, n=self.n, alpha=self.alpha,
                               rate=ErrorRateSpec(rate, self.n, gamma=self.gamma),
                               modified=modified)
                 for family in ("bh", "rs")
                 for rate in (Rate.FDP_SU, Rate.FDP_SD)
                 for modified in (False, True)]
        return (*procs, ProcedureSpec(family="by", n=self.n, alpha=self.fdr_level),
                ProcedureSpec(family="gr", n=self.n, alpha=self.fdr_level))


@dataclass(frozen=True)
class CellStats:
    """Estimates for one (true_count, effect, procedure) cell.

    ``avg_power`` is NaN when every hypothesis is null (0/0 proportion);
    standard errors use the population variance, so se <= 0.5/sqrt(reps).
    ``containment_violations`` counts replications where a modified
    procedure rejected less than its unmodified parent (None for procedures
    without a parent)."""

    n: int
    true_count: int
    effect: float
    procedure: str
    avg_power: float
    tail_fdp: float
    fdr: float
    se_power: float
    se_tail: float
    se_fdr: float
    containment_violations: int | None = None


@dataclass(frozen=True)
class SimReport:
    """Per-cell estimates, plus any procedures whose constants could not be
    built (name -> error text); a failure drops only that procedure's
    column, the rest of the study is unaffected."""

    config: SimConfig
    cells: tuple[CellStats, ...] = field(default_factory=tuple)
    failures: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def two_sided_p(t):
    """Two-sided Gaussian p-values 2*(1 - Phi(|t|)) = erfc(|t|/sqrt(2)),
    elementwise; a scalar statistic gives a float. The p-values are computed
    in the one array that ``abs`` allocates."""
    p = np.abs(np.atleast_1d(t), dtype=float)
    if not np.max(p, initial=0.0) < math.inf:  # NaN fails the comparison too
        raise ValueError("test statistics must be finite")
    p /= _SQRT2
    erfc(p, out=p)
    return p if np.ndim(t) else float(p[0])


def _mean_vector(n: int, true_count: int, effect: float) -> np.ndarray:
    mu = np.full(n, float(effect))
    mu[:true_count] = 0.0
    return mu


def _noise(z: np.ndarray, rho: float) -> np.ndarray:
    """The equicorrelated noise sqrt(rho)*z0 + sqrt(1-rho)*z_i, computed in
    place over the last axis of ``z`` (z0 first) and returned as a view of
    the n trailing entries. x + y == y + x exactly, so the order of the two
    terms does not change a bit."""
    noise = z[..., 1:]
    noise *= math.sqrt(1.0 - rho)
    noise += math.sqrt(rho) * z[..., :1]
    return noise


def sample_statistics(n: int, true_count: int, effect: float, rho: float,
                      rng: np.random.Generator) -> np.ndarray:
    """One draw of the test-statistic vector. Consumes n+1 standard normals:
    the common factor first, then the n idiosyncratic terms."""
    if not 0 <= true_count <= n:
        raise ValueError("true_count must lie in 0..n")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return _noise(rng.standard_normal(n + 1), rho) + _mean_vector(n, true_count, effect)


def _replication_normals(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row r - start holds the first ``width`` standard normals of
    Philox(key=seed, counter=r << 128), for r in start..stop-1. One generator
    serves every row: its counter is reset to [0, 0, r, 0] with an empty
    buffer, which is the state a freshly built generator starts from."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": [seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    z = np.empty((stop - start, width))
    for row, rep in zip(z, range(start, stop)):
        counter[2] = rep
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    return z


def _procedure_tables(
    config: SimConfig, cache_dir
) -> tuple[list[tuple[str, str, np.ndarray, str | None]], list[tuple[str, str]]]:
    """(name, direction, applied thresholds, twin) per procedure, computed
    once; a modified procedure's twin is the name of its unmodified variant,
    any other's is None. Procedures whose constants fail are reported
    instead of aborting."""
    tables = []
    failures = []
    for spec in config.roster():
        try:
            base = family_constants(spec.family, spec.n, spec.rate,
                                    modified=spec.modified, cache_dir=cache_dir)
        except Exception as exc:  # noqa: BLE001 - isolate the failed column
            failures.append((spec.name, str(exc)))
            continue
        twin = replace(spec, modified=False).name if spec.modified else None
        tables.append((spec.name, spec.direction, spec.alpha * base.values, twin))
    return tables, failures


def _run_batch(config: SimConfig, tables, cells: list[tuple[int, np.ndarray]],
               R: np.ndarray, V: np.ndarray, start: int) -> None:
    """The batch of replications from ``start`` in every cell: the noise is
    drawn once, and each (true_count, mu) cell adds its own means to it. R
    and V are indexed [cell, procedure, replication]."""
    stop = min(start + _BATCH, config.reps)
    noise = _noise(_replication_normals(config.seed, start, stop, config.n + 1), config.rho)
    rows = np.arange(stop - start)
    for c, (true_count, mu) in enumerate(cells):
        p = two_sided_p(noise + mu)
        order = np.argsort(p, axis=1, kind="stable")
        ps = np.take_along_axis(p, order, axis=1)
        # the true nulls are the first true_count hypotheses
        false_running = np.cumsum(order < true_count, axis=1, dtype=R.dtype)
        for j, (_, direction, thr, _) in enumerate(tables):
            k = _rejection_counts(ps, thr, direction)
            R[c, j, start:stop] = k
            V[c, j, start:stop] = np.where(k > 0, false_running[rows, np.maximum(k - 1, 0)], 0)


def _cell_stats(config: SimConfig, name: str, true_count: int, effect: float,
                R: np.ndarray, V: np.ndarray) -> CellStats:
    reps = config.reps
    fdp = V / np.maximum(R, 1)
    tail = fdp > config.gamma
    if true_count < config.n:
        power = (R - V) / (config.n - true_count)
        avg_power = float(np.mean(power))
        se_power = float(np.std(power)) / math.sqrt(reps)
    else:
        avg_power = se_power = float("nan")
    return CellStats(
        n=config.n,
        true_count=true_count,
        effect=effect,
        procedure=name,
        avg_power=avg_power,
        tail_fdp=float(np.mean(tail)),
        fdr=float(np.mean(fdp)),
        se_power=se_power,
        se_tail=float(np.std(tail)) / math.sqrt(reps),
        se_fdr=float(np.std(fdp)) / math.sqrt(reps),
    )


def run_study(
    config: SimConfig,
    threads: int | None = None,
    cache_dir: str | Path | None = None,
    trace: str | Path | None = None,
) -> SimReport:
    """Run the full grid and estimate power and error rates per procedure.

    ``threads`` only affects throughput (default: all logical cores); the
    report is bit-identical for any thread count. ``trace`` appends one CSV
    row per replication and procedure with the rejection counts, for
    debugging."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError("threads must be positive")
    tables, failures = _procedure_tables(config, cache_dir)
    if not tables:
        raise RuntimeError(f"every procedure failed: {failures}")
    grid = [(t, d) for t in config.true_counts for d in config.effects]
    cells = [(t, _mean_vector(config.n, t, d)) for t, d in grid]
    # counts lie in 0..n: the smallest unsigned type holding n stores them exactly
    R = np.zeros((len(grid), len(tables), config.reps), dtype=np.min_scalar_type(config.n))
    V = np.zeros_like(R)
    starts = range(0, config.reps, _BATCH)
    run = partial(_run_batch, config, tables, cells, R, V)
    if threads == 1 or len(starts) == 1:  # a worker thread adds its own malloc arena
        list(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    index = {name: j for j, (name, _, _, _) in enumerate(tables)}
    stats: list[CellStats] = []
    for c, (true_count, effect) in enumerate(grid):
        for j, (name, _, _, twin) in enumerate(tables):
            cell = _cell_stats(config, name, true_count, effect, R[c, j], V[c, j])
            parent = index.get(twin)  # a modified procedure against its unmodified twin
            if parent is not None:
                violations = int(np.count_nonzero(R[c, j] < R[c, parent]))
                cell = replace(cell, containment_violations=violations)
            stats.append(cell)
    if trace is not None:  # one join per cell and procedure
        reps = [str(rep) for rep in range(config.reps)]
        with open(trace, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("n,trueCount,d,rep,procedure,R,V\n")
            for c, (true_count, effect) in enumerate(grid):
                head = repeat(f"{config.n},{true_count},{effect!r}")
                for name, j in index.items():
                    rows = zip(head, reps, repeat(name),
                               map(str, R[c, j].tolist()), map(str, V[c, j].tolist()))
                    fh.write("\n".join(map(",".join, rows)) + "\n")
    return SimReport(config=config, cells=tuple(stats), failures=tuple(failures))

