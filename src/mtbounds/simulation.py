"""Monte Carlo power study on equicorrelated Gaussian test statistics.

Each replication draws T_i = sqrt(rho)*Z0 + sqrt(1-rho)*Z_i + mu_i (one
common factor, exact equicorrelated covariance), converts to two-sided
Gaussian p-values and applies every configured procedure. True nulls occupy
the first ``true_count`` coordinates (mu = 0), the rest sit at ``effect``.
The study runs the same pieces that ``sample_statistics`` and
``two_sided_p`` expose, a batch of replications at a time, and the step
rules of ``procedures`` on p-values sorted by value. A step rule that
rejects k hypotheses rejects exactly those with p <= thr[k-1], so its false
rejections V are the true nulls with p <= thr[k-1], and 0 when k = 0.

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

from .lp import SolverError
from .matrices import ErrorRateSpec, Rate, _check_n, _is_int
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
    rounded and deduplicated. No parameter may be a bool: ``reps``, the
    true counts and ``seed`` are integers, and ``seed`` keys the Philox
    streams and must lie in [0, 2**64). Every field is stored as a plain
    Python number, an int for the counts and the seed and a float for the
    rest, whatever numeric types it was given."""

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
        # fdr_level first: the roster's FDR specs would report it as alpha
        if not 0.0 < self.fdr_level < 1.0:
            raise ValueError(f"fdr_level must lie in (0, 1), got {self.fdr_level}")
        self.roster()  # its specs check n, alpha and gamma
        if not self.true_counts:
            n = self.n
            grid = tuple(sorted({0, round(n / 4), round(n / 2), round(3 * n / 4), n}))
            object.__setattr__(self, "true_counts", grid)
        if not self.effects:
            raise ValueError("at least one effect size is required")
        _check_draw(self.n, self.true_counts, self.effects, self.rho)
        for name, grid in (("true counts", self.true_counts), ("effect sizes", self.effects)):
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} must not repeat, got {grid}")
        if not (_is_int(self.reps) and self.reps >= 1):
            raise ValueError(f"reps must be a positive integer, got {self.reps}")
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        # plain Python numbers: the writers print them, and numpy's reprs differ
        for name, kind in (("n", int), ("reps", int), ("seed", int), ("rho", float),
                           ("alpha", float), ("gamma", float), ("fdr_level", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "true_counts", tuple(map(int, self.true_counts)))
        object.__setattr__(self, "effects", tuple(map(float, self.effects)))

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
    """Per-cell estimates, plus any procedures whose LP failed (name ->
    error text); a failure drops only that procedure's column, the rest of
    the study is unaffected."""

    config: SimConfig
    cells: tuple[CellStats, ...] = field(default_factory=tuple)
    failures: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def two_sided_p(t):
    """Two-sided Gaussian p-values 2*(1 - Phi(|t|)) = erfc(|t|/sqrt(2)),
    elementwise; a scalar statistic gives a float. The p-values are computed
    in the one array that ``abs`` allocates."""
    from scipy.special import erfc  # imported on first use: only simulate needs it
    p = np.abs(np.atleast_1d(t), dtype=float)
    if not np.max(p, initial=0.0) < math.inf:  # NaN fails the comparison too
        raise ValueError("test statistics must be finite")
    p /= _SQRT2
    erfc(p, out=p)
    return p if np.ndim(t) else float(p[0])


def _noise(z: np.ndarray, rho: float) -> np.ndarray:
    """The equicorrelated noise sqrt(rho)*z0 + sqrt(1-rho)*z_i, computed in
    place over the last axis of ``z`` (z0 first) and returned as a view of
    the n trailing entries. x + y == y + x exactly, so the order of the two
    terms does not change a bit."""
    noise = z[..., 1:]
    noise *= math.sqrt(1.0 - rho)
    noise += math.sqrt(rho) * z[..., :1]
    return noise


def _check_draw(n: int, true_counts, effects, rho: float) -> None:
    """The rules of a draw, for ``SimConfig`` and ``sample_statistics``: true
    counts are integers in 0..n, effects finite reals, rho a real in [0, 1);
    none is a bool."""
    if any(not (_is_int(t) and 0 <= t <= n) for t in true_counts):
        raise ValueError(f"true counts must be integers in 0..n, got {true_counts}")
    if any(isinstance(d, bool) or not math.isfinite(d) for d in effects):
        raise ValueError("effect sizes must be finite")
    if isinstance(rho, bool) or not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")


def sample_statistics(n: int, true_count: int, effect: float, rho: float,
                      rng: np.random.Generator) -> np.ndarray:
    """One draw of the test-statistic vector, under the rules of a
    ``SimConfig``. Consumes n+1 standard normals: the common factor first,
    then the n idiosyncratic terms."""
    _check_draw(_check_n(n), (true_count,), (effect,), rho)
    x = _noise(rng.standard_normal(n + 1), rho)
    x[true_count:] += effect  # the first true_count hypotheses are null
    return x


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
    any other's is None. A procedure whose LP fails (``SolverError``) is
    reported and dropped; any other error propagates."""
    tables = []
    failures = []
    for spec in config.roster():
        try:
            base = family_constants(spec.family, spec.n, spec.rate,
                                    modified=spec.modified, cache_dir=cache_dir)
        except SolverError as exc:  # only the modified procedures solve an LP
            failures.append((spec.name, str(exc)))
            continue
        twin = replace(spec, modified=False).name if spec.modified else None
        tables.append((spec.name, spec.direction, spec.alpha * base.values, twin))
    return tables, failures


def _false_rejections(nulls: np.ndarray, thr: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per replication (column of ``nulls``, one row per true null), the
    true nulls' p-values at or below thr[k-1]: the false rejections of a step
    rule that rejected k hypotheses. The thresholds are nondecreasing, so a
    p-value past position k at or below thr[k-1] would pass thr[k] too:
    step-up would reject k+1, step-down would not stop at k. Replications
    with k = 0 read thr[-1], which the mask replaces by -inf. The counts lie
    in 0..len(nulls), so the smallest unsigned type holding that sums them."""
    cut = np.where(k > 0, thr[k - 1], -np.inf)
    return np.add.reduce(nulls <= cut, axis=0, dtype=np.min_scalar_type(len(nulls)))


def _run_batch(config: SimConfig, tables, R: np.ndarray, V: np.ndarray, start: int) -> None:
    """The batch of replications from ``start`` in every cell. The noise is
    drawn once and turned into p-values once for the nulls and once per
    effect (``noise + 0.0`` and ``noise`` have the same ``|.|``, so each
    p-value keeps its bits); cell (t, d) takes its first t columns from the
    null block and the rest from effect d's. R and V are indexed
    [cell, procedure, replication], cells in (true count, effect) order."""
    stop = min(start + _BATCH, config.reps)
    noise = _noise(_replication_normals(config.seed, start, stop, config.n + 1), config.rho)
    null_p = two_sided_p(noise)
    null_rows = np.ascontiguousarray(null_p.T)  # a row per hypothesis: counts add whole rows
    n_effects = len(config.effects)
    for e, effect in enumerate(config.effects):
        effect_p = two_sided_p(noise + effect)
        for i, true_count in enumerate(config.true_counts):
            c = i * n_effects + e
            # the true nulls are the first true_count hypotheses
            ps = np.concatenate((null_p[:, :true_count], effect_p[:, true_count:]), axis=1)
            ps.sort(axis=1)
            for j, (_, direction, thr, _) in enumerate(tables):
                k = _rejection_counts(ps, thr, direction)
                R[c, j, start:stop] = k
                V[c, j, start:stop] = _false_rejections(null_rows[:true_count], thr, k)


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
    debugging. A procedure whose LP fails is dropped and named in
    ``failures``; the six that solve no LP always run."""
    if threads is None:
        threads = os.cpu_count() or 1
    if not (_is_int(threads) and threads >= 1):
        raise ValueError(f"threads must be a positive integer, got {threads}")
    tables, failures = _procedure_tables(config, cache_dir)
    grid = [(t, d) for t in config.true_counts for d in config.effects]
    # counts lie in 0..n: the smallest unsigned type holding n stores them exactly
    R = np.zeros((len(grid), len(tables), config.reps), dtype=np.min_scalar_type(config.n))
    V = np.zeros_like(R)
    starts = range(0, config.reps, _BATCH)
    run = partial(_run_batch, config, tables, R, V)
    if threads == 1 or len(starts) == 1:  # a worker thread adds its own malloc arena
        list(map(run, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    index = {name: j for j, (name, _, _, _) in enumerate(tables)}
    nan = [math.nan] * len(tables)
    stats: list[CellStats] = []
    for c, (true_count, effect) in enumerate(grid):
        # every procedure at once: each row of a [procedure, replication] slice
        # reduces with the pairwise summation that the row alone would get
        fdp = V[c] / np.maximum(R[c], 1)
        power = (R[c] - V[c]) / (config.n - true_count) if true_count < config.n else None
        (avg_power, se_power), (tail_fdp, se_tail), (fdr, se_fdr) = (
            (nan, nan) if x is None else
            (np.mean(x, axis=1).tolist(), (np.std(x, axis=1) / math.sqrt(config.reps)).tolist())
            for x in (power, fdp > config.gamma, fdp))
        for j, (name, _, _, twin) in enumerate(tables):
            parent = index.get(twin)  # a modified procedure against its unmodified twin
            stats.append(CellStats(
                n=config.n, true_count=true_count, effect=effect, procedure=name,
                avg_power=avg_power[j], tail_fdp=tail_fdp[j], fdr=fdr[j],
                se_power=se_power[j], se_tail=se_tail[j], se_fdr=se_fdr[j],
                containment_violations=None if parent is None
                else int(np.count_nonzero(R[c, j] < R[c, parent]))))
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

