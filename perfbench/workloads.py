"""The two benchmark workloads.

Each workload makes its inputs from the seed, lists the ops of one unit of
work (a sweep or a cycle) and checks every output after the timed phase. An
op is one in-process ``mtbounds`` CLI call writing to its own file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import erfc

from mtbounds import cli, lp
from mtbounds.matrices import ErrorRateSpec, Rate, associated_matrix

import checks


@dataclass(frozen=True)
class Op:
    label: str                      # unique within a unit
    cls: str                        # op class for per-class layer shares
    argv: tuple[str, ...]
    out: Path
    params: dict = field(default_factory=dict, compare=False)


@dataclass
class Record:
    op: Op
    unit: int
    rc: int
    seconds: float


def call_cli(argv) -> int:
    """``cli.main`` looked up at call time, so a traced run sees its wrapper."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_units(workload, seconds: float, first_unit: int = 0, recorder=None):
    """Closed loop: issue each op after the previous one returns, in whole
    units, stopping at the unit boundary nearest to ``seconds``, judged by
    the mean unit time so far. Returns (records, wall seconds)."""
    records: list[Record] = []
    unit = first_unit
    start = perf_counter()
    while True:
        for op in workload.unit_ops(unit):
            if recorder is not None:
                recorder.op = len(records)
            t = perf_counter()
            rc = call_cli(op.argv)
            records.append(Record(op, unit, rc, perf_counter() - t))
        unit += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / (unit - first_unit) >= seconds:
            return records, perf_counter() - start


class OptimizeCold:
    """``optimize`` on an empty cache: 24 LP solves per sweep."""

    name = "optimize-cold"
    CASES = [(rate, family, n)
             for rate in ("fdp-su", "fdp-sd", "kfwer-su", "kfwer-sd")
             for family in ("bh", "rs") for n in (100, 200, 300)]

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.cases = list(self.CASES)
        random.Random(seed).shuffle(self.cases)

    @staticmethod
    def _param(rate: str) -> list[str]:
        return ["--gamma", "0.05"] if rate.startswith("fdp") else ["--k", "2"]

    def _argv(self, rate, family, n, cache: Path, out: Path) -> tuple[str, ...]:
        return ("optimize", "--rate", rate, *self._param(rate), "--family", family,
                "--n", str(n), "--cache-dir", str(cache), "--format", "json",
                "--output", str(out))

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        warm = self.work / "warmup"
        if call_cli(self._argv("fdp-sd", "bh", 10, warm, warm / "out.json")) != 0:
            raise RuntimeError("warm-up optimize call failed")

    def unit_ops(self, unit: int) -> list[Op]:
        udir = self.work / f"u{unit}"
        udir.mkdir()
        ops = []
        for rate, family, n in self.cases:
            label = f"{rate}-{family}-n{n}"
            out = udir / f"{label}.json"
            ops.append(Op(label, f"n={n}", self._argv(rate, family, n, udir / "cache", out),
                          out, {"rate": rate, "family": family, "n": n}))
        return ops

    def check(self, records: list[Record]) -> dict[int, list[str]]:
        fails: dict[int, list[str]] = {}
        references = {}
        verdicts = {}
        for i, rec in enumerate(records):
            if rec.rc != 0:
                fails[i] = [f"exit code {rec.rc}"]
                continue
            text = rec.op.out.read_text()
            key = (rec.op.label, text)
            if key not in verdicts:
                rate, family, n = (rec.op.params[k] for k in ("rate", "family", "n"))
                if rec.op.label not in references:
                    spec = (ErrorRateSpec(Rate(rate), n, gamma=0.05) if rate.startswith("fdp")
                            else ErrorRateSpec(Rate(rate), n, k=2))
                    A = associated_matrix(spec).entries
                    sol = json.loads(text)
                    references[rec.op.label] = (A, checks.reference_objective(
                        A, np.asarray(sol["floor"], dtype=float)))
                A, reference = references[rec.op.label]
                table1 = checks.TABLE1_N100.get((rate, family)) if n == 100 else None
                verdicts[key] = checks.check_solution(json.loads(text), A, lp.FEASIBILITY_TOL,
                                                      reference, table1)
            if verdicts[key]:
                fails[i] = verdicts[key]
        # A second call on each filled cache must return the cached xi bit for bit.
        last = max(rec.unit for rec in records)
        for i, rec in enumerate(records):
            if rec.unit != last or rec.rc != 0 or i in fails:
                continue
            warm_out = rec.op.out.with_suffix(".warm.json")
            argv = list(rec.op.argv)
            argv[-1] = str(warm_out)
            if (call_cli(argv) != 0 or json.loads(warm_out.read_text())["xi"]
                    != json.loads(rec.op.out.read_text())["xi"]):
                fails[i] = ["warm call did not return the cached xi"]
        return fails

    def cross_checks(self, metrics: dict, records: list[Record]) -> dict[str, bool]:
        sweeps = len({rec.unit for rec in records})
        return {"lp.cache_misses == 24 per sweep":
                metrics["lp.cache_misses"] == len(self.cases) * sweeps}


class AdjustWarm:
    """A stream of ``adjust`` calls on seeded p-value files, plus one
    ``simulate --n 50`` call of 2,000 replications per cycle on the default
    15-cell grid and ten-procedure roster, on one thread. Every LP the
    modified ops and the simulation need is solved in set-up, so the timed
    phase only reads the cache. The thread-scaling probe runs the full
    20,000-replication study."""

    name = "adjust-warm"
    NS = (100, 500, 1000, 2000)
    NULL_FRACTIONS = (1.0, 0.8, 0.5)
    EFFECT = 3.0
    MODIFIED_MAX_N = 200
    SIM_N, SIM_REPS, STUDY_REPS, SIM_CELLS, SIM_PROCEDURES = 50, 2000, 20000, 15, 10
    SIM_LP_PROCEDURES = 4           # roster procedures whose constants come from an LP
    THREADS = 1

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.inputs = {"bh95": np.array(checks.BH95_PVALUES)}
        for n in self.NS:
            for fraction in self.NULL_FRACTIONS:
                self.inputs[f"n{n}-null{fraction}"] = self._pvalues(rng, n, fraction)
        self.specs = [spec for name in self.inputs for spec in self._specs(name)]
        # one interleaved order for every seed and unit; the seed makes the data
        random.Random(0).shuffle(self.specs)

    def _pvalues(self, rng, n: int, null_fraction: float) -> np.ndarray:
        nulls = round(null_fraction * n)
        p = np.concatenate([rng.uniform(size=nulls),
                            erfc(np.abs(rng.normal(self.EFFECT, 1.0, size=n - nulls))
                                 / np.sqrt(2.0))])
        rng.shuffle(p)
        return p

    def _specs(self, name: str) -> list[dict]:
        n = self.inputs[name].size
        specs = []
        # the BH95 file is also run at the levels of the published counts
        levels = (0.05, 0.10) if name == "bh95" else (0.05,)
        modified = (False, True) if n <= self.MODIFIED_MAX_N else (False,)
        for rate in ("fdp-su", "fdp-sd", "kfwer-sd"):
            for family in ("bh", "rs"):
                for level in (levels if rate.startswith("fdp") else (None,)):
                    for mod in modified:
                        specs.append({"input": name, "n": n, "rate": rate, "family": family,
                                      "level": level, "modified": mod,
                                      "alpha": 0.5 if level is not None else 0.05})
        for family in ("by", "gr"):
            for level in levels:
                specs.append({"input": name, "n": n, "rate": None, "family": family,
                              "level": level, "modified": False, "alpha": level})
        return specs

    def _argv(self, spec: dict, out: Path) -> tuple[str, ...]:
        argv = ["adjust", "--input", str(self.work / f"{spec['input']}.txt"),
                "--family", spec["family"], "--alpha", repr(spec["alpha"]),
                "--cache-dir", str(self.work / "cache"), "--output", str(out)]
        if spec["rate"] is not None:
            argv += ["--rate", spec["rate"]]
            argv += (["--gamma", repr(spec["level"])] if spec["rate"].startswith("fdp")
                     else ["--k", "2"])
        if spec["modified"]:
            argv.append("--modified")
        return tuple(argv)

    def _sim_argv(self, out: Path, threads: int, reps: int) -> tuple[str, ...]:
        return ("simulate", "--n", str(self.SIM_N), "--reps", str(reps), "--seed", str(self.seed),
                "--threads", str(threads), "--cache-dir", str(self.work / "cache"),
                "--format", "json", "--output", str(out))

    @staticmethod
    def _label(spec: dict) -> str:
        level = "" if spec["level"] is None else f"-{spec['level']}"
        mod = "-mod" if spec["modified"] else ""
        return f"{spec['input']}-{spec['rate'] or 'fdr'}-{spec['family']}{level}{mod}"

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        for name, p in self.inputs.items():
            (self.work / f"{name}.txt").write_text("\n".join(repr(float(v)) for v in p) + "\n")
        for spec in self.specs:
            if spec["modified"] and call_cli(self._argv(spec, self.work / "warm.csv")) != 0:
                raise RuntimeError(f"warm-up call {self._label(spec)} failed")
        if call_cli(self._sim_argv(self.work / "warm.json", self.THREADS, reps=50)) != 0:
            raise RuntimeError("warm-up simulate call failed")

    def unit_ops(self, unit: int) -> list[Op]:
        udir = self.work / f"u{unit}"
        udir.mkdir()
        ops = []
        for spec in self.specs:
            label = self._label(spec)
            kind = "fdp" if spec["rate"] and spec["rate"].startswith("fdp") else (
                "kfwer" if spec["rate"] else "fdr")
            out = udir / f"{label}.csv"
            ops.append(Op(label, f"n={spec['n']} {kind}", self._argv(spec, out), out, spec))
        out = udir / "simulate.json"
        ops.append(Op("simulate", "simulate", self._sim_argv(out, self.THREADS, self.SIM_REPS),
                      out, {"reps": self.SIM_REPS}))
        return ops

    def probe(self, threads: int, unit: int) -> Record:
        """One full-study call on ``threads`` threads, outside the timed phase."""
        out = self.work / f"u{unit}-threads{threads}.json"
        op = Op(f"simulate-threads{threads}", "simulate",
                self._sim_argv(out, threads, self.STUDY_REPS), out, {"reps": self.STUDY_REPS})
        t = perf_counter()
        rc = call_cli(op.argv)
        return Record(op, unit, rc, perf_counter() - t)

    def digests(self, records: list[Record]) -> list[str]:
        """sha256 of each simulate report, "" for the other records."""
        return [hashlib.sha256(rec.op.out.read_bytes()).hexdigest()
                if rec.op.cls == "simulate" and rec.rc == 0 else "" for rec in records]

    def check(self, records: list[Record]) -> dict[int, list[str]]:
        """Decisions of each adjust op as in ``checks.check_decisions``. Every
        simulate report passes ``checks.check_report``, and all reports made
        at one seed and replication count are identical whatever the thread
        count."""
        fails: dict[int, list[str]] = {}
        verdicts = {}
        digests = self.digests(records)
        first = {}
        for rec, digest in zip(records, digests):
            if digest:
                first.setdefault(rec.op.params["reps"], digest)
        for i, rec in enumerate(records):
            if rec.rc != 0:
                fails[i] = [f"exit code {rec.rc}"]
                continue
            if rec.op.cls == "simulate":
                msgs = checks.check_report(json.loads(rec.op.out.read_text()),
                                           self.SIM_PROCEDURES, self.SIM_CELLS)
                if digests[i] != first[rec.op.params["reps"]]:
                    msgs.append("report differs from the first report at this seed")
                if msgs:
                    fails[i] = msgs
                continue
            text = rec.op.out.read_text()
            key = (rec.op.label, text)
            if key not in verdicts:
                spec = rec.op.params
                p = self.inputs[spec["input"]]
                flags = checks.by_reference(p, spec["alpha"]) if spec["family"] == "by" else None
                count = (checks.BH95_COUNTS.get((spec["rate"], spec["family"], spec["level"],
                                                 spec["modified"]))
                         if spec["input"] == "bh95" else None)
                verdicts[key] = checks.check_decisions(text, spec["alpha"], p, flags, count)
            if verdicts[key]:
                fails[i] = verdicts[key]
        return fails

    def cross_checks(self, metrics: dict, records: list[Record]) -> dict[str, bool]:
        modified = sum(1 for rec in records if rec.op.params.get("modified"))
        studies = sum(1 for rec in records if rec.op.cls == "simulate")
        return {"lp.cache_misses == 0": metrics["lp.cache_misses"] == 0,
                "lp.cache_hits == modified ops + 4 x simulate ops":
                metrics["lp.cache_hits"] == modified + self.SIM_LP_PROCEDURES * studies,
                "simulation.bitgens_created == replications x cells":
                metrics["simulation.bitgens_created"]
                == metrics["simulation.replications"] * self.SIM_CELLS}


WORKLOADS = {w.name: w for w in (OptimizeCold, AdjustWarm)}


def make(name: str, seed: int, work: Path):
    return WORKLOADS[name](seed, work)
