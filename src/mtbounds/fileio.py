"""Readers and writers for the CLI's file formats.

CSV is the default surface: matrices are written as n rows of n decimals
behind a ``# spec:`` comment header, constants and solutions as indexed
rows, simulation reports with the fixed column set
``n,trueCount,d,procedure,avgPower,tailFDP,fdr,se_power``. Floats are
emitted as shortest round-trip decimals so outputs (and the solution cache)
reproduce bit-for-bit. JSON payloads mirror the CSV contents.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .constants import CriticalVector
from .lp import LPProblem, LPSolution
from .matrices import AssociatedMatrix, ErrorRateSpec
from .procedures import DecisionSet, PValueVector
from .simulation import SimReport

__all__ = [
    "InputFormatError",
    "read_pvalues",
    "read_weights",
    "matrix_csv",
    "matrix_json",
    "constants_csv",
    "constants_json",
    "read_constants",
    "solution_csv",
    "solution_json",
    "decisions_csv",
    "decisions_json",
    "verify_csv",
    "verify_json",
    "report_csv",
    "report_json",
    "write_text",
]


class InputFormatError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return repr(float(x))


def _data_lines(lines):
    """(line number, stripped line) for each line of an input file that is
    neither blank nor a ``#`` comment; lines count from 1."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _number(path, line_no: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(path, line_no, f"not a number: {text!r}") from None


def read_pvalues(path: str | Path) -> PValueVector:
    """Parse a p-value file: one decimal per line, or ``label,value`` rows.

    Blank lines and ``#`` comments are skipped. Raises InputFormatError with
    the line number on non-numeric or out-of-range values.
    """
    values: list[float] = []
    labels: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in _data_lines(fh):
            label = None
            text = line
            if "," in line:
                label, text = (part.strip() for part in line.split(",", 1))
            value = _number(path, line_no, text)
            if not 0.0 <= value <= 1.0:
                raise InputFormatError(path, line_no, f"p-value out of [0, 1]: {value!r}")
            values.append(value)
            labels.append(label if label is not None else str(len(values)))
    if not values:
        raise InputFormatError(path, 0, "no p-values found")
    return PValueVector(np.array(values), labels=tuple(labels))


def read_weights(path: str | Path, n: int) -> np.ndarray:
    """Parse a weights file: one nonnegative decimal per line, n lines."""
    weights: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in _data_lines(fh):
            w = _number(path, line_no, line)
            if w < 0 or not math.isfinite(w):
                raise InputFormatError(path, line_no, f"weight must be finite and >= 0: {w!r}")
            weights.append(w)
    if len(weights) != n:
        raise InputFormatError(path, 0, f"expected {n} weights, found {len(weights)}")
    return np.array(weights)


def _spec_text(spec: ErrorRateSpec) -> str:
    """The header form of a spec, e.g. ``rate=fdp-su n=50 gamma=0.05``."""
    name, value = spec.param
    return f"rate={spec.rate.value} n={spec.n} {name}={value!r}"


def _spec_payload(spec: ErrorRateSpec) -> dict:
    name, value = spec.param
    return {"rate": spec.rate.value, "n": spec.n, name: value}


def matrix_csv(matrix: AssociatedMatrix) -> str:
    lines = [f"# spec: {_spec_text(matrix.spec)}"]
    lines += [",".join(_fmt(x) for x in row) for row in matrix.entries]
    return "\n".join(lines) + "\n"


def matrix_json(matrix: AssociatedMatrix) -> str:
    payload = {
        "spec": _spec_payload(matrix.spec),
        "entries": [[float(x) for x in row] for row in matrix.entries],
    }
    return json.dumps(payload, indent=2) + "\n"


def _params_text(c: CriticalVector) -> str:
    if not c.params:
        return ""
    return " " + " ".join(f"{k}={v!r}" for k, v in sorted(c.params.items(), key=lambda kv: kv[0]))


def constants_csv(c: CriticalVector) -> str:
    lines = [f"# family: {c.family.value}{_params_text(c)}", "index,value"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(c.values, start=1)]
    return "\n".join(lines) + "\n"


def constants_json(c: CriticalVector) -> str:
    payload = {
        "family": c.family.value,
        "params": dict(c.params or {}),
        "values": [float(v) for v in c.values],
    }
    return json.dumps(payload, indent=2) + "\n"


def read_constants(path: str | Path) -> CriticalVector:
    """Read constants back from either output format of ``constants`` or
    ``optimize``: a JSON file's ``values`` list, else its ``xi`` list; a CSV
    row's last column. Every error, an invalid constant vector included,
    names the file."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, exc.lineno, exc.msg) from None
        key = "values" if "values" in payload else "xi"
        values = payload.get(key)
        if not isinstance(values, list):
            raise InputFormatError(path, 0, "JSON constants need a 'values' or 'xi' list")
        if not all(type(v) in (int, float) for v in values):  # not bool, str, null or list
            raise InputFormatError(path, 0, f"{key!r} must hold numbers")
        try:
            values = np.array(values, dtype=float)
        except OverflowError:
            raise InputFormatError(path, 0, f"{key!r} holds a number beyond float range") from None
    else:
        values = [_number(path, line_no, line.split(",")[-1])
                  for line_no, line in _data_lines(text.splitlines())
                  if not line.startswith("index,")]
        if not values:
            raise InputFormatError(path, 0, "no constants found")
    try:
        return CriticalVector(np.array(values))
    except ValueError as exc:  # not finite, negative, decreasing or empty
        raise InputFormatError(path, 0, str(exc)) from None


def solution_csv(problem: LPProblem, solution: LPSolution) -> str:
    lines = [
        f"# spec: {_spec_text(problem.matrix.spec)} floor={problem.floor.family.value}",
        f"# solver: {solution.solver_version}",
        f"# status: {solution.status}",
        f"# F_floor: {_fmt(solution.floor_objective)}",
        f"# F_xi: {_fmt(solution.objective)}",
        f"# M1: {_fmt(solution.m1)}",
        f"# M2: {_fmt(solution.m2)}",
        "index,floor,xi",
    ]
    lines += [f"{i},{_fmt(f)},{_fmt(x)}"
              for i, (f, x) in enumerate(zip(problem.floor.values, solution.xi.values), start=1)]
    return "\n".join(lines) + "\n"


def solution_json(problem: LPProblem, solution: LPSolution) -> str:
    payload = {
        "spec": _spec_payload(problem.matrix.spec),
        "floor_family": problem.floor.family.value,
        "solver": solution.solver_version,
        "status": solution.status,
        "F_floor": solution.floor_objective,
        "F_xi": solution.objective,
        "M1": None if math.isnan(solution.m1) else solution.m1,
        "M2": None if math.isnan(solution.m2) else solution.m2,
        "floor": [float(v) for v in problem.floor.values],
        "xi": [float(v) for v in solution.xi.values],
    }
    return json.dumps(payload, indent=2) + "\n"


def _decision_rows(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray):
    """(index, label, p-value, adjusted p-value, rejected) per hypothesis in
    input order."""
    rows = zip(p.labels, p.values.tolist(), adjusted.tolist())
    for i, (label, value, adjusted_value) in enumerate(rows, start=1):
        yield i, label, value, adjusted_value, i in decision.rejected


def decisions_csv(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray,
                  header: str) -> str:
    lines = [
        f"# procedure: {header}",
        f"# rejections: {decision.n_rejected}",
        "index,label,pvalue,adjusted_pvalue,rejected",
    ]
    lines += [f"{i},{label},{_fmt(value)},{_fmt(adj)},{int(rejected)}"
              for i, label, value, adj, rejected in _decision_rows(p, decision, adjusted)]
    return "\n".join(lines) + "\n"


def decisions_json(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray,
                   header: str) -> str:
    keys = ("index", "label", "pvalue", "adjusted_pvalue", "rejected")
    payload = {
        "procedure": header,
        "rejections": decision.n_rejected,
        "hypotheses": [dict(zip(keys, row)) for row in _decision_rows(p, decision, adjusted)],
    }
    return json.dumps(payload, indent=2) + "\n"


def verify_csv(worst: float, feasible: bool) -> str:
    return f"max bound {worst:.6f}\nfeasible: {'yes' if feasible else 'no'}\n"


def verify_json(worst: float, feasible: bool) -> str:
    return json.dumps({"max_bound": worst, "feasible": feasible}, indent=2) + "\n"


def report_csv(report: SimReport) -> str:
    lines = ["n,trueCount,d,procedure,avgPower,tailFDP,fdr,se_power"]
    for cell in report.cells:
        lines.append(
            f"{cell.n},{cell.true_count},{_fmt(cell.effect)},{cell.procedure},"
            f"{_fmt(cell.avg_power)},{_fmt(cell.tail_fdp)},{_fmt(cell.fdr)},"
            f"{_fmt(cell.se_power)}"
        )
    return "\n".join(lines) + "\n"


def report_json(report: SimReport) -> str:
    rename = {"true_count": "trueCount", "effect": "d", "avg_power": "avgPower",
              "tail_fdp": "tailFDP"}
    payload = {
        "config": dataclasses.asdict(report.config),
        "cells": [{rename.get(key, key): None if isinstance(x, float) and math.isnan(x) else x
                   for key, x in dataclasses.asdict(c).items()}
                  for c in report.cells],
        "failures": [{"procedure": name, "error": err} for name, err in report.failures],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_text(text: str, output: str | Path | None) -> None:
    """Write to the given path, or stdout when no path is given."""
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")
