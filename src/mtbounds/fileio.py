"""Readers and writers for the CLI's file formats.

CSV is the default surface: matrices are written as n rows of n decimals
behind a ``# spec:`` comment header, constants and solutions as indexed
rows, simulation reports with the fixed column set
``n,trueCount,d,procedure,avgPower,tailFDP,fdr,se_power``. Floats are
emitted as their ``repr``, the shortest round-trip decimal, never as the input
token, so outputs (and the solution cache) reproduce bit-for-bit; the decisions
writers repr each adjusted p-value once per distinct bit pattern. JSON payloads
mirror the CSV contents.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .constants import CriticalVector
from .lp import LPProblem, LPSolution
from .matrices import ErrorRateSpec
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
    """Malformed input file, reported as ``path:line: message``."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return repr(float(x))


def _json_list(items, depth: int = 1) -> str:
    """A nonempty JSON array of encoded items, nested ``depth`` deep, as
    ``json.dumps(indent=2)`` lays it out; it writes a finite float with
    ``float.__repr__``."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_object(head: dict, **lists: str) -> str:
    """``json.dumps({**head, **lists}, indent=2)`` and a newline, for a
    nonempty ``head`` and top-level lists that ``_json_list`` wrote."""
    tail = "".join(f',\n  "{key}": {text}' for key, text in lists.items())
    return json.dumps(head, indent=2)[:-2] + tail + "\n}\n"


def _read_lines(path) -> tuple[str, dict[int, str]]:
    """The text of an input file and its data lines, each stripped and keyed
    by its line number from 1. The file is UTF-8, with or without a byte-order
    mark; a line ends at ``\\n``, ``\\r\\n`` or ``\\r``; blank lines and ``#``
    comments are not data."""
    with open(path, encoding="utf-8-sig") as fh:  # universal newlines: each end reads "\n"
        text = fh.read()
    lines = enumerate(map(str.strip, text.split("\n")), start=1)
    return text, {line_no: line for line_no, line in lines if line and line[0] != "#"}


def _number(path, line_no: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(path, line_no, f"not a number: {text!r}") from None


def read_pvalues(path: str | Path) -> PValueVector:
    """Parse a p-value file: one decimal per line, or ``label,value`` rows.

    Blank lines and ``#`` comments are skipped. Raises InputFormatError with
    the line number on non-numeric or out-of-range values; the first bad line
    in the file is the one named.
    """
    text, data = _read_lines(path)
    if not data:
        raise InputFormatError(path, 0, "no p-values found")
    texts, labels = data.values(), None
    if "," in text:  # a line without one is labelled by its position, as in _decision_columns
        cells = [line.split(",", 1) if "," in line else (str(i), line)
                 for i, line in enumerate(texts, start=1)]
        labels = tuple(label.strip() for label, _ in cells)
        texts = [value.strip() for _, value in cells]
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(data))
    except ValueError:
        values = None
    if values is None or not np.all((values >= 0.0) & (values <= 1.0)):
        # some line is bad: name the first one in file order, whichever check it fails
        for line_no, value_text in zip(data, texts):
            value = _number(path, line_no, value_text)
            if not 0.0 <= value <= 1.0:
                raise InputFormatError(path, line_no, f"p-value out of [0, 1]: {value!r}")
    return PValueVector(values, labels=labels)


def read_weights(path: str | Path, n: int) -> np.ndarray:
    """Parse a weights file: one nonnegative decimal per line, n lines."""
    weights: list[float] = []
    for line_no, line in _read_lines(path)[1].items():
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


def matrix_csv(spec: ErrorRateSpec) -> str:
    lines = [f"# spec: {_spec_text(spec)}"]
    lines += [",".join(map(repr, row.toarray().ravel().tolist()))  # never NaN
              for row in spec.rows]
    return "\n".join(lines) + "\n"


def matrix_json(spec: ErrorRateSpec) -> str:
    rows = (_json_list(map(repr, row.toarray().ravel().tolist()), 2) for row in spec.rows)
    return _json_object({"spec": _spec_payload(spec)}, entries=_json_list(rows))


def _params_text(c: CriticalVector) -> str:
    if not c.params:
        return ""
    return " " + " ".join(f"{k}={v!r}" for k, v in sorted(c.params.items(), key=lambda kv: kv[0]))


def constants_csv(c: CriticalVector) -> str:
    lines = [f"# family: {c.family.value}{_params_text(c)}", "index,value"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(c.values, start=1)]
    return "\n".join(lines) + "\n"


def constants_json(c: CriticalVector) -> str:
    return _json_object({"family": c.family.value, "params": dict(c.params or {})},
                        values=_json_list(map(repr, c.values.tolist())))


def read_constants(path: str | Path, n: int) -> CriticalVector:
    """Read n constants back from either output format of ``constants`` or
    ``optimize``: a JSON file's ``values`` list, else its ``xi`` list; a CSV
    row's last column. A file is JSON when its first non-blank character is
    ``{`` or ``[``. Every error, an invalid constant vector or another count
    included, names the file."""
    text, data = _read_lines(path)
    if text.lstrip().startswith(("{", "[")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, exc.lineno, exc.msg) from None
        key = "values" if "values" in payload else "xi"
        values = payload.get(key) if isinstance(payload, dict) else None  # an array has no keys
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
                  for line_no, line in data.items() if not line.startswith("index,")]
        if not values:
            raise InputFormatError(path, 0, "no constants found")
    try:
        c = CriticalVector(np.array(values))
    except ValueError as exc:  # not finite, negative, decreasing or empty
        raise InputFormatError(path, 0, str(exc)) from None
    if c.n != n:
        raise InputFormatError(path, 0, f"expected {n} constants, found {c.n}")
    return c


def solution_csv(problem: LPProblem, solution: LPSolution) -> str:
    lines = [
        f"# spec: {_spec_text(problem.spec)} floor={problem.floor.family.value}",
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
    head = {
        "spec": _spec_payload(problem.spec),
        "floor_family": problem.floor.family.value,
        "solver": solution.solver_version,
        "status": solution.status,
        "F_floor": solution.floor_objective,
        "F_xi": solution.objective,
        "M1": None if math.isnan(solution.m1) else solution.m1,
        "M2": None if math.isnan(solution.m2) else solution.m2,
    }
    return _json_object(head, floor=_json_list(map(repr, problem.floor.values.tolist())),
                        xi=_json_list(map(repr, solution.xi.values.tolist())))


def _decision_columns(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray,
                      words: tuple[str, str]) -> tuple:
    """The index, label, pvalue, adjusted_pvalue and rejected columns of the
    decisions writers, n strings each; an unlabelled hypothesis is labelled by
    its index, and ``words`` spell rejected and not. Every float is ``repr``
    (``_fmt`` without NaN), and each adjusted value, mostly the clipped 1.0, is
    formatted once per distinct bit pattern: -0.0 == 0.0, but the reprs differ."""
    index = list(map(str, range(1, p.n + 1)))
    bits, inverse = np.unique(np.asarray(adjusted, dtype=float).view(np.uint64),
                              return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    hit = np.zeros(p.n, dtype=bool)
    hit[np.fromiter(decision.rejected, dtype=np.intp, count=decision.n_rejected) - 1] = True
    return (index, index if p.labels is None else p.labels, list(map(repr, p.values.tolist())),
            texts[inverse].tolist(), np.where(hit, *words).tolist())


def decisions_csv(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray,
                  header: str) -> str:
    lines = [f"# procedure: {header}", f"# rejections: {decision.n_rejected}",
             "index,label,pvalue,adjusted_pvalue,rejected"]
    lines += map(",".join, zip(*_decision_columns(p, decision, adjusted, ("1", "0"))))
    return "\n".join(lines) + "\n"


def decisions_json(p: PValueVector, decision: DecisionSet, adjusted: np.ndarray,
                   header: str) -> str:
    columns = _decision_columns(p, decision, adjusted, ("true", "false"))
    items = (f'{{\n      "index": {i},\n      "label": {json.dumps(label)},\n'
             f'      "pvalue": {value},\n      "adjusted_pvalue": {adj},\n'
             f'      "rejected": {rejected}\n    }}'
             for i, label, value, adj, rejected in zip(*columns))
    return _json_object({"procedure": header, "rejections": decision.n_rejected},
                        hypotheses=_json_list(items))


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
        "config": vars(report.config),
        "cells": [{rename.get(key, key): None if isinstance(x, float) and math.isnan(x) else x
                   for key, x in vars(c).items()}
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
