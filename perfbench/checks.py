"""Output checks for the benchmark workloads and the published values they
compare against. Each check returns a list of failure messages, empty when
the output is correct."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# Published comparison table at gamma = 0.05, n = 100: (F(c), F(xi)).
TABLE1_N100 = {
    ("fdp-su", "bh"): (66.97, 74.02),
    ("fdp-su", "rs"): (83.63, 85.47),
    ("fdp-sd", "bh"): (65.24, 94.89),
    ("fdp-sd", "rs"): (77.47, 87.01),
}

# The fifteen p-values of the 1995 Benjamini-Hochberg multiple-endpoint
# example, in the published order.
BH95_PVALUES = (
    0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344,
    0.0459, 0.3240, 0.4262, 0.5719, 0.6528, 0.7590, 1.000,
)

# Published rejection counts on that data, keyed by (rate, family, level,
# modified). Tail-FDP procedures use gamma = level at alpha = 0.5; BY and GR
# control the FDR at alpha = level.
BH95_COUNTS = {
    ("fdp-su", "bh", 0.05, False): 9, ("fdp-su", "bh", 0.10, False): 9,
    ("fdp-su", "bh", 0.05, True): 9, ("fdp-su", "bh", 0.10, True): 9,
    ("fdp-su", "rs", 0.05, False): 5, ("fdp-su", "rs", 0.10, False): 4,
    ("fdp-su", "rs", 0.05, True): 5, ("fdp-su", "rs", 0.10, True): 5,
    (None, "by", 0.05, False): 3, (None, "by", 0.10, False): 3,
    (None, "gr", 0.05, False): 3, (None, "gr", 0.10, False): 4,
}

OBJECTIVE_RTOL = 1e-9
TABLE1_ABS = 0.01  # the published table has two decimals


def reference_objective(A: np.ndarray, floor: np.ndarray) -> float:
    """Optimum of max sum(A, axis=0) @ xi subject to A xi <= 1, xi >= floor
    and xi nondecreasing, solved densely by HiGHS."""
    n = A.shape[0]
    mono = np.zeros((n - 1, n))
    mono[np.arange(n - 1), np.arange(n - 1)] = 1.0
    mono[np.arange(n - 1), np.arange(1, n)] = -1.0
    result = linprog(-A.sum(axis=0), A_ub=np.vstack([A, mono]),
                     b_ub=np.concatenate([np.ones(n), np.zeros(n - 1)]),
                     bounds=[(f, None) for f in floor], method="highs")
    if result.status != 0:
        raise RuntimeError(f"reference solve failed: {result.message}")
    return -float(result.fun)


def check_solution(sol: dict, A: np.ndarray, feasibility_tol: float,
                   reference: float, table1: tuple[float, float] | None = None) -> list[str]:
    """One ``optimize --format json`` output against its bound matrix and the
    reference optimum (and the published table entry, when given)."""
    if sol.get("status") != "optimal":
        return [f"status {sol.get('status')!r}"]
    fails = []
    xi = np.asarray(sol["xi"], dtype=float)
    floor = np.asarray(sol["floor"], dtype=float)
    if np.any(xi < floor):
        fails.append("xi lies below the floor")
    if np.any(np.diff(xi) < 0):
        fails.append("xi is not nondecreasing")
    worst = float(np.max(A @ xi))
    if worst > 1.0 + feasibility_tol:
        fails.append(f"max(A @ xi) = {worst!r} exceeds 1 + {feasibility_tol}")
    if abs(sol["F_xi"] - reference) > OBJECTIVE_RTOL * abs(reference):
        fails.append(f"objective {sol['F_xi']!r} differs from reference {reference!r}")
    if table1 is not None:
        for label, got, want in (("F(c)", sol["F_floor"], table1[0]),
                                 ("F(xi)", sol["F_xi"], table1[1])):
            if abs(got - want) > TABLE1_ABS:
                fails.append(f"{label} = {got:.4f}, published {want}")
    return fails


def parse_decisions(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(rejections, p-values, adjusted p-values, rejected flags) of one
    ``adjust`` CSV output, in input order."""
    lines = text.splitlines()
    count = int(lines[1].split(":", 1)[1])
    rows = [line.rsplit(",", 3) for line in lines[3:] if line]
    p = np.array([float(r[1]) for r in rows])
    adjusted = np.array([float(r[2]) for r in rows])
    flags = np.array([r[3] == "1" for r in rows])
    return count, p, adjusted, flags


def by_reference(p: np.ndarray, alpha: float) -> np.ndarray:
    """Rejection flags of the Benjamini-Yekutieli step-up procedure."""
    n = p.size
    harmonic = math.fsum(1.0 / i for i in range(1, n + 1))
    thresholds = np.minimum(np.arange(1, n + 1) / (n * harmonic) * alpha, 1.0)
    order = np.argsort(p, kind="stable")
    hits = np.flatnonzero(p[order] <= thresholds)
    flags = np.zeros(n, dtype=bool)
    flags[order[:hits[-1] + 1 if hits.size else 0]] = True
    return flags


def check_decisions(text: str, alpha: float, pvalues: np.ndarray,
                    expected_flags: np.ndarray | None = None,
                    expected_count: int | None = None) -> list[str]:
    """One ``adjust`` output: its rejections agree with its flags and with the
    adjusted p-values at ``alpha``, and with any reference given."""
    count, p, adjusted, flags = parse_decisions(text)
    fails = []
    if not np.array_equal(p, pvalues):
        fails.append("p-values differ from the input")
    if int(flags.sum()) != count:
        fails.append(f"{int(flags.sum())} rows flagged, header says {count}")
    below = int(np.count_nonzero(adjusted <= alpha))
    if below != count:
        fails.append(f"{below} adjusted p-values <= {alpha}, but {count} rejections")
    if expected_flags is not None and not np.array_equal(flags, expected_flags):
        fails.append("decisions differ from the reference procedure")
    if expected_count is not None and count != expected_count:
        fails.append(f"{count} rejections, published {expected_count}")
    return fails


FDP_LEVEL = 0.5
FDR_LEVEL = 0.05
SE_MULTIPLE = 4.0


def check_report(report: dict, procedures: int, cells: int) -> list[str]:
    """One ``simulate --format json`` report; returns the failures found."""
    fails = [f"dropped procedure {item['procedure']}" for item in report["failures"]]
    names = {c["procedure"] for c in report["cells"]}
    keys = {(c["trueCount"], c["d"]) for c in report["cells"]}
    if len(names) != procedures or len(keys) != cells:
        fails.append(f"{len(names)} procedures x {len(keys)} cells, "
                     f"expected {procedures} x {cells}")
    for c in report["cells"]:
        cell, name = f"cell ({c['trueCount']}, {c['d']})", c["procedure"]
        if c["containment_violations"]:
            fails.append(f"{cell} {name}: {c['containment_violations']} containment violations")
        if name.startswith("FDP-"):
            if c["tailFDP"] > FDP_LEVEL + SE_MULTIPLE * c["se_tail"]:
                fails.append(f"{cell} {name}: tail FDP {c['tailFDP']} above {FDP_LEVEL}")
        elif name.startswith("FDR-"):
            if c["fdr"] > FDR_LEVEL + SE_MULTIPLE * c["se_fdr"]:
                fails.append(f"{cell} {name}: FDR {c['fdr']} above {FDR_LEVEL}")
        else:
            fails.append(f"{cell}: unexpected procedure {name!r}")
    return fails
