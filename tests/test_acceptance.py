"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8's step-down expectation is a strict xfail: the published
rejection count (10) is unattainable on this dataset for any feasible
step-down procedure (see the companion test for the proof sketch), while
every other published count reproduces exactly.
"""

import math

import numpy as np
import pytest

from mtbounds import (
    ErrorRateSpec,
    ProcedureSpec,
    PValueVector,
    Rate,
    SimConfig,
    associated_matrix,
    bound_vector,
    build_problem,
    family_constants,
    lr_kfwer_constants,
    row_events,
    run_procedure,
    run_study,
    solve,
)
from conftest import BH95_PVALUES

GAMMA = 0.05
TABLE1_NS = (10, 25, 50, 100)

# Published comparison table at gamma = 0.05: (F(c), F(xi), M1, M2)
TABLE1 = {
    (10, "bh", "su"): (7.75, 8.16, 2.61, 1.34),
    (10, "rs", "su"): (8.76, 8.76, 1.00, 1.00),
    (10, "bh", "sd"): (7.33, 10.00, 3.00, 3.00),
    (10, "rs", "sd"): (10.00, 10.00, 1.00, 1.00),
    (25, "bh", "su"): (18.32, 20.39, 6.42, 2.09),
    (25, "rs", "su"): (21.32, 22.75, 1.23, 1.11),
    (25, "bh", "sd"): (17.18, 24.14, 6.76, 6.76),
    (25, "rs", "sd"): (17.90, 23.50, 1.43, 1.43),
    (50, "bh", "su"): (32.78, 37.90, 12.36, 3.14),
    (50, "rs", "su"): (41.75, 43.39, 1.56, 1.23),
    (50, "bh", "sd"): (31.55, 48.17, 12.4, 12.4),
    (50, "rs", "sd"): (38.69, 44.94, 1.50, 1.50),
    (100, "bh", "su"): (66.97, 74.02, 18.39, 3.92),
    (100, "rs", "su"): (83.63, 85.47, 1.29, 1.09),
    (100, "bh", "sd"): (65.24, 94.89, 18.39, 18.39),
    (100, "rs", "sd"): (77.47, 87.01, 1.57, 1.51),
}


def family_floor(matrix, family):
    return family_constants(family, matrix.n, matrix.spec)


@pytest.fixture(scope="module")
def table1_solutions():
    out = {}
    for n in TABLE1_NS:
        for direction, rate in (("su", Rate.FDP_SU), ("sd", Rate.FDP_SD)):
            matrix = associated_matrix(ErrorRateSpec(rate, n, gamma=GAMMA))
            for family in ("bh", "rs"):
                floor = family_floor(matrix, family)
                solution = solve(build_problem(matrix, floor))
                out[(n, family, direction)] = (matrix, floor, solution)
    return out


def test_criterion_01_table1_objectives(table1_solutions):
    """F(c) and F(xi) match the published table within 0.01."""
    for (n, family, direction), (f_c, f_xi, _, _) in TABLE1.items():
        _, _, solution = table1_solutions[(n, family, direction)]
        assert solution.floor_objective == pytest.approx(f_c, abs=0.01), \
            (n, family, direction, "F(c)")
        assert solution.objective == pytest.approx(f_xi, abs=0.01), \
            (n, family, direction, "F(xi)")
    print("ACCEPTANCE 1 (table of objective values, n in {10,25,50,100}): PASS")


def test_criterion_02_table1_diagnostics(table1_solutions):
    """M1/M2 asserted at n=10 (within 0.05); reported for larger n, where
    the optimal vertex (and hence the ratios) need not be unique."""
    for family, direction in (("bh", "su"), ("rs", "su"), ("bh", "sd"), ("rs", "sd")):
        _, _, solution = table1_solutions[(10, family, direction)]
        _, _, m1, m2 = TABLE1[(10, family, direction)]
        assert solution.m1 == pytest.approx(m1, abs=0.05), (family, direction)
        assert solution.m2 == pytest.approx(m2, abs=0.05), (family, direction)
    for n in (25, 50, 100):
        for family in ("bh", "rs"):
            for direction in ("su", "sd"):
                _, _, solution = table1_solutions[(n, family, direction)]
                _, _, m1, m2 = TABLE1[(n, family, direction)]
                flag = ("ok" if abs(solution.m1 - m1) <= 0.05 and
                        abs(solution.m2 - m2) <= 0.05 else "vertex-dependent")
                print(f"  report n={n} {family}-{direction}: "
                      f"M1={solution.m1:.2f}/{m1} M2={solution.m2:.2f}/{m2} [{flag}]")
    print("ACCEPTANCE 2 (diagnostic ratios at n=10): PASS")


def test_criterion_03_structural_example():
    """Rescaled linear staircase, step-up, n=50: the binding row is 32 and
    its support is exactly columns 19..50."""
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SU, 50, gamma=GAMMA))
    floor = family_floor(matrix, "bh")
    bounds = bound_vector(matrix.spec, floor)
    order = np.argsort(bounds)
    assert int(order[-1]) + 1 == 32
    assert bounds[order[-1]] > bounds[order[-2]] + 1e-3  # unique maximizer
    support = set((np.flatnonzero(matrix.entries[31]) + 1).tolist())
    assert support == set(range(19, 51))
    print("ACCEPTANCE 3 (binding row 32, support 19..50): PASS")


def test_criterion_04_row_sum_identities():
    """Row sums equal i (FDP) or i/k above the cutoff (kFWER), to 1e-10,
    over the full parameter sweep."""
    for n in range(1, 201):
        i = np.arange(1, n + 1, dtype=float)
        for gamma in (0.0, 0.05, 0.1, 0.25):
            for rate in (Rate.FDP_SU, Rate.FDP_SD):
                matrix = associated_matrix(ErrorRateSpec(rate, n, gamma=gamma))
                sums = matrix.entries.sum(axis=1)
                assert np.allclose(sums, i, rtol=0.0, atol=1e-10), (n, gamma, rate)
        for k in {1, 2, (n + 1) // 2}:
            if not 1 <= k <= n:
                continue
            expected = np.where(i >= k, i / k, 0.0)
            for rate in (Rate.KFWER_SU, Rate.KFWER_SD):
                sums = associated_matrix(ErrorRateSpec(rate, n, k=k)).entries.sum(axis=1)
                assert np.allclose(sums, expected, rtol=0.0, atol=1e-10), (n, k, rate)
    print("ACCEPTANCE 4 (row-sum identities, n <= 200): PASS")


def test_criterion_05_step_down_saturation():
    """The step-down kFWER matrix applied to its own optimal constants gives
    bound exactly 1 above the cutoff and 0 below, to 1e-12."""
    for n in range(1, 201):
        for k in {1, 2, (n + 1) // 2}:
            if not 1 <= k <= n:
                continue
            matrix = associated_matrix(ErrorRateSpec(Rate.KFWER_SD, n, k=k))
            bounds = bound_vector(matrix.spec, lr_kfwer_constants(n, k))
            assert np.max(np.abs(bounds[k - 1:] - 1.0)) <= 1e-12, (n, k)
            assert np.all(bounds[:k - 1] == 0.0), (n, k)
    print("ACCEPTANCE 5 (step-down saturation identity, n <= 200): PASS")


def test_criterion_06_matrix_coincidence():
    """Whenever floor(gamma*n) == 0, the FDP matrices equal the k=1 kFWER
    matrices entrywise exactly."""
    cases = [(n, 0.0) for n in range(1, 201)]
    for gamma in (0.05, 0.1, 0.25):
        cases += [(n, gamma) for n in range(1, 201) if math.floor(gamma * n) == 0]
    for n, gamma in cases:
        for direction in ("su", "sd"):
            fdp = associated_matrix(ErrorRateSpec(Rate(f"fdp-{direction}"), n, gamma=gamma))
            kfwer = associated_matrix(ErrorRateSpec(Rate(f"kfwer-{direction}"), n, k=1))
            assert np.array_equal(fdp.entries, kfwer.entries), (n, gamma, direction)
    print(f"ACCEPTANCE 6 (matrix coincidence, {len(cases)} cases): PASS")


def test_criterion_07_feasibility_identities(table1_solutions):
    """Rescaling lands exactly on the boundary (1e-12); every solver output
    dominates its floor, is monotone and respects the bound (1e-9)."""
    for n in (1, 5, 10, 25, 50, 100, 137):
        specs = [
            ErrorRateSpec(Rate.FDP_SU, n, gamma=GAMMA), ErrorRateSpec(Rate.FDP_SD, n, gamma=GAMMA),
            ErrorRateSpec(Rate.FDP_SU, n, gamma=0.1), ErrorRateSpec(Rate.FDP_SD, n, gamma=0.1),
            ErrorRateSpec(Rate.KFWER_SU, n, k=1), ErrorRateSpec(Rate.KFWER_SD, n, k=1),
        ]
        if n >= 2:
            specs += [ErrorRateSpec(Rate.KFWER_SU, n, k=2), ErrorRateSpec(Rate.KFWER_SD, n, k=2)]
        for spec in specs:
            matrix = associated_matrix(spec)
            for family in ("bh", "rs"):
                floor = family_floor(matrix, family)
                top = float(np.max(bound_vector(matrix.spec, floor)))
                assert abs(top - 1.0) <= 1e-12, (spec, family)
    for (n, family, direction), (matrix, floor, solution) in table1_solutions.items():
        xi = solution.xi.values
        assert np.all(xi >= floor.values), (n, family, direction)
        assert np.all(np.diff(xi) >= 0), (n, family, direction)
        assert float(np.max(bound_vector(matrix.spec, solution.xi))) <= 1 + 1e-9
    print("ACCEPTANCE 7 (rescale boundary + solution feasibility): PASS")


# ---------------------------------------------------------------------------
# Criterion 8: empirical rejection counts on the 1995 fifteen-p-value data.


def bh95_count(family, direction, q, modified=False):
    p = PValueVector(np.array(BH95_PVALUES))
    if family in ("by", "gr"):
        spec = ProcedureSpec(family=family, n=15, alpha=q)
    else:
        rate = ErrorRateSpec(Rate(f"fdp-{direction}"), 15, gamma=q)
        spec = ProcedureSpec(family=family, n=15, alpha=0.5, rate=rate, modified=modified)
    return run_procedure(p, spec)[0].n_rejected


def test_criterion_08_published_counts():
    """All published rejection counts that are attainable reproduce exactly,
    including the step-up anomaly (5 at the tighter level, 4 at the looser
    one)."""
    observed = {
        ("bh", "su", 0.05, False): bh95_count("bh", "su", 0.05),
        ("bh", "su", 0.10, False): bh95_count("bh", "su", 0.10),
        ("bh", "su", 0.05, True): bh95_count("bh", "su", 0.05, modified=True),
        ("bh", "su", 0.10, True): bh95_count("bh", "su", 0.10, modified=True),
        ("rs", "su", 0.05, False): bh95_count("rs", "su", 0.05),
        ("rs", "su", 0.10, False): bh95_count("rs", "su", 0.10),
        ("rs", "su", 0.05, True): bh95_count("rs", "su", 0.05, modified=True),
        ("rs", "su", 0.10, True): bh95_count("rs", "su", 0.10, modified=True),
        ("by", "su", 0.05, False): bh95_count("by", "su", 0.05),
        ("by", "su", 0.10, False): bh95_count("by", "su", 0.10),
        ("gr", "sd", 0.05, False): bh95_count("gr", "sd", 0.05),
        ("gr", "sd", 0.10, False): bh95_count("gr", "sd", 0.10),
    }
    expected = {
        ("bh", "su", 0.05, False): 9, ("bh", "su", 0.10, False): 9,
        ("bh", "su", 0.05, True): 9, ("bh", "su", 0.10, True): 9,
        ("rs", "su", 0.05, False): 5, ("rs", "su", 0.10, False): 4,
        ("rs", "su", 0.05, True): 5, ("rs", "su", 0.10, True): 5,
        ("by", "su", 0.05, False): 3, ("by", "su", 0.10, False): 3,
        ("gr", "sd", 0.05, False): 3, ("gr", "sd", 0.10, False): 4,
    }
    assert observed == expected
    print("ACCEPTANCE 8 (published counts incl. step-up anomaly): PASS")


def test_criterion_08_step_down_actual_counts():
    """The step-down FDP procedures each reject 9 at both levels on this
    data. No feasible step-down procedure can reject 10: with 15 hypotheses
    and exceedance 0.05 the bound matrix row 6 forces 6*c_10 <= 1, so the
    applied threshold is at most 0.5/6 = 0.083 while the 10th smallest
    p-value is 0.3240 (the 0.10 matrix caps c_10 at 1/3, same conclusion)."""
    for family in ("bh", "rs"):
        for q in (0.05, 0.10):
            for modified in (False, True):
                assert bh95_count(family, "sd", q, modified=modified) == 9
    matrix = associated_matrix(ErrorRateSpec(Rate.FDP_SD, 15, gamma=0.05))
    assert matrix.entries[5, 9] == 6.0  # row 6 puts weight 6 on column 10
    print("ACCEPTANCE 8 (step-down actual counts = 9, infeasibility of 10): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="published table reports 10 step-down rejections, which is "
           "unattainable: feasibility caps the 10th threshold at 0.5*c_10 "
           "<= 1/12 < 0.3240 (the 10th smallest p-value), so 9 is the "
           "correct count for every feasible step-down variant",
)
def test_criterion_08_step_down_published_counts():
    counts = {(family, q, modified): bh95_count(family, "sd", q, modified=modified)
              for family in ("bh", "rs") for q in (0.05, 0.10)
              for modified in (False, True)}
    assert all(count == 10 for count in counts.values())


# ---------------------------------------------------------------------------
# Criterion 9: simulation control properties.

SIM_SE = 0.0035  # 0.5 / sqrt(20000)


@pytest.fixture(scope="module", params=[10, 50])
def study(request):
    n = request.param
    config = SimConfig(n=n, effects=(0.1, 1.0, 3.0), reps=20000, seed=20_000 + n)
    return run_study(config)


def test_criterion_09_simulation_control(study):
    """At 20000 replications: exceedance probability of every tail-FDP
    procedure within its level, FDR of the two FDR procedures within theirs,
    and not a single replication where a modified procedure rejected less
    than its original."""
    report = study
    n = report.config.n
    for cell in report.cells:
        if cell.procedure.startswith("FDP"):
            assert cell.tail_fdp <= 0.5 + 3 * SIM_SE, cell
        else:
            assert cell.fdr <= 0.05 + 3 * cell.se_fdr + 1e-12, cell
        if cell.containment_violations is not None:
            assert cell.containment_violations == 0, cell
    mods = sum(1 for c in report.cells if c.containment_violations is not None)
    cells = len(report.cells)
    print(f"ACCEPTANCE 9 (simulation control, n={n}, {cells} cells, "
          f"{mods} containment checks): PASS")


# ---------------------------------------------------------------------------
# Criterion 10: Monte Carlo oracle for the union bound behind every row.

MC_DRAWS = 100_000
MC_SE = 0.5 / math.sqrt(MC_DRAWS)


def mc_specs(n):
    specs = [
        ErrorRateSpec(Rate.FDP_SU, n, gamma=GAMMA), ErrorRateSpec(Rate.FDP_SD, n, gamma=GAMMA),
        ErrorRateSpec(Rate.KFWER_SU, n, k=1), ErrorRateSpec(Rate.KFWER_SD, n, k=1),
    ]
    if n >= 2:
        specs += [ErrorRateSpec(Rate.KFWER_SU, n, k=2), ErrorRateSpec(Rate.KFWER_SD, n, k=2)]
    return specs


def feasible_candidates(matrix):
    candidates = [family_floor(matrix, "bh"), family_floor(matrix, "rs")]
    solution = solve(build_problem(matrix, candidates[0]))
    candidates.append(solution.xi)
    return candidates


def test_criterion_10_union_bound_oracle():
    """With i independent uniform null p-values, the empirical probability of
    each row's order-statistic event system stays below the row bound plus
    Monte Carlo slack, for every tested feasible vector and all four
    matrices."""
    rng = np.random.Generator(np.random.Philox(key=101))
    checks = 0
    for n in (3, 5, 10):
        uniforms = rng.random((MC_DRAWS, n))
        sorted_prefix = {i: np.sort(uniforms[:, :i], axis=1) for i in range(1, n + 1)}
        for spec in mc_specs(n):
            matrix = associated_matrix(spec)
            for c in feasible_candidates(matrix):
                bounds = bound_vector(matrix.spec, c)
                for i in range(1, n + 1):
                    events = row_events(spec, i)
                    if not events:
                        assert bounds[i - 1] == 0.0
                        continue
                    levels = np.array([lvl for lvl, _ in events]) - 1
                    thresholds = np.array([c.values[col - 1] for _, col in events])
                    hits = sorted_prefix[i][:, levels] <= thresholds
                    empirical = float(np.mean(hits.any(axis=1)))
                    assert empirical <= bounds[i - 1] + 3 * MC_SE, (spec, i)
                    checks += 1
    print(f"ACCEPTANCE 10 (union-bound oracle, {checks} row checks): PASS")
