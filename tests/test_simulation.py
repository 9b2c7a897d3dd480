import math

import numpy as np
import pytest

from mtbounds import (
    SimConfig,
    default_true_counts,
    run_study,
    sample_statistics,
    two_sided_p,
)
from mtbounds import fileio
from mtbounds.simulation import _replication_rng


class TestTwoSidedP:
    def test_zero_statistic(self):
        assert two_sided_p(0.0) == 1.0

    def test_classic_quantile(self):
        assert two_sided_p(1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert two_sided_p(t) == two_sided_p(-t)

    def test_matches_stdlib_erfc(self):
        # independent oracle: math.erfc goes through libm, not scipy
        for t in np.linspace(-6, 6, 101):
            assert two_sided_p(float(t)) == pytest.approx(
                math.erfc(abs(t) / math.sqrt(2)), abs=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            two_sided_p(float("inf"))


class TestSampling:
    def test_iid_moments_when_uncorrelated(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        draws = np.array([sample_statistics(20, 20, 0.0, 0.0, rng) for _ in range(3000)])
        se = 1 / math.sqrt(draws.size)
        assert abs(draws.mean()) < 4 * se
        assert abs(draws.var() - 1.0) < 5 * se

    def test_pairwise_correlation(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        draws = np.array([sample_statistics(2, 2, 0.0, 0.5, rng) for _ in range(20000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert corr == pytest.approx(0.5, abs=3 * 1.5 / math.sqrt(20000))

    def test_effect_shift(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        draws = np.array([sample_statistics(5, 0, 3.0, 0.5, rng) for _ in range(4000)])
        assert draws.mean() == pytest.approx(3.0, abs=3 * 1.0 / math.sqrt(4000 * 5) + 0.05)

    def test_true_nulls_lead(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        draws = np.array([sample_statistics(6, 3, 5.0, 0.0, rng) for _ in range(500)])
        assert abs(draws[:, :3].mean()) < 0.2
        assert draws[:, 3:].mean() == pytest.approx(5.0, abs=0.2)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_statistics(4, 5, 1.0, 0.5, rng)
        with pytest.raises(ValueError):
            sample_statistics(4, 2, 1.0, 1.0, rng)


class TestSubstreams:
    def test_replication_stream_fixed(self):
        a = _replication_rng(42, 7).standard_normal(5)
        b = _replication_rng(42, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_replications_differ(self):
        a = _replication_rng(42, 7).standard_normal(5)
        b = _replication_rng(42, 8).standard_normal(5)
        assert not np.array_equal(a, b)


def small_config(**overrides):
    base = dict(n=10, true_counts=(0, 5, 10), effects=(3.0,), reps=400, seed=123)
    base.update(overrides)
    return SimConfig(**base)


class TestRunStudy:
    def test_deterministic_given_seed(self):
        # serialized form captures every field bit-for-bit (NaN markers
        # included, which defeat plain == comparison)
        r1 = run_study(small_config(), threads=1)
        r2 = run_study(small_config(), threads=1)
        assert fileio.report_json(r1) == fileio.report_json(r2)

    def test_thread_count_does_not_change_results(self):
        r1 = run_study(small_config(reps=600), threads=1)
        r4 = run_study(small_config(reps=600), threads=4)
        assert fileio.report_json(r1) == fileio.report_json(r4)

    def test_seed_changes_results(self):
        r1 = run_study(small_config(), threads=1)
        r2 = run_study(small_config(seed=124), threads=1)
        assert fileio.report_json(r1) != fileio.report_json(r2)

    def test_power_na_when_everything_null(self):
        report = run_study(small_config(true_counts=(10,)), threads=1)
        for cell in report.cells:
            assert math.isnan(cell.avg_power)
            assert math.isnan(cell.se_power)
            assert 0.0 <= cell.tail_fdp <= 1.0

    def test_high_effect_high_power(self):
        report = run_study(small_config(true_counts=(0,), reps=800), threads=1)
        for cell in report.cells:
            floor = 0.85 if cell.procedure.startswith("FDP") else 0.6
            assert cell.avg_power > floor, cell.procedure

    def test_se_bound(self):
        report = run_study(small_config(reps=500), threads=1)
        cap = 0.5 / math.sqrt(500)
        for cell in report.cells:
            assert cell.se_tail <= cap + 1e-15
            assert cell.se_fdr <= cap + 1e-15
            if not math.isnan(cell.se_power):
                assert cell.se_power <= cap + 1e-15

    def test_containment_never_violated(self):
        report = run_study(small_config(reps=500, true_counts=(0, 5, 10)), threads=1)
        tracked = [c for c in report.cells if c.containment_violations is not None]
        assert len(tracked) == 3 * 4  # four modified procedures per cell
        assert all(c.containment_violations == 0 for c in tracked)

    def test_estimates_within_unit_interval(self):
        report = run_study(small_config(reps=300), threads=1)
        for cell in report.cells:
            assert 0.0 <= cell.tail_fdp <= 1.0
            assert 0.0 <= cell.fdr <= 1.0
            if not math.isnan(cell.avg_power):
                assert 0.0 <= cell.avg_power <= 1.0

    def test_failed_procedure_drops_only_its_column(self, monkeypatch):
        import mtbounds.simulation as sim

        real = sim.feasible_constants

        def flaky(spec, cache_dir=None):
            if spec.family == "gr":
                raise RuntimeError("boom")
            return real(spec, cache_dir=cache_dir)

        monkeypatch.setattr(sim, "feasible_constants", flaky)
        report = run_study(small_config(reps=50, true_counts=(5,)), threads=1)
        assert report.failures == (("FDR-GR-SD", "boom"),)
        names = {c.procedure for c in report.cells}
        assert "FDR-GR-SD" not in names
        assert len(names) == 9

    def test_trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_study(small_config(reps=50, true_counts=(5,)), threads=1, trace=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,trueCount,d,rep,procedure,R,V"
        assert len(lines) == 1 + 50 * 10


class TestConfig:
    def test_default_grid(self):
        assert default_true_counts(10) == (0, 2, 5, 8, 10)
        assert default_true_counts(1) == (0, 1)
        config = SimConfig(n=8)
        assert config.true_counts == default_true_counts(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, true_counts=(6,))
        with pytest.raises(ValueError):
            SimConfig(n=5, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=5, reps=0)
        with pytest.raises(ValueError):
            SimConfig(n=5, effects=(float("nan"),))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                SimConfig(n=5, seed=seed)
        assert SimConfig(n=5, seed=2**64 - 1).seed == 2**64 - 1
