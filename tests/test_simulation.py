import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from mtbounds import (
    SimConfig,
    SolverError,
    run_study,
    sample_statistics,
    two_sided_p,
)
from mtbounds import fileio
from mtbounds.procedures import _rejection_counts
from mtbounds.simulation import _BATCH, _false_rejections, _replication_normals


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
        ts = np.linspace(-6, 6, 101)
        expected = [math.erfc(abs(t) / math.sqrt(2)) for t in ts]
        for t, want in zip(ts, expected):
            assert two_sided_p(float(t)) == pytest.approx(want, abs=1e-14)
        # elementwise over an array of any shape, leaving the input alone
        block = ts.reshape(1, 101).repeat(3, axis=0)
        p = two_sided_p(block)
        assert p.shape == (3, 101)
        assert np.allclose(p, [expected] * 3, rtol=0, atol=1e-14)
        assert np.array_equal(block[0], ts)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            two_sided_p(float("inf"))
        with pytest.raises(ValueError):
            two_sided_p(np.array([[0.5, float("nan")]]))


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

    @pytest.mark.parametrize("n, true_count, effect, rho", [
        (0, 0, 1.0, 0.5), (True, 1, 1.0, 0.5), (3, True, 1.0, 0.5), (3, 1.5, 1.0, 0.5),
        (3, -1, 1.0, 0.5), (3, 1, True, 0.5), (3, 1, float("nan"), 0.5),
        (3, 1, float("inf"), 0.5), (3, 1, -float("inf"), 0.5), (3, 1, 1.0, False),
        (3, 1, 1.0, float("nan")),
    ], ids=["n-0", "n-bool", "count-bool", "count-real", "count-negative", "effect-bool",
            "effect-nan", "effect-inf", "effect-minus-inf", "rho-bool", "rho-nan"])
    def test_refuses_what_a_config_refuses(self, n, true_count, effect, rho):
        with pytest.raises(ValueError):
            sample_statistics(n, true_count, effect, rho, np.random.default_rng(0))
        with pytest.raises(ValueError):
            SimConfig(n=n, true_counts=(true_count,), effects=(effect,), rho=rho, reps=10)


class TestSubstreams:
    def test_replication_stream_fixed(self):
        a = _replication_normals(42, 7, 8, 5)
        b = _replication_normals(42, 7, 8, 5)
        assert np.array_equal(a, b)
        # a replication's row does not depend on where its batch starts
        assert np.array_equal(_replication_normals(42, 0, 8, 5)[7], a[0])

    def test_distinct_replications_differ(self):
        a, b = _replication_normals(42, 7, 9, 5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [42, 2**64 - 1])
    def test_reset_matches_fresh_generator(self, seed):
        # the counter reset must land on the stream of a generator built
        # for that replication, on both sides of a batch boundary
        z = _replication_normals(seed, 0, _BATCH + 1, 51)
        for rep in (0, _BATCH - 1, _BATCH):
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=rep << 128))
            assert np.array_equal(z[rep], fresh.standard_normal(51)), rep


def sorted_order_false_rejections(p, true_count, k):
    """Reference V: the true nulls among the first k positions of the stable
    sort order, counted by a running sum over the sorted indices."""
    order = np.argsort(p, axis=1, kind="stable")
    false_running = np.cumsum(order < true_count, axis=1)
    rows = np.arange(p.shape[0])
    return np.where(k > 0, false_running[rows, np.maximum(k - 1, 0)], 0)


class TestFalseRejections:
    # p-values and thresholds on a 0.01 grid, so that p-values tie with each
    # other and with the cut thr[k-1]
    @pytest.mark.parametrize("direction", ["su", "sd"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sorted_order_count(self, direction, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        # null-like rows and rows of small p-values, so k runs from 0 to n
        p = np.round(rng.uniform(size=(500, n)) ** rng.choice([1, 6], size=(500, 1)), 2)
        thr = np.round(np.sort(rng.uniform(0, 0.6, size=n)), 2)
        k = _rejection_counts(np.sort(p, axis=1), thr, direction)
        assert k.min() == 0 and k.max() == n
        cut = thr[np.maximum(k - 1, 0)][:, None]
        assert np.any((k > 0)[:, None] & (p == cut))  # p-values right at the cut
        for true_count in {0, 1, n // 2, n}:
            got = _false_rejections(p[:, :true_count].T, thr, k)
            assert np.array_equal(got, sorted_order_false_rejections(p, true_count, k))

    def test_no_rejection_counts_none(self):
        nulls = np.zeros((4, 3))  # four true nulls in three replications
        thr = np.array([0.0, 0.0, 0.5, 1.0])
        assert np.array_equal(_false_rejections(nulls, thr, np.zeros(3, dtype=int)), [0, 0, 0])
        assert np.array_equal(_false_rejections(nulls, thr, np.array([1, 3, 4])), [4, 4, 4])

    def test_counts_past_255_nulls(self):
        nulls = np.zeros((300, 2))
        counts = _false_rejections(nulls, np.full(300, 0.5), np.array([0, 300]))
        assert counts.tolist() == [0, 300]


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
        # three batches, the last one ragged, so every thread count >1
        # reaches the pool
        config = small_config(reps=2 * _BATCH + 37)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' batch writes
        try:
            reports = {threads: fileio.report_json(run_study(config, threads=threads))
                       for threads in (1, 2, 4)}
        finally:
            sys.setswitchinterval(interval)
        assert reports[1] == reports[2] == reports[4]

    # sha256 of the report and the trace, pinned from the per-cell,
    # one-generator-per-replication implementation. Two batches with an
    # all-null cell (NaN power), and counts up to n=256 past uint8.
    @pytest.mark.parametrize("config, threads, report_sha, trace_sha", [
        pytest.param(SimConfig(n=10, true_counts=(0, 4, 10), effects=(1.0, 3.0),
                               reps=_BATCH + 37, seed=2**64 - 1), threads,
                     "33aee561bb59eec77e5b5961b1718e1df9576dd052cf51231522b2b5af72b4ce",
                     "b96e33bafb8ea039792ba1d0f56e771cb657788d8f91b78ea150a7dce07d23ad",
                     id=f"two-batches-threads{threads}")
        for threads in (1, 2)
    ] + [
        pytest.param(SimConfig(n=256, true_counts=(0, 128, 256), effects=(6.0,),
                               reps=100, seed=5), 1,
                     "f1bde3b1a6558623d653706bed8dd33e9af422201c1062a9b847086d1bef0ab9",
                     "480db7da2fcc345bdee216a13809066a9da4ef14f7012fd7962fdbc0136a39be",
                     id="n256"),
    ])
    def test_pinned_digests(self, tmp_path, config, threads, report_sha, trace_sha):
        path = tmp_path / "trace.csv"
        report = run_study(config, threads=threads, trace=path)
        assert hashlib.sha256(fileio.report_json(report).encode()).hexdigest() == report_sha
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha

    def test_statistics_match_sample_statistics(self, monkeypatch):
        # row r of what the study turns into p-values is the draw that
        # sample_statistics makes from replication r's own generator. Each
        # batch converts the null block once and then one block per effect;
        # cell (t, d) takes its first t columns from the null block and the
        # rest from effect d's.
        import mtbounds.simulation as sim

        seen = []
        real = sim.two_sided_p

        def record(t):
            seen.append(t.copy())
            return real(t)

        monkeypatch.setattr(sim, "two_sided_p", record)
        config = SimConfig(n=7, true_counts=(0, 3, 7), effects=(0.5, 2.0), rho=0.3,
                           reps=_BATCH + 5, seed=2**63 + 11)
        run_study(config, threads=1)
        per_batch = 1 + len(config.effects)
        assert len(seen) == 2 * per_batch  # two batches: the nulls, then each effect
        null, *effects = (np.concatenate([seen[b], seen[per_batch + b]])
                          for b in range(per_batch))
        for true_count in config.true_counts:
            for effect, block in zip(config.effects, effects):
                stats = np.concatenate([null[:, :true_count], block[:, true_count:]], axis=1)
                for r in (0, 1, _BATCH - 1, _BATCH, _BATCH + 4):
                    rng = np.random.Generator(np.random.Philox(key=config.seed,
                                                               counter=r << 128))
                    draw = sample_statistics(config.n, true_count, effect, config.rho, rng)
                    assert np.array_equal(stats[r], draw), (true_count, effect, r)

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

    def test_modified_raises_power(self):
        """What the LP improvement is for: on the default grid at n=50, each
        modified tail-FDP procedure has a strictly higher average power than
        its floor in every cell with a false null."""
        report = run_study(SimConfig(n=50, reps=2000), threads=1)
        power = {(c.true_count, c.effect, c.procedure): c.avg_power for c in report.cells}
        pairs = [(key, (*key[:2], key[2].removesuffix(" (mod)"))) for key in power
                 if key[2].endswith(" (mod)") and key[0] < 50]
        assert len(pairs) == 4 * 3 * 4  # false-null true counts x effects x procedures
        assert [mod for mod, floor in pairs if not power[mod] > power[floor]] == []

    def test_containment_counts_the_twins_column(self, tmp_path, monkeypatch):
        """With half its twin's constants, FDP-BH-SU (mod) rejects less than
        FDP-BH-SU in some replications; the report counts exactly those, read
        back from the trace, and every other modified procedure counts 0."""
        import mtbounds.simulation as sim

        real = sim.family_constants

        def halved(family, n, rate, *, modified, **kwargs):
            if modified and family == "bh" and rate.rate.direction == "su":
                return real(family, n, rate, modified=False, **kwargs).scaled(0.5)
            return real(family, n, rate, modified=modified, **kwargs)

        monkeypatch.setattr(sim, "family_constants", halved)
        path = tmp_path / "trace.csv"
        report = run_study(small_config(reps=300, effects=(1.0, 3.0)), threads=1, trace=path)
        counts = {}
        for line in path.read_text().splitlines()[1:]:
            _, true_count, effect, rep, procedure, rejections, _ = line.split(",")
            counts[int(true_count), float(effect), procedure, rep] = int(rejections)
        total = 0
        for cell in report.cells:
            if cell.procedure == "FDP-BH-SU (mod)":
                expected = sum(counts[cell.true_count, cell.effect, cell.procedure, str(r)]
                               < counts[cell.true_count, cell.effect, "FDP-BH-SU", str(r)]
                               for r in range(300))
                assert cell.containment_violations == expected, cell
                total += expected
            elif cell.procedure.endswith("(mod)"):
                assert cell.containment_violations == 0, cell
        assert total > 0

    def test_containment_none_without_twin(self, monkeypatch):
        """A modified procedure whose twin failed reports None; the rest of
        the report is the one the full roster gives."""
        import mtbounds.simulation as sim

        real = sim.family_constants

        def flaky(family, n, rate, *, modified, **kwargs):
            if not modified and family == "rs" and rate.rate.direction == "sd":
                raise SolverError("boom")
            return real(family, n, rate, modified=modified, **kwargs)

        config = small_config(reps=200)
        full = run_study(config, threads=1)
        monkeypatch.setattr(sim, "family_constants", flaky)
        report = run_study(config, threads=1)
        assert report.failures == (("FDP-RS-SD", "boom"),)
        orphans = [c for c in report.cells if c.procedure == "FDP-RS-SD (mod)"]
        assert len(orphans) == 3
        assert all(c.containment_violations is None for c in orphans)
        # JSON compares NaN power bit for bit, where == would fail
        expected = tuple(replace(c, containment_violations=None)
                         if c.procedure == "FDP-RS-SD (mod)" else c
                         for c in full.cells if c.procedure != "FDP-RS-SD")
        assert fileio.report_json(report) == fileio.report_json(
            replace(full, cells=expected, failures=report.failures))

    def test_estimates_within_unit_interval(self):
        report = run_study(small_config(reps=300), threads=1)
        for cell in report.cells:
            assert 0.0 <= cell.tail_fdp <= 1.0
            assert 0.0 <= cell.fdr <= 1.0
            if not math.isnan(cell.avg_power):
                assert 0.0 <= cell.avg_power <= 1.0

    def test_failed_procedure_drops_only_its_column(self, monkeypatch):
        import mtbounds.simulation as sim

        real = sim.family_constants

        def flaky(family, *args, **kwargs):
            if family == "gr":
                raise SolverError("boom")
            return real(family, *args, **kwargs)

        monkeypatch.setattr(sim, "family_constants", flaky)
        report = run_study(small_config(reps=50, true_counts=(5,)), threads=1)
        assert report.failures == (("FDR-GR-SD", "boom"),)
        names = {c.procedure for c in report.cells}
        assert "FDR-GR-SD" not in names
        assert len(names) == 9

    def test_error_other_than_a_solver_failure_propagates(self, monkeypatch):
        """Only an LP failure drops a column: a programming error, or an
        input error such as numpy's size limit, is not turned into one."""
        import mtbounds.simulation as sim

        def broken(*args, **kwargs):
            raise TypeError("boom")

        monkeypatch.setattr(sim, "family_constants", broken)
        with pytest.raises(TypeError, match="boom"):
            run_study(small_config(reps=50, true_counts=(5,)), threads=1)

    def test_trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        run_study(small_config(reps=50, true_counts=(5,)), threads=1, trace=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,trueCount,d,rep,procedure,R,V"
        assert len(lines) == 1 + 50 * 10


class TestConfig:
    def test_default_grid(self):
        assert SimConfig(n=10).true_counts == (0, 2, 5, 8, 10)
        assert SimConfig(n=1).true_counts == (0, 1)
        assert SimConfig(n=8).true_counts == (0, 2, 4, 6, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, true_counts=(6,))
        with pytest.raises(ValueError):
            SimConfig(n=5, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(n=5, reps=0)
        with pytest.raises(ValueError):
            SimConfig(n=5, effects=(float("nan"),))
        with pytest.raises(ValueError, match="at least one effect size is required"):
            SimConfig(n=5, effects=())
        with pytest.raises(ValueError, match="true counts must not repeat"):
            SimConfig(n=5, true_counts=(3, 3))
        with pytest.raises(ValueError, match="effect sizes must not repeat"):
            SimConfig(n=5, effects=(1.0, 2.0, 1.0))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                SimConfig(n=5, seed=seed)
        for level in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="fdr_level"):
                SimConfig(n=5, fdr_level=level)
        assert SimConfig(n=5, seed=2**64 - 1).seed == 2**64 - 1
        # counts and the seed are integers, Python's or numpy's, and no bool
        for bad in ({"reps": 100.5}, {"reps": True}, {"true_counts": (0, 2.5)},
                    {"true_counts": (0, True)}, {"seed": 1.5}, {"seed": True}):
            name = next(iter(bad)).replace("_", " ")
            with pytest.raises(ValueError, match=rf"^{name} must be .*integer"):
                SimConfig(n=10, **bad)
        config = SimConfig(n=10, reps=np.int64(100), true_counts=(np.int32(0), 5), seed=np.uint64(1))
        assert (config.reps, config.true_counts, config.seed) == (100, (0, 5), 1)
        # rho, gamma and the effect sizes are reals: a bool would print as
        # false/true in the JSON report
        for bad, message in [({"rho": False}, r"rho must lie in \[0, 1\)$"),
                             ({"rho": True}, r"rho must lie in \[0, 1\)$"),
                             ({"effects": (True,)}, "effect sizes must be finite$"),
                             ({"effects": (1.0, False)}, "effect sizes must be finite$"),
                             ({"gamma": False}, r"gamma must lie in \[0, 1\), got False$")]:
            with pytest.raises(ValueError, match=rf"^{message}"):
                SimConfig(n=4, **bad)

    @pytest.mark.parametrize("threads", [2.5, True, 0])
    def test_non_positive_integer_threads_raises(self, threads):
        with pytest.raises(ValueError, match=rf"^threads must be a positive integer, got {threads}$"):
            run_study(SimConfig(n=4, reps=50), threads=threads)
