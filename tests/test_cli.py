import hashlib
import json
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from mtbounds import CriticalVector, cli, fileio, lp, matrices, procedures, simulation
from mtbounds.cli import main
from conftest import BH95_PVALUES


@pytest.fixture()
def bh95_file(tmp_path):
    path = tmp_path / "pvalues.txt"
    path.write_text("".join(f"{p}\n" for p in BH95_PVALUES))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrixCommand:
    def test_trivial_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", "--rate", "kfwer-sd", "--n", "1", "--k", "1")
        assert code == 0
        assert out.splitlines() == ["# spec: rate=kfwer-sd n=1 k=1", "1.0"]

    def test_antidiagonal(self, capsys):
        code, out, _ = run(capsys, "matrix", "--rate", "kfwer-sd", "--n", "10", "--k", "1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for i in range(1, 11):
            assert float(rows[i - 1][10 - i]) == i

    def test_row32_support(self, tmp_path, capsys):
        out_file = tmp_path / "matrix.csv"
        code, _, _ = run(capsys, "matrix", "--rate", "fdp-su", "--n", "50",
                         "--gamma", "0.05", "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 51
        row32 = [float(x) for x in lines[32].split(",")]
        support = [j + 1 for j, x in enumerate(row32) if x != 0]
        assert support == list(range(19, 51))

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "matrix", "--rate", "fdp-sd", "--n", "3",
                           "--gamma", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"] == {"rate": "fdp-sd", "n": 3, "gamma": 0.1}
        assert len(payload["entries"]) == 3

    def test_missing_param_exits_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--rate", "fdp-su", "--n", "5")
        assert code == 2
        assert "gamma" in err


class TestConstantsCommand:
    def test_by_family(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "by", "--n", "3")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert values == pytest.approx([2 / 11, 4 / 11, 6 / 11], abs=1e-12)

    def test_rescaled_modified(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "bh", "--n", "10",
                           "--rate", "fdp-sd", "--gamma", "0.05", "--modified")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert values == pytest.approx(list(1 / (11 - np.arange(1, 11))), abs=1e-12)

    def test_modified_without_rate_exits_2(self, capsys):
        code, _, err = run(capsys, "constants", "--family", "by", "--n", "5", "--modified")
        assert code == 2
        assert "modified" in err

    def test_alpha_scales_values(self, capsys):
        code, out, _ = run(capsys, "constants", "--family", "by", "--n", "3", "--alpha", "0.05")
        assert code == 0
        assert out.splitlines()[0].endswith(" scale=0.05")
        values = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert values == pytest.approx([0.1 / 11, 0.2 / 11, 0.3 / 11], abs=1e-15)

    def test_json_format(self, capsys):
        argv = ["constants", "--family", "bh", "--n", "4", "--rate", "fdp-su", "--gamma", "0.1"]
        code, csv_out, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "rescaled"
        assert payload["params"] == {"parent": "bh", "divisor": 2.125, "n": 4}
        assert payload["values"] == [float(line.split(",")[1])
                                     for line in csv_out.splitlines()[2:]]


def test_constants_without_params_name_the_family_alone():
    c = CriticalVector(np.array([0.25, 0.5]))
    assert fileio.constants_csv(c) == "# family: custom\nindex,value\n1,0.25\n2,0.5\n"


class TestOptimizeCommand:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "optimize", "--rate", "fdp-sd", "--family", "bh",
                           "--n", "10", "--gamma", "0.05")
        assert code == 0
        header = {line.split(":")[0]: line.split(":")[1].strip()
                  for line in out.splitlines() if line.startswith("#")}
        assert float(header["# F_floor"]) == pytest.approx(7.3333, abs=1e-3)
        assert float(header["# F_xi"]) == pytest.approx(10.0, abs=1e-9)

    def test_rs_su_already_optimal(self, capsys):
        code, out, _ = run(capsys, "optimize", "--rate", "fdp-su", "--family", "rs",
                           "--n", "10", "--gamma", "0.05")
        assert code == 0
        header = {line.split(":")[0]: line.split(":")[1].strip()
                  for line in out.splitlines() if line.startswith("#")}
        assert float(header["# F_floor"]) == pytest.approx(8.76, abs=5e-3)
        assert float(header["# F_xi"]) == pytest.approx(float(header["# F_floor"]), abs=1e-9)

    def test_cache_roundtrip_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["optimize", "--rate", "fdp-su", "--family", "bh", "--n", "25",
                "--gamma", "0.05", "--cache-dir", str(cache)]
        code1, out1, _ = run(capsys, *argv)
        files = list(cache.glob("*.json"))
        assert code1 == 0 and len(files) == 1
        payload_before = files[0].read_text()
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0
        assert out1 == out2
        assert files[0].read_text() == payload_before

    def test_weights_file(self, tmp_path, capsys):
        weights = tmp_path / "weights.txt"
        weights.write_text("".join("1.0\n" for _ in range(10)))
        code, out, _ = run(capsys, "optimize", "--rate", "fdp-sd", "--family", "bh",
                           "--n", "10", "--gamma", "0.05", "--weights", str(weights))
        assert code == 0
        code2, _, err = run(capsys, "optimize", "--rate", "fdp-sd", "--family", "bh",
                            "--n", "10", "--gamma", "0.05", "--weights",
                            str(tmp_path / "missing.txt"))
        assert code2 == 2

    @pytest.mark.parametrize("text, message", [
        ("1\n# note\nabc\n", ":3: not a number: 'abc'"),
        ("1\n-0.5\n1\n", ":2: weight must be finite and >= 0: -0.5"),
        ("1\n1\ninf\n", ":3: weight must be finite and >= 0: inf"),
        ("1\n\n1\n", ":0: expected 3 weights, found 2"),
    ], ids=["not-a-number", "negative", "infinite", "wrong-count"])
    def test_bad_weights_file_exits_2(self, tmp_path, text, message, capsys):
        weights = tmp_path / "weights.txt"
        weights.write_text(text)
        code, out, err = run(capsys, "optimize", "--rate", "fdp-sd", "--family", "bh",
                             "--n", "3", "--gamma", "0.05", "--weights", str(weights))
        assert (code, out) == (2, "")
        assert err == f"error: {weights}{message}\n"

    def test_json_format(self, capsys):
        argv = ["optimize", "--rate", "fdp-sd", "--family", "bh", "--n", "10",
                "--gamma", "0.05"]
        code, csv_out, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        header = {line[2:].split(": ")[0]: line.split(": ")[1]
                  for line in csv_out.splitlines() if line.startswith("#")}
        assert payload["spec"] == {"rate": "fdp-sd", "n": 10, "gamma": 0.05}
        assert payload["floor_family"] == "rescaled"
        assert (payload["solver"], payload["status"]) == (lp.SOLVER_VERSION, "optimal")
        assert header["status"] == "optimal"
        for key in ("F_floor", "F_xi", "M1", "M2"):
            assert payload[key] == float(header[key])
        rows = [line.split(",") for line in csv_out.splitlines()
                if line[0].isdigit()]
        assert payload["floor"] == [float(r[1]) for r in rows]
        assert payload["xi"] == [float(r[2]) for r in rows]


    def test_dense_step_up_optimum_is_feasible(self, capsys):
        """The full fdp-su program at n=1000 and gamma=0.005 once ended
        2.6e-6 outside the feasible set (exit 3); row generation solves it.
        The reference is an interior-point solve of the whole program."""
        n = 1000
        code, out, err = run(capsys, "optimize", "--rate", "fdp-su", "--gamma", "0.005",
                             "--family", "bh", "--n", str(n), "--format", "json")
        assert (code, err) == (0, "")
        xi = np.array(json.loads(out)["xi"])
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SU, n, gamma=0.005)
        bounds = matrices.bound_vector(spec, xi)
        assert np.max(bounds) <= 1 + lp.FEASIBILITY_TOL
        A = matrices.associated_matrix(spec).rows
        floor = np.array(json.loads(out)["floor"])
        steps = sparse.eye(n - 1, n) - sparse.eye(n - 1, n, k=1)
        reference = linprog(-np.asarray(A.sum(axis=0)).ravel(),
                            A_ub=sparse.vstack([A, steps], format="csr"),
                            b_ub=np.concatenate([np.ones(n), np.zeros(n - 1)]),
                            bounds=np.column_stack([floor, np.full(n, np.inf)]),
                            method="highs-ipm")
        assert reference.status == 0, reference.message
        assert bounds.sum() == pytest.approx(-reference.fun, rel=1e-9)


    def test_dense_step_up_at_gamma_zero_is_feasible(self, capsys):
        """Solved in unscaled variables, HiGHS ended 5e-8 below floors near
        1e-3 here, and lifting xi to the floor gave a bound of 1 + 4.9e-6."""
        n = 2000
        code, out, err = run(capsys, "optimize", "--rate", "fdp-su", "--gamma", "0",
                             "--family", "bh", "--n", str(n), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        xi = np.array(payload["xi"])
        assert np.all(xi >= np.array(payload["floor"]))
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SU, n, gamma=0.0)
        assert np.max(matrices.bound_vector(spec, xi)) <= 1 + lp.FEASIBILITY_TOL


class TestVerifyCommand:
    def test_rescaled_feasible(self, capsys):
        code, out, _ = run(capsys, "verify", "--rate", "fdp-su", "--family", "bh",
                           "--n", "50", "--gamma", "0.05")
        assert code == 0
        assert "max bound 1.000000" in out
        assert "feasible: yes" in out

    def test_constants_file_roundtrip(self, tmp_path, capsys):
        const_file = tmp_path / "constants.csv"
        code, _, _ = run(capsys, "constants", "--family", "bh", "--n", "10",
                         "--rate", "fdp-su", "--gamma", "0.1",
                         "--output", str(const_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--rate", "fdp-su", "--n", "10",
                           "--gamma", "0.1", "--input", str(const_file))
        assert code == 0
        assert "feasible: yes" in out

    def test_infeasible_detected(self, tmp_path, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text("index,value\n" +
                              "".join(f"{i},{i}\n" for i in range(1, 11)))
        code, out, _ = run(capsys, "verify", "--rate", "fdp-su", "--n", "10",
                           "--gamma", "0.1", "--input", str(const_file))
        assert code == 0
        assert "feasible: no" in out

    @pytest.mark.parametrize("family, feasible", [("bh", True), ("by", False)])
    def test_json_format(self, family, feasible, capsys):
        """--format json gives the full-precision bound and a boolean verdict."""
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "50",
                             "--gamma", "0.05", "--family", family, "--format", "json")
        assert (code, err) == (0, "")
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SU, 50, gamma=0.05)
        c = procedures.family_constants(family, 50, spec)
        assert json.loads(out) == {"max_bound": float(np.max(matrices.bound_vector(spec, c))),
                                   "feasible": feasible}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_optimize_output_roundtrip(self, fmt, tmp_path, capsys):
        """verify reads xi from optimize's output in either format."""
        spec = ["--rate", "fdp-sd", "--n", "20", "--gamma", "0.05"]
        solution = tmp_path / f"solution.{fmt}"
        code, _, _ = run(capsys, "optimize", *spec, "--family", "bh", "--format", fmt,
                         "--output", str(solution))
        assert code == 0
        code, out, err = run(capsys, "verify", *spec, "--input", str(solution))
        assert (code, err) == (0, "")
        assert out == run(capsys, "verify", *spec, "--family", "bh", "--modified")[1]
        assert out.endswith("feasible: yes\n")


class TestAdjustCommand:
    def test_bh95_step_up(self, bh95_file, capsys):
        code, out, _ = run(capsys, "adjust", "--input", str(bh95_file),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.05", "--alpha", "0.5")
        assert code == 0
        assert "# rejections: 9" in out
        rows = [line.split(",") for line in out.splitlines()[3:]]
        assert sum(int(r[4]) for r in rows) == 9

    def test_fdr_by(self, bh95_file, capsys):
        code, out, _ = run(capsys, "adjust", "--input", str(bh95_file),
                           "--family", "by", "--alpha", "0.05")
        assert code == 0
        assert "# rejections: 3" in out

    def test_labeled_csv_input(self, tmp_path, capsys):
        path = tmp_path / "labeled.csv"
        path.write_text("geneA,0.001\ngeneB,0.5\ngeneC,0.02\n")
        code, out, _ = run(capsys, "adjust", "--input", str(path),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.1", "--alpha", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [h["label"] for h in payload["hypotheses"]] == ["geneA", "geneB", "geneC"]

    def test_malformed_input_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\nnot-a-number\n")
        code, _, err = run(capsys, "adjust", "--input", str(path),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.1", "--alpha", "0.5")
        assert code == 2
        assert ":2:" in err

    def test_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n1.7\n")
        code, _, err = run(capsys, "adjust", "--input", str(path),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.1", "--alpha", "0.5")
        assert code == 2
        assert ":2:" in err

    def test_blank_and_comment_lines_skipped(self, bh95_file, tmp_path, capsys):
        argv = ["--family", "by", "--alpha", "0.05"]
        expected = run(capsys, "adjust", "--input", str(bh95_file), *argv)
        path = tmp_path / "commented.txt"
        path.write_text("# BH95\n\n" + "".join(f"{p}\n  \n# next\n" for p in BH95_PVALUES))
        assert run(capsys, "adjust", "--input", str(path), *argv) == expected

    @pytest.mark.parametrize("text", ["", "# no values\n\n"], ids=["empty", "comments-only"])
    def test_empty_input_exits_2(self, tmp_path, text, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        code, out, err = run(capsys, "adjust", "--input", str(path), "--family", "by",
                             "--alpha", "0.05")
        assert (code, out) == (2, "")
        assert err == f"error: {path}:0: no p-values found\n"

    def test_by_with_rate_exits_2(self, bh95_file, capsys):
        code, _, err = run(capsys, "adjust", "--input", str(bh95_file),
                           "--family", "by", "--rate", "fdp-sd",
                           "--gamma", "0.05", "--alpha", "0.05")
        assert code == 2


class TestSimulateCommand:
    def test_deterministic_csv(self, capsys):
        argv = ["simulate", "--n", "10", "--d", "3", "--reps", "200",
                "--seed", "42", "--true-counts", "0,5,10", "--threads", "2"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "n,trueCount,d,procedure,avgPower,tailFDP,fdr,se_power"
        assert len(out1.splitlines()) == 1 + 3 * 10

    def test_na_marker_for_all_null(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5", "--d", "1",
                           "--reps", "50", "--seed", "1", "--true-counts", "5",
                           "--threads", "1")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[4] == "NA"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "5", "--d", "1",
                           "--reps", "50", "--seed", "1", "--true-counts", "0",
                           "--threads", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["n"] == 5
        assert len(payload["cells"]) == 10


class TestSolverFailure:
    @pytest.mark.parametrize("argv", [
        ["constants", "--family", "bh", "--n", "10", "--rate", "fdp-sd",
         "--gamma", "0.05", "--modified"],
        ["optimize", "--family", "bh", "--n", "10", "--rate", "fdp-sd", "--gamma", "0.05"],
        ["verify", "--family", "bh", "--n", "10", "--rate", "fdp-sd", "--gamma", "0.05",
         "--modified"],
        ["adjust", "--family", "bh", "--rate", "fdp-sd", "--gamma", "0.05",
         "--alpha", "0.5", "--modified"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_exits_3(self, argv, cached, bh95_file, tmp_path, monkeypatch, capsys):
        def failing(problem):
            raise lp.SolverError("solver failed: numeric-failure")

        monkeypatch.setattr(lp, "solve", failing)
        if argv[0] == "adjust":
            argv = argv + ["--input", str(bh95_file)]
        if cached:
            argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "solver failed: numeric-failure" in err

    def test_simulate_with_every_procedure_failing_exits_3(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise lp.SolverError("solver failed: numeric-failure")

        monkeypatch.setattr(simulation, "family_constants", failing)
        code, out, err = run(capsys, "simulate", "--n", "5", "--reps", "10")
        assert (code, out) == (3, "")
        assert err.startswith("error: every procedure failed: [('FDP-BH-SU', "
                              "'solver failed: numeric-failure')")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, seed, capsys):
        code, out, err = run(capsys, "simulate", "--n", "5", "--d", "1", "--reps", "10",
                             "--seed", seed, "--threads", "1")
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_verify_modified_fdr_family_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "10",
                             "--gamma", "0.1", "--family", "by", "--modified")
        assert code == 2
        assert out == ""
        assert "no modified variant" in err

    @pytest.mark.parametrize("flags", [["--family", "bh"], ["--modified"]])
    def test_verify_input_with_family_flags_exits_2(self, tmp_path, flags, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text("index,value\n1,0.5\n2,1.0\n")
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                             "--gamma", "0.1", "--input", str(const_file), *flags)
        assert code == 2
        assert out == ""
        assert "--input" in err

    @pytest.mark.parametrize("flags", [["--rate", "fdp-su", "--gamma", "0.05", "--family", "bh"],
                                       ["--family", "by"]], ids=["bh", "by"])
    def test_adjust_without_alpha_exits_2(self, bh95_file, flags, capsys):
        code, out, err = run(capsys, "adjust", "--input", str(bh95_file), *flags)
        assert code == 2
        assert out == ""
        assert "--alpha" in err

    @pytest.mark.parametrize("payload, message", [
        ("{}", "'values'"),
        ('{"values": {"1": 0.5}}', "'values'"),
        ('{"values": [{}]}', "'values'"),
        ('{"values": [0.5, "x"]}', "'values'"),
        ('{"values": [0.25, "0.5"]}', "'values'"),
        ('{"values": [0.25, true]}', "'values'"),
        ('{"values": [0.25, 1' + "0" * 400 + "]}", "'values'"),
        ('{"values": [0.25, null]}', "'values'"),
        ('{"values": [[0.25, 0.5]]}', "'values'"),
        ('{"values": [0.25 0.5]}', "Expecting ',' delimiter"),
        ('{"values": [0.25, NaN]}', ":0: values must be finite"),
        ('{"values": [-0.25, 0.5]}', ":0: values must be nonnegative"),
        ('{"values": []}', ":0: values must be a nonempty 1-D array"),
    ], ids=["no-values", "values-dict", "object-entry", "string-entry", "numeric-string",
            "bool-entry", "huge-integer", "null-entry", "nested-list", "not-json",
            "nan-entry", "negative-entry", "empty-list"])
    def test_verify_malformed_json_constants_exits_2(self, tmp_path, payload, message, capsys):
        const_file = tmp_path / "constants.json"
        const_file.write_text(payload)
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                             "--gamma", "0.1", "--input", str(const_file))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {const_file}:")
        assert message in err

    @pytest.mark.parametrize("family", ["by", "gr"])
    def test_adjust_modified_fdr_family_exits_2(self, bh95_file, family, capsys):
        code, out, err = run(capsys, "adjust", "--input", str(bh95_file), "--family", family,
                             "--alpha", "0.05", "--modified")
        assert (code, out) == (2, "")
        assert "no modified variant" in err

    RATE_COMMANDS = {
        "matrix": ["--n", "3"],
        "constants": ["--n", "10", "--family", "bh"],
        "optimize": ["--n", "10", "--family", "bh"],
        "verify": ["--n", "10", "--family", "bh"],
        "adjust": ["--family", "bh", "--alpha", "0.5"],
    }

    @pytest.mark.parametrize("rate", [["--rate", "kfwer-su", "--k", "1", "--gamma", "0.1"],
                                      ["--rate", "fdp-su", "--gamma", "0.05", "--k", "2"]],
                             ids=["kfwer-gamma", "fdp-k"])
    @pytest.mark.parametrize("command", sorted(RATE_COMMANDS))
    def test_parameter_of_other_rate_exits_2(self, command, rate, bh95_file, capsys):
        argv = [command, *self.RATE_COMMANDS[command], *rate]
        if command == "adjust":
            argv += ["--input", str(bh95_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "does not take" in err

    @pytest.mark.parametrize("argv", [
        ["adjust", "--family", "by", "--alpha", "0.05", "--gamma", "0.1", "--k", "3"],
        ["adjust", "--family", "by", "--alpha", "0.05", "--gamma", "0.1"],
        ["constants", "--family", "bh", "--n", "3", "--k", "2"],
        ["constants", "--family", "rs", "--n", "3", "--gamma", "0.2", "--k", "2"],
        ["matrix", "--n", "3", "--k", "2"],
        ["optimize", "--family", "bh", "--n", "3", "--k", "2"],
        ["verify", "--family", "bh", "--n", "3", "--k", "2"],
    ], ids=["adjust-by-gamma-k", "adjust-by-gamma", "constants-bh-k", "constants-rs-gamma-k",
            "matrix-k", "optimize-k", "verify-k"])
    def test_rate_parameter_without_rate_exits_2(self, argv, bh95_file, capsys):
        if argv[0] == "adjust":
            argv = argv + ["--input", str(bh95_file)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert "requires --rate" in out.err

    @pytest.mark.parametrize("family", ["bh", "by", "gr"])
    def test_constants_gamma_unread_by_family_exits_2(self, family, capsys):
        code, out, err = run(capsys, "constants", "--family", family, "--n", "3",
                             "--gamma", "0.2")
        assert (code, out) == (2, "")
        assert "gamma is read only by family 'rs'" in err

    def test_constants_rs_gamma_without_rate(self, capsys):
        code, out, err = run(capsys, "constants", "--family", "rs", "--n", "3", "--gamma", "0.2")
        assert (code, err) == (0, "")
        assert out == ("# family: lr-fdp gamma=0.2 n=3\nindex,value\n1,0.3333333333333333\n"
                       "2,0.5\n3,1.0\n")

    @pytest.mark.parametrize("text, message", [
        ("index,value\n1,0.5\n2,half\n", ":3: not a number: 'half'"),
        ("", ":0: no constants found"),
    ], ids=["not-a-number", "empty"])
    def test_verify_malformed_csv_constants_exits_2(self, tmp_path, text, message, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text(text)
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                             "--gamma", "0.1", "--input", str(const_file))
        assert (code, out) == (2, "")
        assert err == f"error: {const_file}{message}\n"

    @pytest.mark.parametrize("text, message", [
        ("index,value\n1,nan\n2,0.5\n", ":0: values must be finite"),
        ("index,value\n1,0.5\n2,0.25\n", ":0: values must be nondecreasing"),
    ], ids=["nan", "decreasing"])
    def test_verify_invalid_csv_constants_exits_2(self, tmp_path, text, message, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text(text)
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                             "--gamma", "0.1", "--input", str(const_file))
        assert (code, out) == (2, "")
        assert err == f"error: {const_file}{message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["matrix", "--n", "5"], "--rate is required for this command"),
        (["constants", "--family", "bh", "--n", "5", "--modified"],
         "modified constants need an error-rate matrix"),
        (["constants", "--family", "rs", "--n", "5"],
         "family 'rs' needs gamma or an error-rate matrix"),
        (["simulate", "--n", "5", "--reps", "10", "--threads", "0"], "threads must be positive"),
        (["simulate", "--n", "0", "--reps", "10"], "n must be a positive integer, got 0"),
        (["simulate", "--n", "5", "--reps", "10", "--alpha", "1"],
         "alpha must lie in (0, 1), got 1.0"),
        (["simulate", "--n", "5", "--reps", "10", "--gamma", "1"],
         "gamma must lie in [0, 1), got 1.0"),
        (["constants", "--family", "bh", "--n", "0"], "n must be a positive integer, got 0"),
        (["constants", "--family", "by", "--n", "0"], "n must be a positive integer, got 0"),
        (["constants", "--family", "gr", "--n", "0"], "n must be a positive integer, got 0"),
        (["constants", "--family", "rs", "--n", "0", "--gamma", "0.1"],
         "n must be a positive integer, got 0"),
        (["constants", "--family", "rs", "--n", "5", "--gamma", "1.5"],
         "gamma must lie in [0, 1), got 1.5"),
        (["constants", "--n", "5"], "constants requires --family"),
        (["optimize", "--n", "5", "--rate", "fdp-su", "--gamma", "0.05"],
         "optimize requires --family"),
        (["adjust", "--input", "pvalues.txt", "--rate", "fdp-su", "--gamma", "0.05",
          "--alpha", "0.5"], "adjust requires --family"),
    ], ids=["matrix-no-rate", "constants-modified-no-rate", "constants-rs-no-gamma",
            "simulate-threads-0", "simulate-n-0", "simulate-alpha-1", "simulate-gamma-1",
            "constants-bh-n-0", "constants-by-n-0", "constants-gr-n-0", "constants-rs-n-0",
            "constants-rs-gamma-1.5", "constants-no-family", "optimize-no-family",
            "adjust-no-family"])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_verify_input_length_mismatch_exits_2(self, tmp_path, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text("index,value\n1,0.5\n2,1.0\n")
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "3",
                             "--gamma", "0.1", "--input", str(const_file))
        assert (code, out) == (2, "")
        assert err == f"error: {const_file}:0: expected 3 constants, found 2\n"

    def test_verify_without_input_or_family_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "3", "--gamma", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: verify needs --input or --family\n"

    @pytest.mark.parametrize("command, message", [
        ("constants", "is pre-normalized and takes no --rate"),
        ("optimize", "is pre-normalized; nothing to optimize"),
    ])
    @pytest.mark.parametrize("family", ["by", "gr"])
    def test_fdr_family_with_rate_exits_2(self, command, message, family, capsys):
        code, out, err = run(capsys, command, "--family", family, "--n", "5",
                             "--rate", "fdp-su", "--gamma", "0.05")
        assert (code, out) == (2, "")
        assert err == f"error: family {family!r} {message}\n"

    @pytest.mark.parametrize("counts", [",", "", "1,a"], ids=["comma", "empty", "not-an-integer"])
    def test_empty_true_counts_exits_2(self, counts, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "8", "--reps", "10", "--true-counts", counts])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert ("argument --true-counts: expected a comma-separated list of integers, "
                f"got {counts!r}") in out.err
        assert "_int_list" not in out.err

    @pytest.mark.parametrize("grid, message", [
        (["--true-counts", "3,3", "--d", "1"], "true counts must not repeat, got (3, 3)"),
        (["--true-counts", "3", "--d", "1", "--d", "1"],
         "effect sizes must not repeat, got (1.0, 1.0)"),
    ], ids=["true-counts", "effects"])
    def test_repeated_grid_value_exits_2(self, grid, message, capsys):
        code, out, err = run(capsys, "simulate", "--n", "8", "--reps", "10", *grid)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("alpha", ["nan", "0"])
    def test_constants_alpha_not_positive_exits_2(self, alpha, capsys):
        code, out, err = run(capsys, "constants", "--family", "bh", "--n", "10",
                             "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"

    @pytest.mark.parametrize("alpha", ["1", "2", "inf"])
    def test_constants_alpha_not_below_one_exits_2(self, alpha, bh95_file, capsys):
        code, out, err = run(capsys, "constants", "--family", "bh", "--n", "10",
                             "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: alpha must lie in (0, 1), got {float(alpha)}\n"
        assert run(capsys, "adjust", "--input", str(bh95_file), "--family", "by",
                   "--alpha", alpha) == (code, out, err)

    def test_adjust_n_mismatch_exits_2(self, bh95_file, capsys):
        code, out, err = run(capsys, "adjust", "--input", str(bh95_file), "--n", "3",
                             "--rate", "fdp-su", "--gamma", "0.05", "--family", "bh",
                             "--alpha", "0.5")
        assert (code, out) == (2, "")
        assert "procedure is for n=3, got 15 p-values" in err

    def test_missing_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--rate", "fdp-su", "--gamma", "0.05"])
        assert exc.value.code == 2


def never_build(spec):
    raise AssertionError(f"dense matrix built for {spec}")


def never_call_highs(*args, **kwargs):
    raise AssertionError("HiGHS called")


def patch_matrix_builds(monkeypatch, builder):
    """Rebind ``associated_matrix`` in every mtbounds module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mtbounds" and hasattr(module, "associated_matrix"):
            monkeypatch.setattr(module, "associated_matrix", builder)


class TestMatrixFree:
    """Commands that only need A @ c never build the dense matrix or call
    HiGHS; a cold kFWER optimize is one of them, solved in closed form."""

    @pytest.mark.parametrize("argv", [
        ["adjust", "--family", "bh", "--rate", "fdp-su", "--gamma", "0.05", "--alpha", "0.5"],
        ["adjust", "--family", "rs", "--rate", "kfwer-sd", "--k", "2", "--alpha", "0.1"],
        ["verify", "--family", "rs", "--n", "15", "--rate", "fdp-sd", "--gamma", "0.1"],
        ["verify", "--family", "bh", "--n", "15", "--rate", "kfwer-su", "--k", "2"],
        ["constants", "--family", "bh", "--n", "15", "--rate", "fdp-su", "--gamma", "0.05"],
        ["constants", "--family", "rs", "--n", "15", "--rate", "kfwer-su", "--k", "1"],
        ["optimize", "--family", "rs", "--n", "300", "--rate", "kfwer-su", "--k", "2"],
        ["optimize", "--family", "bh", "--n", "300", "--rate", "kfwer-sd", "--k", "2"],
    ], ids=lambda argv: "-".join(argv[:5:2]))
    def test_no_dense_build(self, argv, bh95_file, monkeypatch, capsys):
        patch_matrix_builds(monkeypatch, never_build)
        monkeypatch.setattr(lp, "linprog", never_call_highs)
        if argv[0] == "adjust":
            argv = argv + ["--input", str(bh95_file)]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out

    def test_verify_input_file(self, tmp_path, monkeypatch, capsys):
        patch_matrix_builds(monkeypatch, never_build)
        const_file = tmp_path / "constants.csv"
        const_file.write_text("index,value\n1,0.25\n2,0.5\n")
        code, out, _ = run(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                           "--gamma", "0.1", "--input", str(const_file))
        assert code == 0
        assert out == "max bound 0.750000\nfeasible: yes\n"


def never_read(matrix):
    raise AssertionError(f"matrix view read for {matrix.spec}")


class TestSparseLP:
    """The LP reads A's sparse rows and never its dense entries; a cache hit
    poses the program on the spec alone and builds no matrix object."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--family", "bh", "--n", "15", "--rate", "fdp-su", "--gamma", "0.05"],
        ["optimize", "--family", "rs", "--n", "15", "--rate", "kfwer-sd", "--k", "2"],
        ["adjust", "--family", "bh", "--rate", "fdp-sd", "--gamma", "0.05", "--alpha", "0.5",
         "--modified"],
        ["adjust", "--family", "rs", "--rate", "kfwer-su", "--k", "2", "--alpha", "0.1",
         "--modified"],
        ["constants", "--family", "bh", "--n", "15", "--rate", "fdp-su", "--gamma", "0.1",
         "--modified"],
        ["verify", "--family", "bh", "--n", "15", "--rate", "kfwer-su", "--k", "2",
         "--modified"],
    ], ids=lambda argv: "-".join(argv[:5:2]))
    def test_cold_and_warm(self, argv, bh95_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(matrices.AssociatedMatrix, "entries", property(never_read))
        argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        if argv[0] == "adjust":
            argv += ["--input", str(bh95_file)]
        cold = run(capsys, *argv)
        assert cold[0] == 0 and cold[2] == ""
        monkeypatch.setattr(matrices.AssociatedMatrix, "rows", property(never_read))
        patch_matrix_builds(monkeypatch, never_build)
        assert run(capsys, *argv) == cold


class TestOutOfMemory:
    @pytest.mark.parametrize("argv", [
        ["matrix", "--n", "20000", "--rate", "fdp-su", "--gamma", "0.05"],
        ["optimize", "--family", "bh", "--n", "20000", "--rate", "fdp-sd", "--gamma", "0.05"],
    ], ids=lambda argv: argv[0])
    def test_exits_2(self, argv, monkeypatch, capsys):
        def out_of_memory(spec):
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                              "(20000, 20000) and data type float64")

        patch_matrix_builds(monkeypatch, out_of_memory)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("error: out of memory: Unable to allocate 2.98 GiB for an array "
                       "with shape (20000, 20000) and data type float64\n")


# Every writer's bytes, pinned: sha256 of stdout per command and format. The
# solver version (it names the scipy release) is replaced before hashing.
PINNED_COMMANDS = {
    "matrix": ["matrix", "--rate", "fdp-su", "--n", "8", "--gamma", "0.1"],
    "constants": ["constants", "--family", "rs", "--n", "10", "--rate", "fdp-sd",
                  "--gamma", "0.05", "--modified", "--alpha", "0.5"],
    "optimize": ["optimize", "--rate", "kfwer-su", "--k", "2", "--family", "bh", "--n", "10"],
    "verify": ["verify", "--rate", "fdp-sd", "--n", "10", "--gamma", "0.05", "--family", "bh",
               "--modified"],
    "adjust-bh": ["adjust", "--rate", "fdp-su", "--gamma", "0.05", "--family", "bh",
                  "--alpha", "0.5"],
    "adjust-by": ["adjust", "--family", "by", "--alpha", "0.05"],
    "adjust-labels": ["adjust", "--rate", "kfwer-sd", "--k", "2", "--family", "rs",
                      "--alpha", "0.1"],
    "simulate": ["simulate", "--n", "6", "--d", "1", "--d", "2.5", "--true-counts", "0,3,6",
                 "--reps", "300", "--seed", "7", "--threads", "2"],
}
PINNED_SHA256 = {
    ('adjust-bh', 'csv'): "191897d2762527ab7611c288925e1e9013680a2fe6f100cf4976cc72cbc9185b",
    ('adjust-bh', 'json'): "67994defe1502ceba94f3813df545bbf1b8fe1367ff0ea49e712f9cd9c8f521b",
    ('adjust-by', 'csv'): "045d022b5635eb37991484d43a366e4b6acb8eb693ded987ac9ed2b484ccdd4a",
    ('adjust-by', 'json'): "85111098b34033d965c783d4a482469c2a895418863c942e2b64b2e360acb9db",
    ('adjust-labels', 'csv'): "c35ff1610f0bebe8d184f3370c0299aad2890c8837a25f25a3db478303f64ed7",
    ('adjust-labels', 'json'): "601809787d405ee3acc8a42a8ea5affe40b91bbd3608b0d78b9f1f31ab85d748",
    ('constants', 'csv'): "bdfa37cb60579e861246ff35379e2d2799028c74a26186a5c036ee67324040a0",
    ('constants', 'json'): "6e49f535b226f6834ebacb329f96eaf90b9c268d2c14bc2fee0a396514399c8c",
    ('matrix', 'csv'): "ec82d0d203df770330d52060eaaa60d029ad3cca08556f340294b7106bba721a",
    ('matrix', 'json'): "e399e885374405c872aa3fb0a281407e4c05d903a793a77e572b6ed0c9f87769",
    ('optimize', 'csv'): "6c227d68a3d3beede3dc116f239c0b758c86d3b70893f1ff8e0d8e7f2066bd72",
    ('optimize', 'json'): "76567ae85a41b56cb17ce2f1749d1fe10b51173b7b6ed6019a71873fac2d7bdc",
    ('simulate', 'csv'): "e0a5f4a5088263d2e2c6ec7f3a82e2df48eb06a045c6e2f20e31a06a22871f7d",
    ('simulate', 'json'): "a1631b45d0bfcca620c2f0ccb9f6ae97c34104befead50dc0f8f29e027920fdc",
    ('verify', 'csv'): "4fd7ec81f48c6d663bed0a91bc28669065c4e6064fc3c88d765e6621de67549b",
    ('verify', 'json'): "faa7ea614a2211ba21223bd4648c847b42f035386cdeaf2dfb9f8366eaaa964a",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_stdout_bytes_pinned(name, fmt, bh95_file, tmp_path, capsys):
    argv = PINNED_COMMANDS[name] + ["--format", fmt]
    if name == "adjust-labels":
        labelled = tmp_path / "labelled.txt"
        labelled.write_text("# label,value\n\n" + "".join(
            f"h{i}, {p}\n" for i, p in enumerate(BH95_PVALUES, start=1)))
        argv += ["--input", str(labelled)]
    elif name.startswith("adjust"):
        argv += ["--input", str(bh95_file)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.replace(lp.SOLVER_VERSION, "SOLVER").encode()).hexdigest()
    assert digest == PINNED_SHA256[name, fmt]


class TestParserReuse:
    def test_successive_calls_share_no_state(self, bh95_file, tmp_path, capsys):
        """main builds its parser once; each call still parses into a fresh
        namespace, so flags and values of one call never reach the next, in
        either order."""
        short = tmp_path / "short.txt"
        short.write_text("0.01\n0.2\n0.03\n")
        calls = [
            ["adjust", "--input", str(bh95_file), "--rate", "fdp-su", "--gamma", "0.05",
             "--family", "bh", "--alpha", "0.5", "--modified"],
            ["adjust", "--input", str(short), "--family", "by", "--alpha", "0.1"],
            ["simulate", "--n", "4", "--d", "1", "--d", "2", "--reps", "50", "--seed", "3",
             "--threads", "1", "--true-counts", "0,4"],
            ["simulate", "--n", "4", "--d", "3", "--gamma", "0.2", "--reps", "50",
             "--seed", "3", "--threads", "1"],
            ["constants", "--family", "rs", "--n", "6", "--gamma", "0.1"],
            ["constants", "--family", "bh", "--n", "6", "--rate", "kfwer-sd", "--k", "2",
             "--format", "json"],
            ["verify", "--rate", "fdp-su", "--gamma", "0.1", "--n", "6", "--family", "rs"],
        ]
        forward = [run(capsys, *argv) for argv in calls]
        backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
        assert forward == backward
        assert all(code == 0 for code, _, _ in forward)
        assert "n=3" in forward[1][1] and "n=15" in forward[0][1]
        cells = [{tuple(line.split(",")[1:3]) for line in forward[i][1].splitlines()[1:]}
                 for i in (2, 3)]
        assert cells[0] == {(t, d) for t in ("0", "4") for d in ("1.0", "2.0")}
        assert {d for _, d in cells[1]} == {"3.0"} and len(cells[1]) > 2  # the default grid
        assert cli._parser.cache_info().currsize == 1
