import argparse
import codecs
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize import linprog

from mtbounds import (CriticalVector, Family, cli, constants, fileio, lp, matrices, procedures,
                      simulation)
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


def run_to_exit(capsys, *argv):
    """``run``, also for input that argparse rejects: it raises SystemExit
    before ``main`` can return."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def error_message(err):
    """The message of a one-message usage error. ``main`` prints
    ``error: <message>``; argparse prints a usage, then ``<prog>: error:
    <message>``, with prog ``mtbounds <command>``: every usage error of a
    command is reported in that command's usage."""
    if err.startswith("usage: mtbounds "):
        prog, _, message = err.rstrip("\n").rpartition("\n")[2].partition(": error: ")
        assert prog.split()[0] == "mtbounds" and len(prog.split()) == 2 and message, err
        assert err.startswith(f"usage: {prog} "), err
        return message
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    return err[len("error: "):-1]


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
        assert payload["family"] == "bh"
        assert payload["params"] == {"n": 4, "divisor": 2.125, "stage": "rescaled"}
        assert payload["values"] == [float(line.split(",")[1])
                                     for line in csv_out.splitlines()[2:]]

    @pytest.mark.parametrize("family, rate, stage", [
        *[(family, None, None) for family in procedures.FAMILIES],
        *[(family, rate, stage) for family in ("bh", "rs") for rate in matrices.Rate
          for stage in ("rescaled", "modified")],
    ])
    def test_every_stage_keeps_the_selector_name(self, family, rate, stage, capsys):
        """A vector is named by the --family selector it came from at every
        stage, and params["stage"] says whether it was rescaled or modified."""
        spec, gamma, flags = None, None, []
        if rate is not None:
            spec = matrices.ErrorRateSpec(rate, 8, **({"gamma": 0.1} if rate.is_fdp else {"k": 2}))
            name, value = spec.param
            flags = ["--rate", rate.value, f"--{name}", str(value)]
        elif family == "rs":  # raw rs reads gamma
            gamma, flags = 0.1, ["--gamma", "0.1"]
        modified = stage == "modified"
        code, out, err = run(capsys, "constants", "--family", family, "--n", "8", *flags,
                             *(["--modified"] if modified else []), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        if spec is None and family in ("bh", "rs"):  # the raw family
            c = (constants.bh_constants(8) if family == "bh" else constants.rs_constants(
                matrices.ErrorRateSpec(matrices.Rate.FDP_SU, 8, gamma=gamma)))
        else:
            c = procedures.family_constants(family, 8, spec, modified=modified)
        assert (payload["family"], payload["params"].get("stage")) == (family, stage)
        assert (c.family, c.params.get("stage")) == (family, stage)
        assert payload["values"] == c.values.tolist()


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
        assert payload["floor_family"] == "bh"
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
        c = procedures.family_constants(family, 50, None if family == "by" else spec)
        assert json.loads(out) == {"max_bound": float(np.max(matrices.bound_vector(spec, c))),
                                   "feasible": feasible}

    # optimize and constants JSON at n=4 as written when a rescaled or
    # modified vector named its stage as its family
    OLD_JSON = {
        "old-optimize-json": """{"spec": {"rate": "fdp-sd", "n": 4, "gamma": 0.05},
            "floor_family": "rescaled",
            "solver": "kfwer-closedform+highs-rowgen-nopresolve-scipy-1.17.1",
            "status": "optimal", "F_floor": 3.333333333333333, "F_xi": 4.0,
            "M1": 1.5, "M2": 1.5,
            "floor": [0.16666666666666666, 0.3333333333333333, 0.5, 0.6666666666666666],
            "xi": [0.25, 0.3333333333333333, 0.5, 1.0]}""",
        "old-constants-json": """{"family": "modified",
            "params": {"divisor": 1.0, "n": 4, "gamma": 0.05,
                       "origin": "lr-fdp", "parent": "rescaled"},
            "values": [0.25, 0.3333333333333333, 0.5, 1.0]}""",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json", *OLD_JSON])
    def test_optimize_output_roundtrip(self, fmt, tmp_path, capsys):
        """verify reads xi from optimize's output in either format, and the
        vector of optimize and constants JSON in the old family names."""
        spec = ["--rate", "fdp-sd", "--n", "4" if fmt in self.OLD_JSON else "20",
                "--gamma", "0.05"]
        solution = tmp_path / f"solution.{fmt}"
        if fmt in self.OLD_JSON:
            solution.write_text(self.OLD_JSON[fmt])
        else:
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

    # the first bad line in file order is named, whichever check it fails
    @pytest.mark.parametrize("text, message", [
        ("0.1\nnot-a-number\n", "not a number: 'not-a-number'"),
        ("0.1\nabc\n1.5\n", "not a number: 'abc'"),
        ("a,0.1\ng,abc\n", "not a number: 'abc'"),
    ], ids=["not-a-number", "before-out-of-range", "labelled"])
    def test_malformed_input_exits_2_with_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run(capsys, "adjust", "--input", str(path),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.1", "--alpha", "0.5")
        assert code == 2
        assert err == f"error: {path}:2: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("0.1\n1.7\n", "p-value out of [0, 1]: 1.7"),
        ("0.1\n1.5\nabc\n", "p-value out of [0, 1]: 1.5"),
        ("0.1\nnan\n", "p-value out of [0, 1]: nan"),
        ("0.1\ninf\n", "p-value out of [0, 1]: inf"),
        ("a,0.1\ng,-0.5\n", "p-value out of [0, 1]: -0.5"),
    ], ids=["above-one", "before-not-a-number", "nan", "inf", "labelled-negative"])
    def test_out_of_range_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run(capsys, "adjust", "--input", str(path),
                           "--rate", "fdp-su", "--family", "bh",
                           "--gamma", "0.1", "--alpha", "0.5")
        assert code == 2
        assert err == f"error: {path}:2: {message}\n"

    def test_blank_and_comment_lines_skipped(self, bh95_file, tmp_path, capsys):
        argv = ["--family", "by", "--alpha", "0.05"]
        expected = run(capsys, "adjust", "--input", str(bh95_file), *argv)
        path = tmp_path / "commented.txt"
        path.write_text("# BH95\n\n" + "".join(f"{p}\n  \n# next\n" for p in BH95_PVALUES))
        assert run(capsys, "adjust", "--input", str(path), *argv) == expected

    def test_decisions_csv_matches_per_value_formatting(self, tmp_path):
        # reference: every value through fileio._fmt, one row at a time
        path = tmp_path / "p.txt"
        path.write_text("a, -0.0\n0.0\n# c,d\n\nb ,1e-300\n5e-324\n1\n0.30000000000000004\n")
        p = fileio.read_pvalues(path)
        assert p.labels == ("a", "2", "b", "4", "5", "6")
        adjusted = np.array([-0.0, 0.0, 1.0, 0.5, 1e-300, 0.30000000000000004])
        decision = procedures.DecisionSet(frozenset({1, 3, 6}))
        expected = ["# procedure: X", "# rejections: 3",
                    "index,label,pvalue,adjusted_pvalue,rejected"]
        expected += [f"{i},{label},{fileio._fmt(v)},{fileio._fmt(a)},{int(i in decision.rejected)}"
                     for i, (label, v, a) in enumerate(zip(p.labels, p.values, adjusted), start=1)]
        assert fileio.decisions_csv(p, decision, adjusted, "X") == "\n".join(expected) + "\n"

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


# data on file lines 2, 4 and 6; a BOM before line 1 would make it a data line
GRAMMAR_LINES = ["# comment", "0.01", "", "  0.02  ", "  # indented comment", "0.5", ""]
FILE_FORMS = {
    "plain": lambda text: text.encode(),
    "bom": lambda text: codecs.BOM_UTF8 + text.encode(),
    "crlf": lambda text: text.replace("\n", "\r\n").encode(),
    "cr": lambda text: text.replace("\n", "\r").encode(),
}


class TestInputGrammar:
    """P-value, weights and constants files share one line grammar."""

    READERS = (lambda path: fileio.read_pvalues(path).values,
               lambda path: fileio.read_weights(path, 3),
               lambda path: fileio.read_constants(path, 3).values)

    @pytest.mark.parametrize("form", FILE_FORMS)
    def test_every_reader_reads_the_same_lines(self, form, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(FILE_FORMS[form]("\n".join(GRAMMAR_LINES)))
        for read in self.READERS:
            assert read(path).tolist() == [0.01, 0.02, 0.5]
        # a form feed inside a line does not end it
        bad = GRAMMAR_LINES[:3] + ["0.02\f0.03"] + GRAMMAR_LINES[4:]
        path.write_bytes(FILE_FORMS[form]("\n".join(bad)))
        for read in self.READERS:
            with pytest.raises(fileio.InputFormatError) as exc:
                read(path)
            assert str(exc.value) == f"{path}:4: not a number: '0.02\\x0c0.03'"

    def test_json_constants_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_bytes(codecs.BOM_UTF8 + b'{\r\n  "values": [0.25, 0.5]\r\n}\r\n')
        assert fileio.read_constants(path, 2).values.tolist() == [0.25, 0.5]


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
        code, out, err = run_to_exit(capsys, "verify", "--rate", "fdp-su", "--n", "2",
                             "--gamma", "0.1", "--input", str(const_file), *flags)
        assert code == 2
        assert out == ""
        assert "--input" in err

    @pytest.mark.parametrize("flags", [["--rate", "fdp-su", "--gamma", "0.05", "--family", "bh"],
                                       ["--family", "by"]], ids=["bh", "by"])
    def test_adjust_without_alpha_exits_2(self, bh95_file, flags, capsys):
        code, out, err = run_to_exit(capsys, "adjust", "--input", str(bh95_file), *flags)
        assert code == 2
        assert out == ""
        assert error_message(err) == "the following arguments are required: --alpha"

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
        (" [0.25, 0.5]", ":0: JSON constants need a 'values' or 'xi' list"),
    ], ids=["no-values", "values-dict", "object-entry", "string-entry", "numeric-string",
            "bool-entry", "huge-integer", "null-entry", "nested-list", "not-json",
            "nan-entry", "negative-entry", "empty-list", "array"])
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

    @pytest.mark.parametrize("argv, message", [
        (["adjust", "--family", "by", "--alpha", "0.05", "--gamma", "0.1", "--k", "3"],
         "--k requires --rate"),
        (["adjust", "--family", "by", "--alpha", "0.05", "--gamma", "0.1"],
         "--gamma requires --rate"),
        (["constants", "--family", "bh", "--n", "3", "--k", "2"], "--k requires --rate"),
        (["constants", "--family", "rs", "--n", "3", "--gamma", "0.2", "--k", "2"],
         "--k requires --rate"),
        (["constants", "--family", "bh", "--n", "3", "--gamma", "0.2"], "--gamma requires --rate"),
        (["constants", "--family", "by", "--n", "3", "--gamma", "0.2"], "--gamma requires --rate"),
        (["constants", "--family", "gr", "--n", "3", "--gamma", "0.2"], "--gamma requires --rate"),
        # argparse requires --rate of these commands before the --k rule is read
        (["matrix", "--n", "3", "--k", "2"], "the following arguments are required: --rate"),
        (["optimize", "--family", "bh", "--n", "3", "--k", "2"],
         "the following arguments are required: --rate"),
        (["verify", "--family", "bh", "--n", "3", "--k", "2"],
         "the following arguments are required: --rate"),
    ], ids=["adjust-by-gamma-k", "adjust-by-gamma", "constants-bh-k", "constants-rs-gamma-k",
            "constants-bh-gamma", "constants-by-gamma", "constants-gr-gamma", "matrix-k", "optimize-k", "verify-k"])
    def test_rate_parameter_without_rate_exits_2(self, argv, message, bh95_file, capsys):
        if argv[0] == "adjust":
            argv = argv + ["--input", str(bh95_file)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert error_message(out.err) == message
        # every rule is reported in the command's own usage, not the top-level one
        assert out.err.startswith(f"usage: mtbounds {argv[0]} "), out.err
        assert out.err.splitlines()[-1] == f"mtbounds {argv[0]}: error: {message}"

    def test_constants_rs_gamma_without_rate(self, capsys):
        code, out, err = run(capsys, "constants", "--family", "rs", "--n", "3", "--gamma", "0.2")
        assert (code, err) == (0, "")
        assert out == ("# family: rs gamma=0.2 n=3\nindex,value\n1,0.3333333333333333\n"
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
        (["matrix", "--n", "5"], "the following arguments are required: --rate"),
        (["constants", "--family", "bh", "--n", "5", "--modified"],
         "family 'bh' requires an error-rate spec"),
        (["constants", "--family", "rs", "--n", "5"],
         "family 'rs' needs gamma or an error-rate matrix"),
        (["constants", "--family", "bh", "--n", "5", "--gamma", "0.2", "--modified"],
         "--gamma requires --rate"),
        (["constants", "--family", "by", "--n", "5", "--gamma", "0.2", "--modified"],
         "--gamma requires --rate"),
        (["constants", "--family", "gr", "--n", "5", "--gamma", "0.2", "--modified"],
         "--gamma requires --rate"),
        (["simulate", "--n", "5", "--reps", "10", "--threads", "0"],
         "threads must be a positive integer, got 0"),
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
        (["constants", "--n", "5"], "the following arguments are required: --family"),
        (["optimize", "--n", "5", "--rate", "fdp-su", "--gamma", "0.05"],
         "the following arguments are required: --family"),
        (["adjust", "--input", "pvalues.txt", "--rate", "fdp-su", "--gamma", "0.05",
          "--alpha", "0.5"], "the following arguments are required: --family"),
    ], ids=["matrix-no-rate", "constants-modified-no-rate", "constants-rs-no-gamma",
            "constants-bh-gamma-modified", "constants-by-gamma-modified",
            "constants-gr-gamma-modified",
            "simulate-threads-0", "simulate-n-0", "simulate-alpha-1", "simulate-gamma-1",
            "constants-bh-n-0", "constants-by-n-0", "constants-gr-n-0", "constants-rs-n-0",
            "constants-rs-gamma-1.5", "constants-no-family", "optimize-no-family",
            "adjust-no-family"])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        code, out, err = run_to_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert error_message(err) == message

    def test_verify_input_length_mismatch_exits_2(self, tmp_path, capsys):
        const_file = tmp_path / "constants.csv"
        const_file.write_text("index,value\n1,0.5\n2,1.0\n")
        code, out, err = run(capsys, "verify", "--rate", "fdp-su", "--n", "3",
                             "--gamma", "0.1", "--input", str(const_file))
        assert (code, out) == (2, "")
        assert err == f"error: {const_file}:0: expected 3 constants, found 2\n"

    def test_verify_without_input_or_family_exits_2(self, capsys):
        code, out, err = run_to_exit(capsys, "verify", "--rate", "fdp-su", "--n", "3",
                                     "--gamma", "0.1")
        assert (code, out) == (2, "")
        assert error_message(err) == "one of the arguments --family --input is required"

    @pytest.mark.parametrize("command, message", [
        ("constants", "is pre-normalized and takes no error-rate spec"),
    ])
    @pytest.mark.parametrize("family", ["by", "gr"])
    def test_fdr_family_with_rate_exits_2(self, command, message, family, capsys):
        code, out, err = run(capsys, command, "--family", family, "--n", "5",
                             "--rate", "fdp-su", "--gamma", "0.05")
        assert (code, out) == (2, "")
        assert err == f"error: family {family!r} {message}\n"

    @pytest.mark.parametrize("family, with_rate, modified, rule", [
        ("bh", False, True, "requires an error-rate spec"),
        ("rs", False, True, "requires an error-rate spec"),
        ("by", True, False, "is pre-normalized and takes no error-rate spec"),
        ("gr", True, False, "is pre-normalized and takes no error-rate spec"),
        ("by", False, True, "has no modified variant"),
        ("gr", False, True, "has no modified variant"),
    ], ids=["bh-no-rate", "rs-no-rate", "by-rate", "gr-rate", "by-modified", "gr-modified"])
    def test_family_rule_has_one_message(self, family, with_rate, modified, rule, bh95_file,
                                         capsys):
        """ProcedureSpec, family_constants, adjust and constants report a
        broken family rule in the same words."""
        n = len(BH95_PVALUES)
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SU, n, gamma=0.05) if with_rate else None
        messages = {}
        for name, build in [
            ("ProcedureSpec", lambda: procedures.ProcedureSpec(family=family, n=n, alpha=0.05,
                                                               rate=spec, modified=modified)),
            ("family_constants", lambda: procedures.family_constants(family, n, spec,
                                                                     modified=modified)),
        ]:
            with pytest.raises(ValueError) as exc:
                build()
            messages[name] = str(exc.value)
        flags = ((["--rate", "fdp-su", "--gamma", "0.05"] if with_rate else [])
                 + (["--modified"] if modified else []))
        for command, argv in [("adjust", ["--input", str(bh95_file), "--alpha", "0.05"]),
                              ("constants", ["--n", str(n)])]:
            code, out, err = run(capsys, command, "--family", family, *argv, *flags)
            assert (code, out) == (2, "")
            messages[command] = error_message(err)
        assert messages == dict.fromkeys(messages, f"family {family!r} {rule}")

    @pytest.mark.parametrize("family", ["by", "gr"])
    def test_optimize_fdr_family_exits_2(self, family, capsys):
        code, out, err = run_to_exit(capsys, "optimize", "--family", family, "--n", "5",
                                     "--rate", "fdp-su", "--gamma", "0.05")
        assert (code, out) == (2, "")
        assert error_message(err).startswith(
            f"argument --family: invalid choice: {family!r} (choose from ")

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


RATES = "{kfwer-su,kfwer-sd,fdp-su,fdp-sd}"

# Per command: the flags its usage shows unbracketed, and some it brackets.
CONTRACTS = {
    "matrix": (["--n N", f"--rate {RATES}"], ["[--k K]", "[--gamma GAMMA]"]),
    "constants": (["--n N", "--family {bh,rs,by,gr}"], [f"[--rate {RATES}]", "[--alpha ALPHA]"]),
    "optimize": (["--n N", f"--rate {RATES}", "--family {bh,rs}"], ["[--weights WEIGHTS]"]),
    "verify": (["--n N", f"--rate {RATES}", "(--family {bh,rs,by,gr} | --input INPUT)"],
               ["[--modified]"]),
    "adjust": (["--family {bh,rs,by,gr}", "--alpha ALPHA", "--input INPUT"],
               ["[--n N]", f"[--rate {RATES}]", "[--modified]"]),
    "simulate": (["--n N"], ["[--alpha ALPHA]", "[--reps REPS]"]),
}


class TestParserContract:
    """Each command's usage states its contract: required flags unbracketed,
    the families it accepts, and verify's choice of --family or --input."""

    @pytest.mark.parametrize("command", CONTRACTS)
    def test_usage_brackets_only_optional_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        usage = capsys.readouterr().out.partition("\n\n")[0]
        usage = " ".join(usage.split())  # argparse wraps long usages
        assert exc.value.code == 0
        required, optional = CONTRACTS[command]
        for flag in required:
            assert flag in usage and f"[{flag}" not in usage, flag
        for flag in optional:
            assert flag in usage, flag

    def test_missing_flags_are_named_in_one_message(self, capsys):
        code, out, err = run_to_exit(capsys, "optimize")
        assert (code, out) == (2, "")
        assert error_message(err) == "the following arguments are required: --n, --rate, --family"

    def test_every_flag_has_help(self):
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        missing = [(name, action.option_strings[0]) for name, parser in commands.items()
                   for action in parser._actions if not action.help]
        assert missing == []


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
        monkeypatch.setattr(matrices.ErrorRateSpec, "entries", property(never_read))
        argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        if argv[0] == "adjust":
            argv += ["--input", str(bh95_file)]
        cold = run(capsys, *argv)
        assert cold[0] == 0 and cold[2] == ""
        monkeypatch.setattr(matrices.ErrorRateSpec, "rows", property(never_read))
        patch_matrix_builds(monkeypatch, never_build)
        assert run(capsys, *argv) == cold


class TestMatrixExport:
    """The ``matrix`` writers print A from its sparse rows, one row at a
    time, and never read the dense entries."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rate, param", [
        ("fdp-su", ["--gamma", "0.1"]), ("fdp-sd", ["--gamma", "0.2"]),
        ("kfwer-su", ["--k", "2"]), ("kfwer-sd", ["--k", "3"]),
    ], ids=["fdp-su", "fdp-sd", "kfwer-su", "kfwer-sd"])
    def test_export_reads_no_dense_view(self, rate, param, fmt, monkeypatch, capsys):
        argv = ["matrix", "--rate", rate, "--n", "12", *param, "--format", fmt]
        unpatched = run(capsys, *argv)
        assert unpatched[0] == 0 and unpatched[2] == ""
        monkeypatch.setattr(matrices.ErrorRateSpec, "entries", property(never_read))
        assert run(capsys, *argv) == unpatched


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
    ('constants', 'csv'): "629989c8fe964ff12e1810640e49ff84f36715f9561effd852d62ec0c2c15e62",
    ('constants', 'json'): "9271c04460a7d954723f988cedae7cc7289574d7a2d82f82aa02a8680c1e95a4",
    ('matrix', 'csv'): "ec82d0d203df770330d52060eaaa60d029ad3cca08556f340294b7106bba721a",
    ('matrix', 'json'): "e399e885374405c872aa3fb0a281407e4c05d903a793a77e572b6ed0c9f87769",
    ('optimize', 'csv'): "b34d71c27c9e0e55f938d8756256bf3c222da329acc6fb71b54093b51b989faf",
    ('optimize', 'json'): "9ca3e6251b127a197308103bb47e63472a9f407b25f14850511dc55e324867c4",
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


def dumped(payload):
    return json.dumps(payload, indent=2) + "\n"


finite = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0)
labels = st.one_of(st.sampled_from(['"', 'a"b', "\\", "ü", "€\"x", "\n", ""]),
                   st.text(max_size=6))
constant_vectors = st.lists(finite, min_size=1, max_size=12).map(
    lambda values: CriticalVector(np.sort(values)))
# adjusted p-values from a small pool repeat, as the clipped 1.0 does; -0.0 == 0.0,
# but the two print apart
adjusted_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 0.30000000000000004, 0.5, 1.0]), unit)


def decision_rows(draw_rejected):
    """Hypothesis rows (label, p-value, adjusted p-value, rejected)."""
    return st.lists(st.tuples(labels, adjusted_values, adjusted_values, draw_rejected),
                    min_size=1, max_size=12)


def decision_inputs(rows, labelled):
    p = procedures.PValueVector(np.array([r[1] for r in rows]),
                                labels=tuple(r[0] for r in rows) if labelled else None)
    decision = procedures.DecisionSet(frozenset(
        i for i, r in enumerate(rows, start=1) if r[3]))
    return p, decision, np.array([r[2] for r in rows])


class TestDecisionsCsv:
    """``decisions_csv`` formats whole columns; it must print what one row at
    a time through ``fileio._fmt`` prints."""

    @pytest.mark.parametrize("rejected", [st.booleans(), st.just(False), st.just(True)],
                             ids=["drawn", "none", "all"])
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @given(data=st.data(), header=labels)
    @settings(max_examples=60, deadline=None)
    def test_matches_row_at_a_time(self, rejected, labelled, data, header):
        p, decision, adjusted = decision_inputs(data.draw(decision_rows(rejected)), labelled)
        names = p.labels if labelled else [str(i) for i in range(1, p.n + 1)]
        expected = [f"# procedure: {header}", f"# rejections: {decision.n_rejected}",
                    "index,label,pvalue,adjusted_pvalue,rejected"]
        expected += [f"{i},{label},{fileio._fmt(v)},{fileio._fmt(a)},{int(i in decision.rejected)}"
                     for i, (label, v, a) in enumerate(zip(names, p.values, adjusted), start=1)]
        assert fileio.decisions_csv(p, decision, adjusted, header) == "\n".join(expected) + "\n"


class TestJsonWriters:
    """The JSON writers lay floats and objects out by hand; each must print
    exactly what ``json.dumps(payload, indent=2)`` prints."""

    @given(rate=st.sampled_from(list(matrices.Rate)), n=st.integers(1, 9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matrix(self, rate, n, data):
        param = ({"gamma": data.draw(st.sampled_from([0.0, 0.05, 0.25]))} if rate.is_fdp
                 else {"k": data.draw(st.integers(1, n))})
        spec = matrices.ErrorRateSpec(rate, n, **param)
        entries = matrices.associated_matrix(spec).entries
        payload = {"spec": {"rate": rate.value, "n": n, **param},
                   "entries": [[float(x) for x in row] for row in entries]}
        assert fileio.matrix_json(matrices.associated_matrix(spec)) == dumped(payload)

    @given(c=constant_vectors, params=st.dictionaries(
        st.sampled_from(["n", "gamma", "k", "divisor", "stage", "scale"]),
        st.one_of(st.integers(0, 10**6), st.floats(), labels), max_size=4))
    def test_constants(self, c, params):
        c = CriticalVector(c.values, Family.BH, params)
        payload = {"family": "bh", "params": dict(params),
                   "values": [float(v) for v in c.values]}
        assert fileio.constants_json(c) == dumped(payload)

    @given(floor=constant_vectors, data=st.data(),
           diagnostics=st.lists(st.one_of(finite, st.just(float("nan"))), min_size=4,
                                max_size=4))
    def test_solution(self, floor, data, diagnostics):
        n = floor.n
        xi = CriticalVector(np.sort(data.draw(st.lists(finite, min_size=n, max_size=n))))
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SU, n, gamma=0.05)
        problem = lp.LPProblem(spec, floor, np.ones(n), np.zeros(n))
        f_xi, f_floor, m1, m2 = diagnostics
        solution = lp.LPSolution(xi, f_xi, f_floor, m1, m2, 0)
        payload = {
            "spec": {"rate": "fdp-su", "n": n, "gamma": 0.05},
            "floor_family": floor.family.value,
            "solver": lp.SOLVER_VERSION,
            "status": "optimal",
            "F_floor": f_floor,
            "F_xi": f_xi,
            "M1": None if np.isnan(m1) else m1,
            "M2": None if np.isnan(m2) else m2,
            "floor": [float(v) for v in floor.values],
            "xi": [float(v) for v in xi.values],
        }
        assert fileio.solution_json(problem, solution) == dumped(payload)

    @given(rows=decision_rows(st.booleans()), labelled=st.booleans(), header=labels)
    def test_decisions(self, rows, labelled, header):
        p, decision, adjusted = decision_inputs(rows, labelled)
        names = p.labels if labelled else [str(i) for i in range(1, p.n + 1)]
        payload = {
            "procedure": header,
            "rejections": decision.n_rejected,
            "hypotheses": [{"index": i, "label": label, "pvalue": float(value),
                            "adjusted_pvalue": float(adj), "rejected": i in decision.rejected}
                           for i, (label, value, adj) in enumerate(
                               zip(names, p.values, adjusted), start=1)],
        }
        assert fileio.decisions_json(p, decision, adjusted, header) == dumped(payload)


class TestNumpyScalars:
    """Specs, families and studies store plain Python numbers, so numpy
    scalar inputs print the bytes of the plain ones and key the same cache
    entry."""

    def test_spec_and_family_writers(self):
        Rate, spec = matrices.Rate, matrices.ErrorRateSpec
        assert (fileio.constants_json(constants.bh_constants(np.int64(5)))
                == fileio.constants_json(constants.bh_constants(5)))
        for make in (constants.bh_constants, constants.by_constants, constants.gr_sd_constants):
            assert (fileio.constants_csv(make(np.int64(5)).scaled(np.float64(0.5)))
                    == fileio.constants_csv(make(5).scaled(0.5)))
        for rate, numpy_param, param in [(Rate.FDP_SU, {"gamma": np.float64(0.05)},
                                          {"gamma": 0.05}),
                                         (Rate.KFWER_SD, {"k": np.int64(2)}, {"k": 2})]:
            numpy_spec, plain = spec(rate, np.int64(5), **numpy_param), spec(rate, 5, **param)
            assert fileio.matrix_json(numpy_spec) == fileio.matrix_json(plain)
            assert (fileio.constants_csv(procedures.family_constants("rs", 5, numpy_spec))
                    == fileio.constants_csv(procedures.family_constants("rs", 5, plain)))
            floor = procedures.family_constants("bh", 5, plain)
            numpy_problem = lp.build_problem(numpy_spec, floor)
            problem = lp.build_problem(plain, floor)
            assert (fileio.solution_csv(numpy_problem, lp.solve(numpy_problem))
                    == fileio.solution_csv(problem, lp.solve(problem)))
        # an integer gamma is stored, and printed, as the float the CLI parses
        assert fileio.matrix_csv(spec(Rate.FDP_SU, 2, gamma=0)).startswith(
            "# spec: rate=fdp-su n=2 gamma=0.0\n")

    def test_study_writers(self, tmp_path):
        numpy_config = simulation.SimConfig(
            n=np.int64(4), true_counts=(np.int32(0), np.int64(2)), effects=(np.float64(1.0), 3),
            rho=np.float64(0.5), reps=np.int64(20), alpha=np.float64(0.5),
            gamma=np.float64(0.05), fdr_level=np.float64(0.05), seed=np.uint64(3))
        config = simulation.SimConfig(n=4, true_counts=(0, 2), effects=(1.0, 3.0), reps=20,
                                      seed=3)
        outputs = []
        for c, trace in ((numpy_config, tmp_path / "numpy.csv"),
                         (config, tmp_path / "plain.csv")):
            report = simulation.run_study(c, threads=1, trace=trace)
            outputs.append((fileio.report_json(report), fileio.report_csv(report),
                            trace.read_text()))
        assert outputs[0] == outputs[1]

    def test_library_solve_reads_the_cli_entry(self, tmp_path, capsys):
        code, _, _ = run(capsys, "constants", "--rate", "fdp-sd", "--n", "20", "--gamma", "0.05",
                         "--family", "bh", "--modified", "--cache-dir", str(tmp_path))
        spec = matrices.ErrorRateSpec(matrices.Rate.FDP_SD, np.int64(20), gamma=np.float64(0.05))
        procedures.family_constants("bh", np.int64(20), spec, modified=True, cache_dir=tmp_path)
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 1


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
