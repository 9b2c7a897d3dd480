"""``cli.main`` over its grammar: a valid command line of each kind, changed in
one thing, exits 0 or 2 and never raises anything but argparse's usage exit.

Each example takes one of the valid command lines in ``BASES`` (n <= 12,
``--reps`` <= 50) and changes a flag's value, adds a flag, drops a flag or
rewrites the command's input file. The value pools hold only small numbers
or numbers no array can be allocated for, so no example runs for long.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from mtbounds.cli import main

HUGE = "99999999999999999999"  # beyond int64: numpy refuses an array of this length

# one valid command line per command; {name} is a file or directory of the example
BASES = (
    ("matrix", "--rate", "fdp-su", "--n", "6", "--gamma", "0.1"),
    ("constants", "--family", "rs", "--n", "8", "--rate", "kfwer-sd", "--k", "2"),
    ("constants", "--family", "bh", "--n", "6", "--rate", "fdp-sd", "--gamma", "0.05",
     "--modified", "--format", "json"),
    ("optimize", "--rate", "fdp-sd", "--family", "bh", "--n", "10", "--gamma", "0.05",
     "--weights", "{weights}"),
    ("verify", "--rate", "fdp-su", "--n", "5", "--gamma", "0.05", "--input", "{constants}"),
    ("verify", "--rate", "kfwer-su", "--k", "2", "--n", "12", "--family", "gr"),
    ("adjust", "--input", "{pvalues}", "--family", "bh", "--alpha", "0.5", "--rate", "fdp-su",
     "--gamma", "0.05", "--format", "json"),
    ("adjust", "--input", "{pvalues}", "--family", "by", "--alpha", "0.1",
     "--output", "{out}"),
    ("simulate", "--n", "4", "--reps", "20", "--threads", "1", "--d", "1",
     "--true-counts", "0,2", "--cache-dir", "{cache}"),
    ("simulate", "--n", "12", "--reps", "50", "--seed", "3", "--format", "json",
     "--trace", "{trace}"),
)

FILES = {
    "pvalues": "0.001\n0.02\n0.04\n0.3\n0.9\n0.5\n",
    "constants": "index,value\n1,0.01\n2,0.02\n3,0.03\n4,0.04\n5,0.05\n",
    "weights": "1\n" * 10,
}

# every flag of the grammar with its value pool; None marks a flag without a value
VALUES = {
    "--n": ("0", "1", "3", "12", "-2", "2.5", "x", HUGE),
    "--rate": ("fdp-su", "fdp-sd", "kfwer-su", "kfwer-sd", "fdr-su"),
    "--k": ("0", "1", "2", "12", "13", "-1", HUGE),
    "--gamma": ("0", "0.05", "0.5", "1", "-0.1", "1e-300", "nan", "inf"),
    "--family": ("bh", "rs", "by", "gr", "lr"),
    "--alpha": ("0.05", "0.5", "0", "1", "-1", "nan", "inf"),
    "--format": ("csv", "json", "xml"),
    "--output": ("{out}", "{missing}/out.txt", "{dir}"),
    "--cache-dir": ("{cache}", "{pvalues}"),
    "--input": ("{pvalues}", "{constants}", "{weights}", "{missing}/in.txt", "{dir}"),
    "--weights": ("{weights}", "{pvalues}", "{missing}/weights.txt"),
    "--modified": None,
    "--d": ("0", "1", "-2.5", "nan", "inf", "x"),
    "--true-counts": ("0", "0,2", "4", "13", "1,1", "-1", ",", "x", HUGE),
    "--rho": ("0", "0.5", "0.99", "1", "-0.1", "nan"),
    "--reps": ("1", "20", "50", "0", "-5", "x", HUGE),
    "--seed": ("0", "7", "-1", "18446744073709551615", "18446744073709551616", "x"),
    "--fdr-level": ("0.05", "0", "1", "nan"),
    "--threads": ("1", "2", "0", "-1", "1.5", "x"),  # never many threads
    "--trace": ("{trace}", "{missing}/trace.csv"),
}

# an inserted line, or a rewrite of the whole file
REWRITES = ("nan", "inf", "-inf", "", "   ", "# a comment", "bom", "\r", "\r\n", "labels",
            "no final end", "empty")


def rewrite(text: str, kind: str, at: int) -> str:
    lines = text.splitlines()
    if kind == "bom":
        return "\ufeff" + text
    if kind in ("\r", "\r\n"):
        return kind.join(lines) + kind
    if kind == "labels":
        return "".join(f"h{i},{line}\n" for i, line in enumerate(lines, start=1))
    if kind == "no final end":
        return text.rstrip("\n")
    if kind == "empty":
        return ""
    lines.insert(at % (len(lines) + 1), kind)
    return "\n".join(lines) + "\n"


@st.composite
def changed_command_lines(draw):
    """A base command line changed in one thing, and the rewrite of one of its
    files (name, kind, line) or None."""
    argv = list(draw(st.sampled_from(BASES)))
    files = [tok[1:-1] for tok in argv if tok[1:-1] in FILES]
    change = draw(st.sampled_from(("value", "add", "drop", "file") if files
                                  else ("value", "add", "drop")))
    if change == "file":
        return argv, (draw(st.sampled_from(files)), draw(st.sampled_from(REWRITES)),
                      draw(st.integers(0, 12)))
    if change == "add":
        flag = draw(st.sampled_from(sorted(VALUES)))
        return argv + [flag] + ([] if VALUES[flag] is None
                                else [draw(st.sampled_from(VALUES[flag]))]), None
    with_value = [i for i, tok in enumerate(argv) if VALUES.get(tok)]
    if change == "value":
        i = draw(st.sampled_from(with_value))
        argv[i + 1] = draw(st.sampled_from(VALUES[argv[i]]))
        return argv, None
    # drop a flag with its value; --reps stays, as the default runs 20,000
    i = draw(st.sampled_from([i for i, tok in enumerate(argv)
                              if tok.startswith("--") and tok != "--reps"]))
    return argv[:i] + argv[i + 1 + (i in with_value):], None


def parses(text: str, fmt: str) -> bool:
    """JSON loads; a CSV's lines other than # comments split into rows of one
    length (verify's two lines are one-field rows)."""
    if fmt == "json":
        json.loads(text)
        return True
    rows = [row for row in csv.reader(text.splitlines()) if row and not row[0].startswith("#")]
    return bool(rows) and len({len(row) for row in rows}) == 1


@settings(max_examples=150)
@given(case=changed_command_lines())
def test_main_exits_0_or_2(case):
    """Never a traceback: ``main`` returns 0 or 2, or argparse exits 2. A
    non-zero exit writes nothing to stdout and ends stderr with an error; a
    zero exit's output parses in its ``--format``."""
    argv, file_rewrite = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"dir": root, "missing": root / "missing", "cache": root / "cache",
                 "out": root / "out.txt", "trace": root / "trace.csv"}
        for name, text in FILES.items():
            if file_rewrite and file_rewrite[0] == name:
                text = rewrite(text, *file_rewrite[1:])
            paths[name] = root / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8", newline="")
        argv = [tok.format(**paths) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, (argv, err.getvalue())
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        event(f"{argv[0]} exits {code}")  # shown by pytest --hypothesis-show-statistics
        if code:
            assert out.getvalue() == "", argv
            assert "error: " in err.getvalue().splitlines()[-1], (argv, err.getvalue())
            return
        flags = dict(zip(argv, argv[1:]))  # argparse keeps a repeated flag's last value
        text = out.getvalue()
        if "--output" in flags:
            assert text == "", argv
            text = Path(flags["--output"]).read_text(encoding="utf-8")
        assert parses(text, flags.get("--format", "csv")), (argv, text)
