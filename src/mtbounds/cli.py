"""Command-line interface.

Subcommands: matrix (export a bound matrix), constants (emit a constant
family, raw/rescaled/modified), optimize (solve the improvement program),
verify (feasibility check), adjust (apply a procedure to a p-value file),
simulate (power study). Exit codes: 0 success, 2 usage or input error,
3 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import fileio, lp
from .constants import bh_constants, rs_constants
from .matrices import ErrorRateSpec, Rate, associated_matrix, bound_vector
from .procedures import (FAMILIES, FDR_FAMILIES, ProcedureSpec, _check_alpha, _check_family,
                         family_constants, run_procedure)
from .simulation import SimConfig, run_study

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _rate_spec(args) -> ErrorRateSpec:
    return ErrorRateSpec(Rate(args.rate), args.n, k=args.k, gamma=args.gamma)


def _write(args, kind: str, *data) -> int:
    """Write ``data`` with fileio's ``<kind>_csv`` or ``<kind>_json`` writer,
    as ``--format`` asks, to ``--output`` or stdout."""
    fileio.write_text(getattr(fileio, f"{kind}_{args.format}")(*data), args.output)
    return 0


def cmd_matrix(args) -> int:
    # through the one call that perfbench counts and the tests can make fail
    return _write(args, "matrix", associated_matrix(_rate_spec(args)))


def cmd_constants(args) -> int:
    if args.alpha is not None:
        _check_alpha(args.alpha)
    family, n = args.family, args.n
    if args.rate:
        spec = _rate_spec(args)
        if family in FDR_FAMILIES:
            raise ValueError(f"family {family!r} is pre-normalized and takes no --rate")
        c = family_constants(family, n, spec, modified=args.modified, cache_dir=args.cache_dir)
    else:  # the raw family; raw rs reads --gamma
        _check_family(family, args.modified)
        if args.gamma is not None and family != "rs":
            raise ValueError(f"gamma is read only by family 'rs' without an error-rate spec, "
                             f"got family {family!r}")
        if family in FDR_FAMILIES:
            c = family_constants(family, n)
        elif args.modified:
            raise ValueError("modified constants need an error-rate matrix")
        elif family == "bh":
            c = bh_constants(n)
        elif args.gamma is None:
            raise ValueError("family 'rs' needs gamma or an error-rate matrix")
        else:  # the threshold reads gamma alone, so either fdp direction serves
            c = rs_constants(ErrorRateSpec(Rate.FDP_SU, n, gamma=args.gamma))
    return _write(args, "constants", c if args.alpha is None else c.scaled(args.alpha))


def cmd_optimize(args) -> int:
    spec = _rate_spec(args)
    floor = family_constants(args.family, args.n, spec)
    weights = fileio.read_weights(args.weights, args.n) if args.weights else None
    problem = lp.build_problem(spec, floor, weights=weights)
    return _write(args, "solution", problem, lp.solve_cached(problem, args.cache_dir))


def cmd_verify(args) -> int:
    spec = _rate_spec(args)
    if args.input:  # argparse keeps --family out
        if args.modified:
            raise ValueError("--input does not take --modified")
        c = fileio.read_constants(args.input, args.n)
    else:
        c = family_constants(args.family, args.n, spec,
                             modified=args.modified, cache_dir=args.cache_dir)
    worst = float(np.max(bound_vector(spec, c)))
    return _write(args, "verify", worst, worst <= 1.0 + lp.FEASIBILITY_TOL)


def cmd_adjust(args) -> int:
    p = fileio.read_pvalues(args.input)
    if args.n is None:
        args.n = p.n
    spec = ProcedureSpec(family=args.family, n=args.n, alpha=args.alpha,
                         rate=_rate_spec(args) if args.rate else None, modified=args.modified)
    decision, adjusted = run_procedure(p, spec, cache_dir=args.cache_dir)
    return _write(args, "decisions", p, decision, adjusted,
                  f"{spec.name} alpha={spec.alpha!r} n={spec.n}")


def cmd_simulate(args) -> int:
    # SimConfig holds every default: pass only the flags that were given
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)}
    config = SimConfig(**{name: tuple(value) if isinstance(value, list) else value
                          for name, value in given.items() if value is not None})
    return _write(args, "report", run_study(config, threads=args.threads,
                                            cache_dir=args.cache_dir, trace=args.trace))


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtbounds",
        description="Critical-constant bounds and procedures for multiple testing "
                    "under arbitrary p-value dependence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, needs: tuple[str, ...] = ("n",),
               rate: bool = False, family: tuple[str, ...] = (), alpha: bool = False,
               cache: bool = False) -> None:
        """Add the shared flags; those named in ``needs`` are required, and
        ``family`` lists the families the command accepts."""
        def flag(name: str, **kwargs) -> None:
            p.add_argument(f"--{name}", required=name in needs, **kwargs)

        p.set_defaults(usage_error=p.error)  # main reports its rate rules in this usage
        flag("n", type=int, help="number of hypotheses")
        if rate:
            flag("rate", choices=[r.value for r in Rate], help="error rate and stepping direction")
            p.add_argument("--k", type=int, help="k for kFWER rates")
            p.add_argument("--gamma", type=float, help="gamma for FDP rates")
        if family:
            flag("family", choices=family, help="constant family")
        if alpha:
            flag("alpha", type=float, help="significance level multiplier")
        if cache:
            p.add_argument("--cache-dir", help="directory for cached solver output")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output format (default: csv)")

    p = sub.add_parser("matrix", help="export a bound matrix")
    common(p, needs=("n", "rate"), rate=True)

    p = sub.add_parser("constants", help="emit a constant family (raw, rescaled or modified)")
    common(p, needs=("n", "family"), rate=True, family=FAMILIES, alpha=True, cache=True)
    p.add_argument("--modified", action="store_true", help="apply the LP improvement")

    p = sub.add_parser("optimize", help="solve the constant-improvement program")
    common(p, needs=("n", "rate", "family"), rate=True, cache=True,
           family=tuple(f for f in FAMILIES if f not in FDR_FAMILIES))
    p.add_argument("--weights", help="file with one row weight per line")

    p = sub.add_parser("verify", help="check feasibility of constants against a matrix")
    common(p, needs=("n", "rate"), rate=True, cache=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=FAMILIES, help="constant family")
    source.add_argument("--input", help="constants file to verify (csv or json)")
    p.add_argument("--modified", action="store_true", help="apply the LP improvement")

    p = sub.add_parser("adjust", help="apply a procedure to a p-value file")
    common(p, needs=("family", "alpha"), rate=True, family=FAMILIES, alpha=True, cache=True)
    p.add_argument("--modified", action="store_true", help="apply the LP improvement")
    p.add_argument("--input", required=True, help="p-value file (one per line, or label,value)")

    p = sub.add_parser("simulate", help="run the Monte Carlo power study")
    common(p, alpha=True, cache=True)
    p.add_argument("--gamma", type=float,
                   help=f"FDP exceedance threshold (default {SimConfig.gamma})")
    p.add_argument("--d", dest="effects", metavar="D", type=float, action="append",
                   help="effect size; repeat for a grid (default "
                        f"{' '.join(f'{d:g}' for d in SimConfig.effects)})")
    p.add_argument("--true-counts", type=_int_list,
                   help="comma-separated grid of true-null counts")
    p.add_argument("--rho", type=float, help=f"equicorrelation (default {SimConfig.rho})")
    p.add_argument("--reps", type=int,
                   help=f"Monte Carlo replications per cell (default {SimConfig.reps})")
    p.add_argument("--seed", type=int,
                   help=f"Philox key, in [0, 2**64) (default {SimConfig.seed})")
    p.add_argument("--fdr-level", type=float,
                   help=f"level of the by and gr FDR procedures (default {SimConfig.fdr_level})")
    p.add_argument("--threads", type=int, help="worker threads (default: all cores)")
    p.add_argument("--trace", help="append per-replication rejection counts to this file")
    return parser


_parser = functools.cache(build_parser)  # argparse gives each call a fresh namespace


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if vars(args).get("rate", "") is None:  # constants or adjust run without --rate
        if args.k is not None:
            args.usage_error("--k requires --rate")
        if args.gamma is not None and args.command != "constants":  # raw rs reads it
            args.usage_error("--gamma requires --rate")
    try:  # cmd_* is looked up per call, so a rebound function is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except lp.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (ValueError, OSError) as exc:  # InputFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # matrix holds n*n floats, an fdp-su LP about n*n/2 nonzeros
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
