#!/usr/bin/env python3
"""Run the equicorrelated-Gaussian power study and write one CSV per n.

Every study setting defaults to ``SimConfig``'s (rho = 1/2, effects
{0.1, 1, 3}, 20000 replications, median-FDP control of the 0.05-exceedance
at level 0.5 against the two FDR procedures at level 0.05); only the flags
given override it.

Example:
    python scripts/power_study.py --n 10 50 --reps 20000 --out-dir results/
"""

import argparse
import dataclasses
from pathlib import Path

from mtbounds import SimConfig, run_study
from mtbounds.fileio import report_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[10, 50, 100, 500])
    parser.add_argument("--d", dest="effects", type=float, nargs="+",
                        help="effect sizes (default "
                             f"{' '.join(f'{d:g}' for d in SimConfig.effects)})")
    parser.add_argument("--true-counts", type=int, nargs="*",
                        help="grid of true-null counts (default: quarter points)")
    parser.add_argument("--rho", type=float, help=f"equicorrelation (default {SimConfig.rho})")
    parser.add_argument("--reps", type=int, help=f"replications (default {SimConfig.reps})")
    parser.add_argument("--seed", type=int, help=f"(default {SimConfig.seed})")
    parser.add_argument("--gamma", type=float,
                        help=f"FDP exceedance threshold (default {SimConfig.gamma})")
    parser.add_argument("--alpha", type=float,
                        help=f"FDP procedures' level (default {SimConfig.alpha})")
    parser.add_argument("--fdr-level", type=float,
                        help=f"FDR procedures' level (default {SimConfig.fdr_level})")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--cache-dir", default=None,
                        help="reuse LP solutions across runs")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    # SimConfig holds every default: pass only the flags that were given
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SimConfig)
             if f.name != "n"}
    settings = {name: tuple(value) if isinstance(value, list) else value
                for name, value in given.items() if value is not None}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in args.n:
        report = run_study(SimConfig(n=n, **settings), threads=args.threads,
                           cache_dir=args.cache_dir)
        path = out_dir / f"power_n{n}.csv"
        path.write_text(report_csv(report), encoding="utf-8")
        best = max((c for c in report.cells if c.avg_power == c.avg_power),
                   key=lambda c: c.avg_power, default=None)
        print(f"n={n}: wrote {path} ({len(report.cells)} cells)"
              + (f", top power {best.avg_power:.3f} [{best.procedure}]" if best else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
