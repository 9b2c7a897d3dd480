#!/usr/bin/env python3
"""Compare rescaled and LP-improved critical constants across problem sizes.

Prints, for each n and each of the four tail-FDP procedure families
(BH/RS x step-up/step-down), the objective of the rescaled floor, the
objective of the improved constants, and the maximum improvement ratios.

Example:
    python scripts/constants_comparison.py --n 10 25 50 100 --gamma 0.05
"""

import argparse

from mtbounds import ErrorRateSpec, Rate, build_problem, family_constants, solve


def comparison_row(n, gamma, family, direction):
    spec = ErrorRateSpec(Rate(f"fdp-{direction}"), n, gamma=gamma)
    floor = family_constants(family, n, spec)
    solution = solve(build_problem(spec, floor))
    return solution.floor_objective, solution.objective, solution.m1, solution.m2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[10, 25, 50, 100])
    parser.add_argument("--gamma", type=float, default=0.05)
    args = parser.parse_args()

    combos = [("bh", "su"), ("rs", "su"), ("bh", "sd"), ("rs", "sd")]
    header = "".join(f"  {f.upper()}-{d.upper():<3} F(c)   F(xi)    M1     M2  |"
                     for f, d in combos)
    print(f"gamma = {args.gamma}")
    print(f"{'n':>5} |{header}")
    for n in args.n:
        cells = []
        for family, direction in combos:
            f_c, f_xi, m1, m2 = comparison_row(n, args.gamma, family, direction)
            cells.append(f" {f_c:8.2f} {f_xi:8.2f} {m1:6.2f} {m2:6.2f} |")
        print(f"{n:>5} |" + "".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
