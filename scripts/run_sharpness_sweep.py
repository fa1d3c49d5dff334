#!/usr/bin/env python3
"""Trace the linear growth of the squared operator norm against the A2
characteristic for the scalar power family.

Writes one CSV per run; the footer carries the fitted log-log slope. With the
default grid the squared-norm slope sits near 1 because of the t >= 1/3
records, where normsq/A2 -> 1: it shows that the linear A2 bound holds, not
that it is attained. Each record's mixed-bound ratio is a lower estimate of the
mixed-estimate constant at that weight. For t >= 1/3 the inverse weight has no
continuum limit and the ratio falls with the depth N like 1/sqrt(N/2 + 1): at
N = 6 to 18 it is 1.45, 1.045 and 1.000 times that at t = 0.5, 0.7 and 0.9,
while at t = 0.4 the factor is still rising (1.83 to 2.33).
"""

import argparse
import math
import sys

from matw.sweep import ExperimentConfig, emit_csv, run_sweep


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--family", default="scalar_power")
    p.add_argument("--grid", type=float, nargs="+",
                   default=[round(0.1 * k, 1) for k in range(1, 10)])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--out", default="sharpness_sweep.csv")
    return p.parse_args()


def main():
    args = parse_args()
    cfg = ExperimentConfig(
        family_kind=args.family, dim=args.dim, depth=args.depth,
        grid=tuple(args.grid), seeds=tuple(args.seeds),
        n_directions=max(2 * args.dim, 8), power_rel_tol=args.rel_tol)
    records, meta = run_sweep(cfg)
    emit_csv(records, args.out, meta)

    print(f"{'t':>5} {'a2':>12} {'ainf(w^-1)':>11} {'normsq_est':>12} "
          f"{'ratio_mixed':>11} {'iters':>5}")
    for rec in records:
        if rec.error:
            print(f"{rec.t:>5} ERROR {rec.error}")
            continue
        print(f"{rec.t:>5} {rec.a2:>12.4e} {rec.ainf_winv_sampled:>11.4f} "
              f"{rec.sw_normsq_est:>12.4e} {rec.ratio_mixed_bound:>11.4f} "
              f"{rec.power_iters:>5}")
    print()
    for key in ("loglog_slope_normsq_vs_a2", "loglog_slope_norm_vs_a2",
                "max_ratio_mixed_bound", "min_ratio_mixed_bound", "max_ainf_over_a2"):
        print(f"{key} = {meta[key]}")
    print(f"csv written to {args.out}")

    bad = [r for r in records if r.error or not r.domination_ok]
    if bad:
        return 1
    slope = meta["loglog_slope_normsq_vs_a2"]
    if slope != "undefined" and not math.isfinite(float(slope)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
