#!/usr/bin/env python3
"""Steps, seconds and peak memory of the operator norm, before and after LOBPCG.

For each case `family,N,d,t` it runs, each in a fresh process, once
`matw.opnorm.estimate_operator_norm` (LOBPCG) and once
`power_iteration_reference` from tests/_oracles.py, the power loop that
LOBPCG replaced, on per-level arrays. It prints one markdown table row per
case and method: steps, converged, the value, the seconds of the norm alone,
and the peak RSS of the process before the norm (weight built) and after it.
Example, from the root of a checkout:

    python scripts/norm_reach.py random_log_pd,18,2,1.0 scalar_power,20,1,0.3

Peak RSS is the process high-water mark, so the norm's own peak shows only
where it passes the weight construction's.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
METHODS = ("lobpcg", "power")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(case: str, method: str, seed: int, rel_tol: float) -> dict:
    """Build the case's weight and run one norm method on it, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from matw.opnorm import PowerIterationOptions, estimate_operator_norm
    from matw.weights import WeightFamilySpec, generate_weight
    from _oracles import power_iteration_reference

    kind, depth, dim, t = case.split(",")
    weight = generate_weight(WeightFamilySpec(kind, int(dim), int(depth), parameter=float(t),
                                              seed=seed))
    rss_weight = peak_rss_mb()
    run = estimate_operator_norm if method == "lobpcg" else power_iteration_reference
    start = time.perf_counter()
    est = run(weight, PowerIterationOptions(rel_tol=rel_tol, seed=seed))
    seconds = time.perf_counter() - start
    return {"steps": est.iters, "converged": est.converged, "value": est.value,
            "seconds": seconds, "rss_weight_mb": rss_weight, "rss_peak_mb": peak_rss_mb()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="+", help="family,N,d,t")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rel-tol", type=float, default=1e-9)
    parser.add_argument("--one", choices=METHODS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.cases[0], args.one, args.seed, args.rel_tol)))
        return 0
    print("| case | method | steps | converged | value | norm s | RSS after weight MB "
          "| peak RSS MB |")
    print("|---|---|---|---|---|---|---|---|")
    for case in args.cases:
        for method in METHODS:
            out = subprocess.run([sys.executable, __file__, case, "--one", method,
                                  "--seed", str(args.seed), "--rel-tol", repr(args.rel_tol)],
                                 check=True, capture_output=True, text=True).stdout
            r = json.loads(out.splitlines()[-1])
            print(f"| `{case}` | {method} | {r['steps']} | {r['converged']} | {r['value']!r} "
                  f"| {r['seconds']:.2f} | {r['rss_weight_mb']:.0f} | {r['rss_peak_mb']:.0f} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
