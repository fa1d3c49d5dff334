#!/usr/bin/env python3
"""Seconds, traced peak and process RSS of each stage of one sweep record.

For each case `family,N,d,t` it runs `matw.sweep.run_record` at that one
parameter twice, each in a fresh process: once timed, once under tracemalloc.
The stages are the functions that run_record calls, wrapped in the
`matw.sweep` namespace, so the record runs its own code unchanged:

  weight   generate_weight
  A2       a2_characteristic (it builds W^-1 on its first read)
  A-inf    ainfty_characteristic of W^-1
  norm     estimate_operator_norm
  energy   weighted_l2_sq and sw_norm_squared of the witness
  sparse   build_sparse_family and verify_domination

It prints one markdown table row per case and stage: the seconds of the timed
run, the traced peak of the stage above what was live when it began, and the
process's peak RSS once the stage ends, also from the timed run. The last row
of a case is the whole record, with its traced peak above what was live when
it began. Example, from the root of a checkout:

    python scripts/record_reach.py scalar_power,18,1,0.3 random_log_pd,18,4,1.0

Peak RSS is the process high-water mark, so a stage's RSS rises only where
the stage passes every stage before it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
STAGES = {"generate_weight": "weight", "a2_characteristic": "A2",
          "ainfty_characteristic": "A-inf", "estimate_operator_norm": "norm",
          "weighted_l2_sq": "energy", "sw_norm_squared": "energy",
          "build_sparse_family": "sparse", "verify_domination": "sparse"}
ORDER = ("weight", "A2", "A-inf", "norm", "energy", "sparse")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(case: str, seed: int, n_directions: int, traced: bool) -> dict:
    """Run the case's record in this process, with every stage wrapped."""
    sys.path.insert(0, str(ROOT / "src"))
    from matw import sweep

    kind, depth, dim, t = case.split(",")
    cfg = sweep.ExperimentConfig(kind, int(dim), int(depth), (float(t),), seeds=(seed,),
                                 n_directions=n_directions)
    seconds = dict.fromkeys(ORDER, 0.0)
    peak_mb = dict.fromkeys(ORDER, 0.0)
    rss_mb = dict.fromkeys(ORDER, 0.0)
    record_peak = [0]  # the traced peak of the whole record

    def wrap(name, fn):
        stage = STAGES[name]

        def run(*args, **kwargs):
            if traced:
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds[stage] += time.perf_counter() - start
            if traced:
                peak = tracemalloc.get_traced_memory()[1]
                peak_mb[stage] = max(peak_mb[stage], (peak - live) / 2**20)
                record_peak[0] = max(record_peak[0], peak)
            rss_mb[stage] = peak_rss_mb()
            return out
        return run

    for name in STAGES:
        setattr(sweep, name, wrap(name, getattr(sweep, name)))
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    rec = sweep.run_record(cfg, float(t), seed)
    total = time.perf_counter() - start
    return {"seconds": seconds, "peak_mb": peak_mb, "rss_mb": rss_mb, "total_s": total,
            "steps": rec.power_iters, "error": rec.error, "record_peak_mb": record_peak[0] / 2**20,
            "rss_peak_mb": peak_rss_mb()}


def child(case: str, args, traced: bool) -> dict:
    out = subprocess.run([sys.executable, __file__, case, "--one", "1" if traced else "0",
                          "--seed", str(args.seed), "--directions", str(args.directions)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="+", help="family,N,d,t")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--directions", type=int, default=8, help="A-infinity directions")
    parser.add_argument("--one", choices=("0", "1"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.cases[0], args.seed, args.directions, args.one == "1")))
        return 0
    print("| case | stage | s | traced peak MB | peak RSS MB |")
    print("|---|---|---|---|---|")
    failed = False
    for case in args.cases:
        timed, traced = child(case, args, False), child(case, args, True)
        for stage in ORDER:
            print(f"| `{case}` | {stage} | {timed['seconds'][stage]:.2f} "
                  f"| {traced['peak_mb'][stage]:.1f} | {timed['rss_mb'][stage]:.0f} |")
        note = f" ({timed['error']})" if timed["error"] else ""
        print(f"| `{case}` | record, {timed['steps']} norm steps{note} | {timed['total_s']:.2f} "
              f"| {traced['record_peak_mb']:.1f} | {timed['rss_peak_mb']:.0f} |", flush=True)
        failed = failed or bool(timed["error"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
