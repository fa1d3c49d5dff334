#!/usr/bin/env python3
"""Certify the stopping-time construction on a randomized instance batch.

Every instance gets the full treatment: family construction, sparseness,
domination, the trace-argument chain for norm-triggered mass, the weak-type
containment for sum-triggered mass, and maximality of the stopping intervals.
Certificates are optionally written one JSON per instance; the run summary
aggregates the tightest margins seen.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from matw.dyadic import GridVector
from matw.sparse import certify, default_stopping_config, recheck_certificate
from matw.weights import FAMILY_KINDS, WeightFamilySpec, generate_weight


def make_instance(index, max_depth, master_seed):
    rng = np.random.default_rng(master_seed + 7919 * index)
    kind = FAMILY_KINDS[index % len(FAMILY_KINDS)]
    depth = int(rng.integers(1, max_depth + 1))
    dim = 2 if kind == "rotating" else int(rng.integers(1, 5))
    t_ranges = {"identity": 0.0, "scalar_power": 0.85 if dim == 1 else 0.55,
                "block_scalar": 0.5, "rotating": 2.0, "random_log_pd": 2.0}
    t = float(rng.uniform(0, t_ranges[kind]))
    weight = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t,
                                              seed=int(rng.integers(2**31))))
    vals = rng.standard_normal(((1 << depth), dim))
    if rng.integers(0, 3) == 0:
        vals[rng.integers(0, 1 << depth)] *= float(rng.uniform(20, 200))
    return weight, GridVector(depth, dim, vals)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certdir", default=None,
                   help="directory for per-instance certificate JSON files")
    p.add_argument("--recheck", action="store_true",
                   help="recheck each certificate by certifying its instance again with "
                        "the same code (not independent; see the exact recheck on ROADMAP)")
    args = p.parse_args()

    outdir = None
    if args.certdir:
        outdir = pathlib.Path(args.certdir)
        outdir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    failures = []
    min_e_ratio = 1.0
    max_weak_quotient = 0.0
    min_domination_margin = float("inf")
    nontrivial = 0
    for index in range(args.count):
        weight, f = make_instance(index, args.max_depth, args.seed)
        cert = certify(weight, f, default_stopping_config(weight.dim))
        if not cert["ok"]:
            failures.append(index)
        if args.recheck and not recheck_certificate(cert, weight, f)["ok"]:
            failures.append(index)
        if len(cert["family"]["nodes"]) > 1:
            nontrivial += 1
        min_e_ratio = min(min_e_ratio, cert["sparseness"]["min_ratio"])
        max_weak_quotient = max(max_weak_quotient, cert["type2_weak"]["max_weak_quotient"])
        dom = cert["domination"]
        if dom["lhs"] > 0:
            min_domination_margin = min(min_domination_margin, dom["rhs"] / dom["lhs"])
        if outdir is not None:
            path = outdir / f"certificate_{index:05d}.json"
            path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
    elapsed = time.perf_counter() - start

    print(f"instances            {args.count}")
    print(f"nontrivial families  {nontrivial}")
    print(f"failures             {failures if failures else 'none'}")
    print(f"min E-ratio          {min_e_ratio:.4f}")
    print(f"max weak quotient    {max_weak_quotient:.4f}")
    print(f"min rhs/lhs margin   {min_domination_margin:.4f}")
    print(f"elapsed              {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
