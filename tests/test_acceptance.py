"""End-to-end acceptance gate: one test per documented criterion, each printing
a single PASS/FAIL line with its measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from matw.cli import main as cli_main
from matw.dyadic import GridScalar, GridVector, save_field
from matw.haar import sw_norm_squared
from matw.opnorm import PowerIterationOptions, estimate_operator_norm
from matw.sparse import (build_sparse_family, default_stopping_config,
                         verify_domination, verify_maximality, verify_sparseness)
from matw.sweep import ExperimentConfig, run_sweep
from matw.weights import (WeightFamilySpec, a2_characteristic,
                          fujii_wilson_constant, generate_weight,
                          matrix_weight_from_scalar)

from _instances import random_instance
from _oracles import (SignPattern, dense_top_generalized_eigenvalue, direct_l2_sq,
                      martingale_transform, random_grid_vector, sw_sign_enumeration,
                      unweighted_square_function_sq)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- shared suite

_SUITE_CACHE = {}


def sparse_suite():
    """1000 randomized instances with their families, built once per session."""
    if "suite" not in _SUITE_CACHE:
        start = time.perf_counter()
        entries = []
        for index in range(1000):
            weight, f = random_instance(index, max_depth=10, max_dim=4)
            cfg = default_stopping_config(weight.dim)
            family = build_sparse_family(weight, f, cfg)
            domination = verify_domination(weight, f, family)
            entries.append((weight, f, cfg, family, domination))
        _SUITE_CACHE["suite"] = entries
        _SUITE_CACHE["build_seconds"] = time.perf_counter() - start
    return _SUITE_CACHE["suite"], _SUITE_CACHE["build_seconds"]


# ------------------------------------------------------------------- criteria


def test_01_sign_enumeration_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        depth = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        weight = generate_weight(WeightFamilySpec(
            "random_log_pd", dim, depth, parameter=1.2, seed=i))
        f = random_grid_vector(depth, dim, rng)
        closed = sw_norm_squared(weight, f)
        enumerated = sw_sign_enumeration(weight, f)
        worst = max(worst, abs(enumerated - closed) / max(closed, 1e-300))
    elapsed = time.perf_counter() - start
    report("sign_enumeration_identity",
           worst <= 1e-10 and elapsed < 10.0,
           f"worst_rel_err={worst:.3e} elapsed={elapsed:.2f}s (50 instances)")


def test_02_scalar_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 11))
        wvals = np.exp(rng.uniform(-2.5, 2.5, 1 << depth))
        weight = matrix_weight_from_scalar(GridScalar(depth, wvals))
        f = random_grid_vector(depth, 1, rng)
        closed = sw_norm_squared(weight, f)
        integrated = float(np.mean(unweighted_square_function_sq(f).values * wvals))
        worst = max(worst, abs(closed - integrated) / max(closed, 1e-300))
    report("scalar_reduction", worst <= 1e-10,
           f"worst_rel_err={worst:.3e} (100 instances, d=1, N<=10)")


def test_03_martingale_isometry():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(100):
        depth = int(rng.integers(1, 13))
        dim = int(rng.integers(1, 5))
        f = random_grid_vector(depth, dim, rng)
        transformed = martingale_transform(f, SignPattern.random(depth, seed=i))
        lhs = math.sqrt(direct_l2_sq(transformed.values, depth))
        mean_free = GridVector(depth, dim, f.values - f.values.mean(axis=0))
        rhs = math.sqrt(direct_l2_sq(mean_free.values, depth))
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    report("martingale_isometry", worst <= 1e-10,
           f"worst_rel_err={worst:.3e} (100 instances, N<=12, d<=4)")


def test_04_hand_computable_fixtures():
    w = matrix_weight_from_scalar(GridScalar(1, [1.0, 9.0]))
    a2 = a2_characteristic(w)
    fw = fujii_wilson_constant(GridScalar(1, [1.0, 9.0]))
    energy = sw_norm_squared(w, GridVector(1, 1, [[1.0], [-1.0]]))
    est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-12))
    direction = est.witness.values.ravel()
    target = np.array([-9.0, 1.0]) / np.linalg.norm([-9.0, 1.0])
    cosine = abs(float(direction @ target)) / float(np.linalg.norm(direction))
    checks = {
        "a2=25/9": abs(a2 - 25.0 / 9.0) <= 1e-9,
        "fujii_wilson=1.4": abs(fw - 1.4) <= 1e-9,
        "sw_energy=5": abs(energy - 5.0) <= 1e-9,
        "opnorm=25/9": abs(est.value - 25.0 / 9.0) <= 1e-9 * (25.0 / 9.0),
        "witness~(-9,1)": cosine >= 1.0 - 1e-9,
    }
    report("hand_computable_fixtures", all(checks.values()),
           " ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_05_sparse_domination_thousand_instances():
    entries, build_seconds = sparse_suite()
    failures = [i for i, (_, _, _, _, dom) in enumerate(entries)
                if not dom["ok"] or dom["lhs"] > dom["rhs"] * (1.0 + 1e-9)]
    report("sparse_domination_1000",
           not failures and build_seconds < 120.0,
           f"failures={failures[:5]} build+verify={build_seconds:.1f}s (budget 120s)")


def test_06_sparseness_and_type1_mass():
    entries, _ = sparse_suite()
    min_ratio = 1.0
    worst_type1 = 0.0
    bad = []
    for index, (weight, _f, cfg, family, _dom) in enumerate(entries):
        sp = verify_sparseness(family)
        min_ratio = min(min_ratio, sp["min_ratio"])
        if not sp["ok"]:
            bad.append(index)
        budget = weight.dim / (cfg.c1 * cfg.c1)
        for interval in family.intervals():
            node = family.nodes[interval]
            mass = sum(c.measure for c in node.children
                       if family.nodes[c].trigger in ("type1", "both"))
            fraction = mass / interval.measure
            worst_type1 = max(worst_type1, fraction)
            if fraction > budget + 1e-12:
                bad.append(index)
    report("sparseness_and_type1_mass",
           not bad and min_ratio >= 0.5,
           f"min_e_ratio={min_ratio:.4f} worst_type1_fraction={worst_type1:.4f} "
           f"(budget d/C1^2 = 0.25)")


def test_07_maximality_of_stopping_intervals():
    entries, _ = sparse_suite()
    violations = 0
    for weight, f, _cfg, family, _dom in entries:
        rep = verify_maximality(family)
        violations += len(rep["violations"])
    report("maximality_of_stopping_intervals", violations == 0,
           f"violations={violations} across 1000 built families")


def test_08_operator_norm_oracle_agreement():
    start = time.perf_counter()
    shapes = [(1, 7), (2, 6), (4, 5), (8, 4)] * 5  # d * 2^N = 128 each
    worst = 0.0
    for i, (dim, depth) in enumerate(shapes):
        kind = "rotating" if (i % 4 == 1 and dim == 2) else "random_log_pd"
        weight = generate_weight(WeightFamilySpec(kind, dim, depth,
                                                  parameter=1.2, seed=200 + i))
        dense = dense_top_generalized_eigenvalue(weight)
        est = estimate_operator_norm(weight, PowerIterationOptions(rel_tol=1e-12, seed=i))
        worst = max(worst, abs(est.value - dense) / dense)
    elapsed = time.perf_counter() - start
    report("operator_norm_oracle_agreement",
           worst <= 1e-6 and elapsed < 30.0,
           f"worst_rel_err={worst:.3e} elapsed={elapsed:.1f}s (20 instances, d*2^N=128)")


def test_09_sharpness_trace():
    start = time.perf_counter()
    cfg = ExperimentConfig(family_kind="scalar_power", dim=1, depth=14,
                           grid=tuple(round(0.1 * k, 1) for k in range(1, 10)),
                           seeds=(0,), n_directions=2, power_rel_tol=1e-10)
    records, meta = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    errors = [r.error for r in records if r.error]
    slope = float(meta["loglog_slope_normsq_vs_a2"])
    ratios = [r.ratio_mixed_bound for r in records]
    quotient = max(ratios) / min(ratios)
    slope_ok = 0.8 <= slope <= 1.1
    # The mixed estimate bounds the ratio from above; it promises no lower
    # bound, so max/min is information only. For t >= 1/3 the inverse weight
    # has no continuum limit: at t = 0.9 it is a point mass on leaf 0 to within
    # 2^-17, its Fujii-Wilson constant is the depth value N/2 + 1 and
    # normsq/A2 -> 1, so the low end of the trace is 1/sqrt(N/2 + 1).
    ratio_ok = max(ratios) <= 3.0
    low = min(records, key=lambda r: r.ratio_mixed_bound)
    low_end = low.ratio_mixed_bound * math.sqrt(cfg.depth / 2 + 1)
    low_ok = low.t == 0.9 and abs(low_end - 1.0) <= 1e-4
    report("sharpness_trace",
           not errors and slope_ok and ratio_ok and low_ok and elapsed < 300.0,
           f"slope={slope:.4f} (band [0.8,1.1]) ratio_max={max(ratios):.4f} "
           f"(budget 3) ratio_min={min(ratios):.4f} at t={low.t} "
           f"ratio_min*sqrt(N/2+1)={low_end:.6f} (1 within 1e-4) "
           f"max/min={quotient:.4f} elapsed={elapsed:.1f}s")


def test_10_cli_determinism(tmp_path):
    wpath = tmp_path / "w.json"
    fpath = tmp_path / "f.json"
    cli_main(["genweight", "--kind", "rotating", "--dim", "2", "--depth", "5",
              "--param", "1.0", "--seed", "3", "--out", str(wpath)])
    rng = np.random.default_rng(7)
    save_field(GridVector(5, 2, rng.standard_normal((32, 2))), str(fpath))

    certs = []
    for name in ("c1.json", "c2.json"):
        cpath = tmp_path / name
        rc = cli_main(["sparse", str(wpath), "--f", str(fpath), "--certify", str(cpath)])
        certs.append((rc, cpath.read_bytes()))
    cert_ok = certs[0] == certs[1] and certs[0][0] == 0

    cfg = {"family_kind": "scalar_power", "dim": 1, "depth": 6,
           "grid": [0.2, 0.6], "seeds": [1], "n_directions": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csvs = []
    for name in ("s1.csv", "s2.csv"):
        spath = tmp_path / name
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(spath)])
        csvs.append((rc, spath.read_bytes()))
    sweep_ok = csvs[0][1] == csvs[1][1] and csvs[0][0] == 0

    report("cli_determinism", cert_ok and sweep_ok,
           f"certificates_identical={certs[0] == certs[1]} "
           f"sweeps_identical={csvs[0][1] == csvs[1][1]}")
