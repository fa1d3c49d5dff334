"""The benchmark's workloads: inputs made from a seed, the operations, their checks.

Every workload hands matw only generated inputs. Operations call matw through
module attributes (`msweep.run_record`, not a name imported here), so the
traced run's wrappers see them.

- sweep-scalar: the sharpness sweep of the scalar power family at depth 18.
  The weights depend on t alone; the seed sets the power-iteration start
  vector and the Halton fill of the A-infinity directions.
- sweep-matrix: the same sweep for random_log_pd weights, d = 4, depth 14,
  over the two reference weight seeds 0 and 1 whatever the benchmark seed;
  the seed only sets the order of the eight records, so the stored
  references apply on every seed. The power-iteration count of these
  weights swings from about 15 to over 1000 with the weight seed, and by up
  to 2x under a 3% change of t, so weights drawn from the seed would make
  the run time a draw from that spread instead of a measurement.
- certify-pool: a pool of 1000 small instances made with the recipe of
  tests/_instances.py (all five families, d 1-4, spiked or boosted
  functions), except that depth and d cycle through 1-12 and 1-4 instead of
  being drawn, so every pool has the same size mix and neither the pass time
  nor the peak memory follows the number of large instances a seed happens
  to draw.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from matw import dyadic as mdyadic
from matw import sparse as msparse
from matw import sweep as msweep
from matw import weights as mweights

DEFAULT_SEED = 0
REFERENCES = pathlib.Path(__file__).resolve().parent / "references.json"

# relative distances allowed from the stored reference of the default seed
REF_TOL_EXACT = 1e-12   # a2, ainf_winv_sampled: closed-form, no iteration
REF_TOL_NORMSQ = 1e-6   # sw_normsq_est: leaves room for a better eigensolver


@dataclass
class Op:
    """One timed operation: `run` calls matw, `check` lists what is wrong with its result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------- sweeps


def check_record(rec, ref: dict | None) -> list[str]:
    """Internal checks of a sweep record, plus the stored reference where one exists."""
    bad = []
    if rec.error:
        bad.append(f"error: {rec.error}")
    if not rec.domination_ok:
        bad.append("domination_ok is false")
    if not rec.power_converged:
        bad.append("power iteration did not converge")
    if rec.sw_normsq_lower != rec.sw_normsq_est:
        bad.append("witness no longer certifies sw_normsq_est")
    if ref is not None:
        for key, tol in (("a2", REF_TOL_EXACT), ("ainf_winv_sampled", REF_TOL_EXACT),
                         ("sw_normsq_est", REF_TOL_NORMSQ)):
            value = getattr(rec, key)
            if not math.isfinite(value) or _rel(value, ref[key]) > tol:
                bad.append(f"{key}={value!r} is off the reference {ref[key]!r}")
    return bad


def record_key(t: float, seed: int) -> str:
    return f"{t!r}/{seed}"


class Sweep:
    """run_record over one family: one operation per (t, record seed)."""

    def __init__(self, name: str, family: str, dim: int, depth: int,
                 grid: tuple[float, ...], n_directions: int, rel_tol: float,
                 fixed_record_seeds: tuple[int, ...] | None):
        self.name = name
        self.family = family
        self.dim = dim
        self.depth = depth
        self.grid = grid
        self.n_directions = n_directions
        self.rel_tol = rel_tol
        self.fixed_record_seeds = fixed_record_seeds

    def config(self, records: list[tuple[float, int]]) -> msweep.ExperimentConfig:
        return msweep.ExperimentConfig(self.family, self.dim, self.depth, self.grid,
                                       seeds=tuple(sorted({s for _, s in records})),
                                       n_directions=self.n_directions,
                                       power_rel_tol=self.rel_tol)

    def records(self, seed: int) -> list[tuple[float, int]]:
        """The (t, record seed) inputs for a benchmark seed, in run order."""
        if self.fixed_record_seeds is None:
            return [(t, seed) for t in self.grid]
        pairs = [(t, s) for t in self.grid for s in self.fixed_record_seeds]
        order = np.random.default_rng(seed).permutation(len(pairs))
        return [pairs[i] for i in order]

    def setup(self, seed: int, refs: dict) -> list[Op]:
        records = self.records(seed)
        cfg = self.config(records)
        # input generation and warm-up: build every record's weight once, which
        # rejects a bad input before timing; run_record builds its own copy
        for t, s in records:
            mweights.generate_weight(mweights.WeightFamilySpec(
                self.family, self.dim, self.depth, parameter=t, seed=s))
        table = refs.get(self.name, {})
        return [Op(f"t={t} seed={s}",
                   lambda t=t, s=s: msweep.run_record(cfg, t, s),
                   lambda rec, ref=table.get(record_key(t, s)): check_record(rec, ref))
                for t, s in records]

    def reference(self) -> dict:
        records = self.records(DEFAULT_SEED)
        cfg = self.config(records)
        out = {}
        for t, s in records:
            rec = msweep.run_record(cfg, t, s)
            if check_record(rec, None):
                raise RuntimeError(f"{self.name} t={t} seed={s} fails: {check_record(rec, None)}")
            out[record_key(t, s)] = {"a2": rec.a2, "ainf_winv_sampled": rec.ainf_winv_sampled,
                                      "sw_normsq_est": rec.sw_normsq_est}
        return out


# ------------------------------------------------------------ certify pool

FAMILY_CYCLE = ["identity", "scalar_power", "block_scalar", "rotating", "random_log_pd"]


def make_instance(seed: int, index: int, max_depth: int = 12):
    """Instance #index of a pool: a family weight plus a random function, d 1-4."""
    rng = np.random.default_rng([seed, index])
    kind = FAMILY_CYCLE[index % len(FAMILY_CYCLE)]
    depth = 1 + (index // len(FAMILY_CYCLE)) % max_depth
    dim = 2 if kind == "rotating" else 1 + (index // (len(FAMILY_CYCLE) * max_depth)) % 4
    if kind == "identity":
        t = 0.0
    elif kind == "scalar_power":
        t = float(rng.uniform(0, 0.85)) if dim == 1 else float(rng.uniform(0, 0.55))
    elif kind == "block_scalar":
        t = float(rng.uniform(0, 0.5))
    elif kind == "rotating":
        t = float(rng.uniform(0, 2.0))
    else:
        t = float(rng.uniform(0, 2.5 if dim <= 2 else 2.0))
    weight = mweights.generate_weight(
        mweights.WeightFamilySpec(kind, dim, depth, parameter=t, seed=int(rng.integers(2**31))))
    n = 1 << depth
    vals = rng.standard_normal((n, dim)) * float(rng.uniform(0.5, 2.0))
    style = rng.integers(0, 4)
    if style == 1:  # single spike
        vals[rng.integers(0, n)] += rng.standard_normal(dim) * float(rng.uniform(10, 200))
    elif style == 2:  # boosted dyadic block
        level = int(rng.integers(1, depth + 1))
        span = 1 << (depth - level)
        j = int(rng.integers(0, 1 << level))
        vals[j * span:(j + 1) * span] *= float(rng.uniform(10, 100))
    return weight, mdyadic.GridVector(depth, dim, vals)


@dataclass
class CertOutcome:
    cert_ok: bool
    recheck_ok: bool
    nodes: int
    problems: list[str]


def recheck(cert: dict, weight, f) -> CertOutcome:
    report = msparse.recheck_certificate(cert, weight, f)
    return CertOutcome(bool(cert["ok"]), bool(report["ok"]),
                       len(cert["family"]["nodes"]), report["problems"])


def certify_roundtrip(weight, f) -> CertOutcome:
    """certify, then a JSON round trip, then the independent recheck."""
    cert = msparse.certify(weight, f, msparse.default_stopping_config(weight.dim))
    return recheck(json.loads(json.dumps(cert)), weight, f)


def check_certificate(out: CertOutcome, ref_nodes: int | None) -> list[str]:
    bad = []
    if not out.cert_ok:
        bad.append("certificate ok is false")
    if not out.recheck_ok:
        bad.append("recheck fails: " + "; ".join(p[:120] for p in out.problems[:3]))
    if ref_nodes is not None and out.nodes != ref_nodes:
        bad.append(f"family has {out.nodes} nodes, reference {ref_nodes}")
    return bad


class CertifyPool:
    name = "certify-pool"
    count = 1000

    def setup(self, seed: int, refs: dict) -> list[Op]:
        pool = [make_instance(seed, i) for i in range(self.count)]
        # warm-up, so that no operation of the pool pays for first calls
        certify_roundtrip(*make_instance(seed, self.count, max_depth=3))
        nodes = refs.get(self.name, {}).get(str(seed))
        return [Op(f"instance {i}",
                   lambda w=w, f=f: certify_roundtrip(w, f),
                   lambda out, i=i: check_certificate(out, nodes[i] if nodes else None))
                for i, (w, f) in enumerate(pool)]

    def reference(self) -> dict:
        nodes = []
        for i in range(self.count):
            out = certify_roundtrip(*make_instance(DEFAULT_SEED, i))
            if check_certificate(out, None):
                raise RuntimeError(f"instance {i} fails: {check_certificate(out, None)}")
            nodes.append(out.nodes)
        return {str(DEFAULT_SEED): nodes}


WORKLOADS = {
    "sweep-scalar": Sweep("sweep-scalar", "scalar_power", 1, 18,
                          tuple(round(0.1 * k, 1) for k in range(1, 10)),
                          n_directions=8, rel_tol=1e-10, fixed_record_seeds=None),
    "sweep-matrix": Sweep("sweep-matrix", "random_log_pd", 4, 14, (0.5, 1.0, 1.5, 2.0),
                          n_directions=16, rel_tol=1e-9, fixed_record_seeds=(0, 1)),
    "certify-pool": CertifyPool(),
}
