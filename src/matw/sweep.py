"""Parameter sweeps tracing how the operator norm scales with the A2 characteristic.

One record per (parameter, seed): weight characteristics, the squared-norm
estimate with its certifying witness, and the sparse domination bound evaluated
at that witness. The CSV footer carries the fitted log-log slope of the
squared-norm estimate against the A2 characteristic; for the scalar power
family this slope is the empirical trace of the linear growth regime.

The sampled A-infinity column is a lower bound of the true characteristic
(exact for d = 1), so the mixed-bound ratio column can exceed what the exact
characteristic would give; the a2-bound ratio column is the fallback path
through [W^-1]_{A2} = [W]_{A2}.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .opnorm import PowerIterationOptions, estimate_operator_norm, weighted_l2_sq
from .haar import sw_norm_squared
from .sparse import StoppingConfig, build_sparse_family, default_stopping_config, verify_domination
from .weights import WeightFamilySpec, a2_characteristic, ainfty_characteristic, generate_weight


@dataclass(frozen=True)
class ExperimentConfig:
    family_kind: str
    dim: int
    depth: int
    grid: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)
    n_directions: int = 8
    power_max_iters: int = 20000
    power_rel_tol: float = 1e-9
    stopping_c1: float | None = None  # default 2 sqrt(dim)
    stopping_c2: float = 256.0
    out_path: str | None = None

    def __post_init__(self):
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        if not 0.0 < self.power_rel_tol <= 1e-3:
            raise ValueError("power_rel_tol must lie in (0, 1e-3]")

    def stopping_config(self) -> StoppingConfig:
        return default_stopping_config(self.dim, self.stopping_c1, self.stopping_c2)

    def to_json_dict(self) -> dict:
        obj = asdict(self)
        obj["grid"] = list(self.grid)
        obj["seeds"] = list(self.seeds)
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(ExperimentConfig)}
        kwargs = {k: v for k, v in obj.items() if k in known}
        kwargs["grid"] = tuple(kwargs.get("grid", ()))
        kwargs["seeds"] = tuple(kwargs.get("seeds", (0,)))
        return ExperimentConfig(**kwargs)


@dataclass
class SweepRecord:
    t: float
    seed: int
    a2: float = math.nan
    ainf_winv_sampled: float = math.nan
    sw_normsq_est: float = math.nan
    sw_normsq_lower: float = math.nan
    domination_rhs_at_witness: float = math.nan
    ratio_mixed_bound: float = math.nan
    ratio_a2_bound: float = math.nan
    power_iters: int = 0
    power_converged: bool = False
    domination_ok: bool = False
    error: str = ""


def run_record(cfg: ExperimentConfig, t: float, seed: int) -> SweepRecord:
    rec = SweepRecord(t=t, seed=seed)
    try:
        spec = WeightFamilySpec(cfg.family_kind, cfg.dim, cfg.depth, parameter=t, seed=seed)
        weight = generate_weight(spec)
        rec.a2 = a2_characteristic(weight)
        rec.ainf_winv_sampled = ainfty_characteristic(weight.inverse(), cfg.n_directions, seed=seed)
        opts = PowerIterationOptions(max_iters=cfg.power_max_iters,
                                     rel_tol=cfg.power_rel_tol, seed=seed)
        est = estimate_operator_norm(weight, opts)
        rec.sw_normsq_est = est.value
        witness_energy = weighted_l2_sq(weight, est.witness)
        rec.sw_normsq_lower = sw_norm_squared(weight, est.witness).total / witness_energy
        rec.power_iters = est.iters
        rec.power_converged = est.converged
        family = build_sparse_family(weight, est.witness, cfg.stopping_config())
        dom = verify_domination(weight, est.witness, family)
        # witness is P-normalized, so rhs is already the per-unit-energy bound
        rec.domination_rhs_at_witness = dom["rhs"] / witness_energy
        rec.domination_ok = dom["ok"]
        norm = math.sqrt(rec.sw_normsq_est)
        rec.ratio_mixed_bound = norm / math.sqrt(rec.a2 * rec.ainf_winv_sampled)
        rec.ratio_a2_bound = norm / rec.a2
    except Exception as exc:  # per-record failures land in the error column
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def loglog_slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of log y against log x; None when degenerate."""
    pts = [(x, y) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    if float(np.max(lx) - np.min(lx)) < 1e-12:
        return None
    design = np.vstack([lx, np.ones_like(lx)]).T
    return float(np.linalg.lstsq(design, ly, rcond=None)[0][0])


def sweep_metadata(cfg: ExperimentConfig, records: list[SweepRecord]) -> dict:
    from . import __version__

    good = [r for r in records if not r.error]
    slope_sq = loglog_slope([r.a2 for r in good], [r.sw_normsq_est for r in good])
    ratios = [r.ratio_mixed_bound for r in good if math.isfinite(r.ratio_mixed_bound)]
    ainf_over_a2 = [r.ainf_winv_sampled / r.a2 for r in good if r.a2 > 0]
    # [W^-1]_{A_inf} is dominated by a multiple of [W^-1]_{A2} = [W]_{A2};
    # a ratio past 10 d marks the record for manual inspection
    flagged = sum(1 for v in ainf_over_a2 if v > 10.0 * cfg.dim)
    hashed = {k: v for k, v in cfg.to_json_dict().items() if k != "out_path"}
    cfg_hash = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()
    stopping = cfg.stopping_config()
    return {
        "loglog_slope_normsq_vs_a2": "undefined" if slope_sq is None else repr(slope_sq),
        "loglog_slope_norm_vs_a2": "undefined" if slope_sq is None else repr(slope_sq / 2.0),
        "max_ratio_mixed_bound": repr(max(ratios)) if ratios else "undefined",
        "min_ratio_mixed_bound": repr(min(ratios)) if ratios else "undefined",
        "max_ainf_over_a2": repr(max(ainf_over_a2)) if ainf_over_a2 else "undefined",
        "flagged_ainf_over_a2": f"{flagged} records above 10*dim",
        "ainfty_note": f"sampled lower bound, n_directions={cfg.n_directions}",
        "stopping_c1": repr(stopping.c1),
        "stopping_c2": repr(stopping.c2),
        "config_sha256": cfg_hash,
        "version": __version__,
    }


def run_sweep(cfg: ExperimentConfig) -> tuple[list[SweepRecord], dict]:
    records = [run_record(cfg, t, seed)
               for t in sorted(cfg.grid) for seed in sorted(cfg.seeds)]
    meta = sweep_metadata(cfg, records)
    if cfg.out_path:
        emit_csv(records, cfg.out_path, meta)
    return records, meta


def csv_bytes(records: list[SweepRecord], metadata: dict | None = None) -> bytes:
    """Deterministic CSV: header, records sorted by (t, seed), '#' metadata footer."""
    columns = [f.name for f in fields(SweepRecord)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in sorted(records, key=lambda r: (r.t, r.seed)):
        row = []
        for name in columns:
            val = getattr(rec, name)
            row.append(repr(val) if isinstance(val, float) else val)
        writer.writerow(row)
    for key in sorted(metadata or {}):
        buf.write(f"# {key}={metadata[key]}\n")
    return buf.getvalue().encode()


def emit_csv(records: list[SweepRecord], path: str, metadata: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(csv_bytes(records, metadata))
