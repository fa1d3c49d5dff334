"""Command line surface: weight generation, characteristics, norms, certificates, sweeps.

The environment variable MATW_SEED, when set, overrides every seed in the
invocation (CLI flags and sweep config files alike) so CI runs are pinned.
Exit status is 0 only if every verification performed by the invocation passed,
1 if one failed, and 2 if an input could not be used; the last case prints one
line, "matw <command>: <reason>", on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .dyadic import GridVector, load_field, read_json_object, save_field
from .opnorm import PowerIterationOptions, estimate_operator_norm
from .haar import sw_norm_squared
from .sparse import certify, default_stopping_config
from .sweep import ExperimentConfig, emit_csv, run_sweep
from .weights import (FAMILY_KINDS, WeightFamilySpec, a2_characteristic, ainfty_characteristic,
                      generate_weight, load_weight)


def _seed(default: int | None) -> int | None:
    """MATW_SEED when it is set, else `default`."""
    raw = os.environ.get("MATW_SEED")
    return int(raw) if raw else default


def _load_vector(path: str) -> GridVector:
    field = load_field(path)
    if not isinstance(field, GridVector):
        raise ValueError(f"{path} does not hold a grid vector")
    return field


def _print(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_genweight(args) -> int:
    spec = WeightFamilySpec(args.kind, args.dim, args.depth,
                            parameter=args.param, seed=_seed(args.seed))
    weight = generate_weight(spec)
    save_field(weight, args.out)
    _print({"written": args.out, "kind": spec.kind, "dim": spec.dim,
            "depth": spec.depth, "parameter": spec.parameter, "seed": spec.seed})
    return 0


def cmd_a2(args) -> int:
    weight = load_weight(args.weight)
    _print({"a2": a2_characteristic(weight)})
    return 0


def cmd_ainfty(args) -> int:
    field = load_weight(args.weight).field  # loading runs the weight's checks
    value = ainfty_characteristic(field, args.directions, seed=_seed(args.seed))
    _print({"ainfty_sampled": value, "n_directions": args.directions,
            "note": "lower bound of the direction supremum; exact for dim 1"})
    return 0


def cmd_swnorm(args) -> int:
    weight = load_weight(args.weight)
    f = _load_vector(args.f)
    _print({"sw_norm_squared": sw_norm_squared(weight, f)})
    return 0


def cmd_opnorm(args) -> int:
    weight = load_weight(args.weight)
    opts = PowerIterationOptions(max_iters=args.max_iters, rel_tol=args.rel_tol,
                                 seed=_seed(args.seed))
    est = estimate_operator_norm(weight, opts)
    if args.witness_out:
        save_field(est.witness, args.witness_out)
    _print({"sw_normsq_est": est.value, "iters": est.iters, "converged": est.converged,
            "note": "Rayleigh quotient of the witness: a lower bound of the squared "
                    "operator norm up to the rounding of <W f, f>"})
    return 0 if est.converged else 1


def _file_sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_sparse(args) -> int:
    weight = load_weight(args.weight)
    f = _load_vector(args.f)
    cert = certify(weight, f, default_stopping_config(weight.dim, args.c1, args.c2))
    cert["instance"]["weight_sha256"] = _file_sha256(args.weight)
    cert["instance"]["function_sha256"] = _file_sha256(args.f)
    if args.certify:
        with open(args.certify, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _print({"ok": cert["ok"], "nodes": len(cert["family"]["nodes"]),
            "min_e_ratio": cert["sparseness"]["min_ratio"],
            "domination_lhs": cert["domination"]["lhs"],
            "domination_rhs": cert["domination"]["rhs"],
            "certificate": args.certify})
    return 0 if cert["ok"] else 1


def cmd_sweep(args) -> int:
    obj = read_json_object(args.config)
    config_out = obj.pop("out_path", None)  # the default for --out, not part of the config
    cfg = ExperimentConfig.from_json_dict(obj)
    env = _seed(None)
    if env is not None:
        cfg = dataclasses.replace(cfg, seeds=(env,))
    records, meta = run_sweep(cfg)
    out = args.out or config_out
    if out:
        emit_csv(records, out, meta)
    failures = [r for r in records if r.error or not r.domination_ok]
    _print({"records": len(records), "failures": len(failures), "out": out, **meta})
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matw",
        description="Dyadic matrix-weighted square function toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genweight", help="generate a family weight into a JSON file")
    p.add_argument("--kind", required=True, choices=FAMILY_KINDS)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--param", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_genweight)

    p = sub.add_parser("a2", help="A2 characteristic of a weight file")
    p.add_argument("weight")
    p.set_defaults(func=cmd_a2)

    p = sub.add_parser("ainfty", help="sampled A-infinity characteristic")
    p.add_argument("weight")
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ainfty)

    p = sub.add_parser("swnorm", help="weighted square function energy of f")
    p.add_argument("weight")
    p.add_argument("--f", required=True)
    p.set_defaults(func=cmd_swnorm)

    p = sub.add_parser("opnorm", help="squared operator norm via preconditioned LOBPCG")
    p.add_argument("weight")
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--rel-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_opnorm)

    p = sub.add_parser("sparse", help="build and verify a sparse domination certificate")
    p.add_argument("weight")
    p.add_argument("--f", required=True)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=256.0)
    p.add_argument("--certify", default=None)
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return " ".join(str(exc).split())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        parser.exit(2, f"matw {args.command}: {_reason(exc)}\n")


if __name__ == "__main__":
    sys.exit(main())
