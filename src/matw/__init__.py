"""Dyadic matrix-weighted square functions on [0,1].

Core objects: the dyadic tree at finite depth with exact grid averaging,
matrix weights with A2 / A-infinity characteristics, Haar analysis with the
weighted square function energy as a closed per-interval sum, the
stopping-time sparse domination with per-instance certificates, and an
operator-norm sweep harness. The reference routes the tests check these
against (sign enumeration, Monte Carlo, brute-force sums) live in the tests.
"""

__version__ = "0.1.0"

from .dyadic import (DyadicInterval, GridMatrixField, GridScalar, GridVector, ROOT,
                     load_field, save_field)
from .haar import analyze, s3w_norm_squared, sw_norm_squared, synthesize
from .linalg import operator_norm, psd_power
from .opnorm import OperatorNormEstimate, PowerIterationOptions, estimate_operator_norm
from .sparse import (SparseFamily, StoppingConfig, build_sparse_family, certify,
                     default_stopping_config, recheck_certificate, verify_domination,
                     verify_maximality, verify_sparseness, verify_type1_trace_bound,
                     verify_type2_weak_bound)
from .sweep import ExperimentConfig, SweepRecord, emit_csv, run_sweep
from .weights import (MatrixWeight, WeightFamilySpec, a2_characteristic,
                      ainfty_characteristic, fujii_wilson_constant, generate_weight,
                      load_weight, matrix_weight_from_scalar)

__all__ = [
    "DyadicInterval", "GridMatrixField", "GridScalar", "GridVector", "ROOT",
    "load_field", "save_field",
    "analyze", "s3w_norm_squared", "sw_norm_squared", "synthesize",
    "operator_norm", "psd_power",
    "OperatorNormEstimate", "PowerIterationOptions", "estimate_operator_norm",
    "SparseFamily", "StoppingConfig", "build_sparse_family", "certify",
    "default_stopping_config", "recheck_certificate",
    "verify_domination", "verify_maximality", "verify_sparseness",
    "verify_type1_trace_bound", "verify_type2_weak_bound",
    "ExperimentConfig", "SweepRecord", "emit_csv", "run_sweep",
    "MatrixWeight", "WeightFamilySpec", "a2_characteristic",
    "ainfty_characteristic", "fujii_wilson_constant", "generate_weight",
    "load_weight", "matrix_weight_from_scalar",
]
