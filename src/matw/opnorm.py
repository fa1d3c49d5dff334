"""Operator norm of the weighted square function by generalized power iteration.

The squared norm is the largest generalized eigenvalue of the pair (Q, P),
  Q(f) = sum_I <<W>_I (f,h_I), (f,h_I)>,      P(f) = integral <W f, f>.
Q is applied matrix-free through Haar analysis and synthesis with <W>_I
multipliers; P is block diagonal over leaves, so each step applies the
pointwise inverse W^-1 that the weight caches at construction. Each iterate is
analyzed once: its coefficients give both the energy that decides convergence
and the image under Q. The Rayleigh quotient of the final iterate is returned
together with the iterate itself, so the value is always a witness-certified
lower bound regardless of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import GridVector
from .haar import HaarCoefficients, analyze, synthesize, sw_norm_squared
from .weights import MatrixWeight


@dataclass(frozen=True)
class PowerIterationOptions:
    max_iters: int = 5000
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError("rel_tol must lie in (0, 1e-3]")


@dataclass
class OperatorNormEstimate:
    value: float
    witness: GridVector
    iters: int
    converged: bool


def _haar_multiplier(weight: MatrixWeight, coeffs: HaarCoefficients) -> HaarCoefficients:
    """The coefficients <W>_I c_I, with the mean dropped."""
    weighted = [np.einsum("nij,nj->ni", weight.level_averages(k), c)
                for k, c in enumerate(coeffs.levels)]
    return HaarCoefficients(coeffs.depth, coeffs.dim, np.zeros(coeffs.dim), weighted)


def apply_form(weight: MatrixWeight, f: GridVector) -> GridVector:
    """(A f)(x) = sum_I <W>_I (f, h_I) h_I(x), the linear map behind Q."""
    return synthesize(_haar_multiplier(weight, analyze(f)), include_mean=False)


def weighted_l2_sq(weight: MatrixWeight, f: GridVector) -> float:
    """P(f) = integral <W f, f>, an exact leafwise sum."""
    vals = np.einsum("ni,nij,nj->n", f.values, weight.field.values, f.values)
    return float(np.sum(vals) * 2.0 ** -f.depth)


def rayleigh_quotient(weight: MatrixWeight, f: GridVector) -> float:
    return sw_norm_squared(weight, f).total / weighted_l2_sq(weight, f)


def start_vector(weight: MatrixWeight, seed: int) -> GridVector:
    """Deterministic mean-zero start; constants are the kernel of Q."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((weight.n_leaves, weight.dim))
    vals -= vals.mean(axis=0)
    return GridVector(weight.depth, weight.dim, vals)


def estimate_operator_norm(weight: MatrixWeight,
                           opts: PowerIterationOptions = PowerIterationOptions()
                           ) -> OperatorNormEstimate:
    """Largest generalized eigenvalue of (Q, P) with a certifying witness."""
    f = start_vector(weight, opts.seed)
    weighted = _haar_multiplier(weight, analyze(f))
    lam_prev = None
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        image = synthesize(weighted, include_mean=False).values
        g_vals = np.einsum("nij,nj->ni", weight.inverse_field.values, image)
        # P(g) = integral <W g, g> = integral <image, g> for g = W^-1 image
        norm = np.sqrt(float(np.sum(image * g_vals)) * 2.0 ** -weight.depth)
        if norm == 0.0:
            break
        f = GridVector(weight.depth, weight.dim, g_vals / norm)
        coeffs = analyze(f)
        weighted = _haar_multiplier(weight, coeffs)
        lam = float(sum(np.sum(c * wc) for c, wc in zip(coeffs.levels, weighted.levels)))
        if lam_prev is not None and abs(lam - lam_prev) <= opts.rel_tol * max(lam, 1e-300):
            converged = True
            break
        lam_prev = lam
    value = rayleigh_quotient(weight, f)
    return OperatorNormEstimate(value, f, iters, converged)
