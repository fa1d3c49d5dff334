"""Small dense symmetric-matrix algebra with strict tolerances.

Weights are tiny (d <= 8 or so) so everything is eigendecomposition based, one
stacked routine per fact; the single-matrix forms run it on a stack of one.
Fractional powers refuse to touch matrices that are not clearly positive:
a weight with a vanishing direction must fail loudly, not emit infinities.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-10
EPS_PD = 1e-10


def psd_power(m: np.ndarray, p: float, eps_pd: float = EPS_PD) -> np.ndarray:
    """Fractional power of one PSD matrix (d, d)."""
    return psd_power_stack(np.asarray(m, dtype=float)[None], p, eps_pd)[0]


def psd_power_stack(ms: np.ndarray, p: float, eps_pd: float = EPS_PD) -> np.ndarray:
    """Fractional power of each PSD matrix in a stack (n, d, d), via its eigendecomposition.

    Negative powers require the smallest eigenvalue to clear eps_pd relative to
    the largest; below that the matrix is treated as a singular weight.
    """
    ms = np.asarray(ms, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (ms + ms.transpose(0, 2, 1)))
    low, top = vals[:, 0], vals[:, -1]
    negative = low < -PSD_TOL * np.maximum(top, 0.0)
    if negative.any():
        raise ValueError(f"not PSD (eigenvalue {low[negative][0]:.3e})")
    vals = np.maximum(vals, 0.0)
    singular = (top <= 0.0) | (vals[:, 0] < eps_pd * top)
    if p < 0 and singular.any():
        i = int(np.argmax(singular))
        ratio = vals[i, 0] / top[i] if top[i] > 0.0 else 0.0
        raise ValueError(f"singular weight (eigenvalue ratio {ratio:.3e})")
    return np.einsum("nij,nj,nkj->nik", vecs, vals**p, vecs)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of one matrix (d, d)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    return float(operator_norm_stack(m[None])[0])


def operator_norm_stack(ms: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack (n, d, d)."""
    return np.linalg.svd(np.asarray(ms, dtype=float), compute_uv=False)[:, 0]


def top_eigenvalue_stack(ms: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix (lower triangle read) in a stack (n, d, d).
    Raises on non-finite input or output: a NaN would slip through a running max."""
    ms = np.asarray(ms, dtype=float)
    if not np.all(np.isfinite(ms)):
        raise ValueError("non-finite entries in stacked input")
    tops = np.linalg.eigvalsh(ms)[:, -1]
    if not np.all(np.isfinite(tops)):
        raise ValueError("non-finite eigenvalue in stacked input")
    return tops
