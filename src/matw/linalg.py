"""Small dense symmetric-matrix algebra with strict tolerances.

Weights are tiny (d <= 8 or so) so everything is eigendecomposition based.
Fractional powers refuse to touch matrices that are not clearly positive:
a weight with a vanishing direction must fail loudly, not emit infinities.
"""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-12
PSD_TOL = 1e-10
EPS_PD = 1e-10


def check_symmetric(m: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if np.max(np.abs(m - m.T), initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix."""
    m = check_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def psd_power(m: np.ndarray, p: float, eps_pd: float = EPS_PD) -> np.ndarray:
    """Fractional power of a PSD matrix via its eigendecomposition.

    Negative powers require the smallest eigenvalue to clear eps_pd relative to
    the largest; below that the matrix is treated as a singular weight.
    """
    vals, vecs = sym_eigen(m)
    top = float(vals[0]) if vals.size else 0.0
    if vals.size and vals[-1] < -PSD_TOL * max(top, 0.0):
        raise ValueError(f"not PSD (eigenvalue {vals[-1]:.3e})")
    vals = np.maximum(vals, 0.0)
    if p < 0 and (top <= 0.0 or vals[-1] < eps_pd * top):
        raise ValueError(f"singular weight (eigenvalue ratio {vals[-1] / top if top else 0.0:.3e})")
    return (vecs * vals**p) @ vecs.T


def psd_power_stack(ms: np.ndarray, p: float, eps_pd: float = EPS_PD) -> np.ndarray:
    """psd_power applied to a stacked array of symmetric matrices (n, d, d)."""
    ms = np.asarray(ms, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (ms + ms.transpose(0, 2, 1)))
    top = vals[:, -1]
    if np.any(vals[:, 0] < -PSD_TOL * np.maximum(top, 0.0)):
        raise ValueError("not PSD in stacked input")
    vals = np.maximum(vals, 0.0)
    if p < 0 and np.any((top <= 0.0) | (vals[:, 0] < eps_pd * top)):
        raise ValueError("singular weight in stacked input")
    return np.einsum("nij,nj,nkj->nik", vecs, vals**p, vecs)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_norm_stack(ms: np.ndarray) -> np.ndarray:
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


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    m = np.asarray(m, dtype=float)
    return float(np.sqrt(np.sum(m * m)))


def trace_of(m: np.ndarray) -> float:
    return float(np.trace(np.asarray(m, dtype=float)))
