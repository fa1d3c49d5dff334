"""Haar analysis and weighted square functions.

Haar functions are L2-normalized: h_I = |I|^{-1/2} (chi_left - chi_right),
positive on the left half. For grid data at depth N the Haar system consists
of the 2^N - 1 intervals at levels 0..N-1 plus the global mean, f.average(ROOT),
which analyze leaves out and synthesize takes as an argument.

The weighted square function energy is the closed per-interval sum
sum_I <<W>_I c_I, c_I>. Its martingale-transform routes, exact enumeration
over all sign patterns and Monte Carlo, are test oracles in tests/_oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import GridVector
from .weights import MatrixWeight


def analyze(f: GridVector) -> list[np.ndarray]:
    """Haar coefficients (f, h_I) per level: levels[k] has shape (2^k, d), k = 0..N-1."""
    tree = f.average_tree()
    levels = []
    for k in range(f.depth):
        below = tree[k + 1]
        scale = 0.5 * 2.0 ** (-k / 2.0)
        levels.append((below[0::2] - below[1::2]) * scale)
    return levels


def synthesize(levels: list[np.ndarray], mean: np.ndarray) -> GridVector:
    """Rebuild the grid vector mean + sum_I c_I h_I from per-level coefficients."""
    depth, dim = len(levels), len(mean)
    current = mean[None, :].copy()
    for k in range(depth):
        amp = 2.0 ** (k / 2.0)
        nxt = np.empty((2 << k, dim))
        nxt[0::2] = current + levels[k] * amp
        nxt[1::2] = current - levels[k] * amp
        current = nxt
    return GridVector(depth, dim, current)


def sw_norm_squared(weight: MatrixWeight, f: GridVector) -> float:
    """||S_W f||^2 = sum_I <<W>_I (f,h_I), (f,h_I)>, exact finite sum."""
    if weight.depth != f.depth or weight.dim != f.dim:
        raise ValueError("weight and function dimensions do not match")
    terms = []
    for k, c in enumerate(analyze(f)):
        avg = weight.field.level_averages(k)
        terms.append(np.einsum("ni,nij,nj->n", c, avg, c))
    total = float(sum(np.sum(t) for t in terms))
    if not math.isfinite(total):
        raise ValueError("||S_W f||^2 overflows the float range")
    return total


def s3w_norm_squared(weight: MatrixWeight, g: GridVector, intervals) -> float:
    """Sparse square function energy sum_L <|| <W>_L^{1/2} g ||>_L^2 |L| over `intervals`."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for interval in intervals:
            root_w = weight.sqrt_average(interval)
            block = g.values[interval.leaf_slice(g.depth)]
            mean_norm = float(np.mean(np.linalg.norm(block @ root_w, axis=1)))
            total += mean_norm * mean_norm * interval.measure
    if not math.isfinite(total):
        raise ValueError("the sparse square function energy overflows the float range")
    return total
