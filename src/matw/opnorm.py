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

The step works component-major, on (d, n) arrays, so that every batched d x d
product and every tree sum runs along the long index. The iterate's average
tree is one (d, 2^(N+1) - 1) buffer in heap order: node i has children 2i+1
and 2i+2, level k is the range [2^k - 1, 2^(k+1) - 1), and the leaves are
[2^N - 1, 2^(N+1) - 1). The Haar coefficient of internal node i is then
buf[:, 2i+1] - buf[:, 2i+2] times 0.5 |I|^{1/2}, and synthesis writes the
image back down the same buffer. <W>_I is read as one (d, d, 2^k) copy per
tree level and W^-1 as one (d, d, 2^N) copy; both are views when d = 1.
haar.analyze keeps the per-level (2^k, d) layout that the rest of the
package reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import GridVector
from .haar import sw_norm_squared
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


class _HaarHeap:
    """The map f -> <W>_I (f, h_I) -> sum_I <W>_I (f, h_I) h_I on one heap buffer.

    `leaves` is the leaf block of `buf`, (d, 2^N); `wc[:, i]` holds <W>_I c_I
    of internal node i after `analyze`.
    """

    def __init__(self, weight: MatrixWeight, leaf_values: np.ndarray):
        n = weight.field.n_leaves
        self.depth = weight.depth
        self.buf = np.empty((weight.dim, 2 * n - 1))
        self.leaves = self.buf[:, n - 1:]
        self.leaves[...] = leaf_values.T
        self.wc = np.empty((weight.dim, n - 1))
        self.avg = [np.ascontiguousarray(weight.field.level_averages(k).transpose(1, 2, 0))
                    for k in range(weight.depth)]

    def analyze(self) -> float:
        """<W>_I c_I of the leaves into wc; returns Q(leaves) = sum_I <c_I, <W>_I c_I>."""
        buf, wc = self.buf, self.wc
        # levels N-1 .. 1 only: no coefficient reads the root mean
        for k in range(self.depth - 1, 0, -1):
            lo, hi = (1 << k) - 1, (2 << k) - 1
            level = buf[:, lo:hi]
            np.add(buf[:, hi:2 * hi + 1:2], buf[:, hi + 1:2 * hi + 1:2], out=level)
            level *= 0.5
        c = buf[:, 1::2] - buf[:, 2::2]
        energy = 0.0
        for k in range(self.depth):
            lo, hi = (1 << k) - 1, (2 << k) - 1
            ck, wck = c[:, lo:hi], wc[:, lo:hi]
            ck *= 0.5 * 2.0 ** (-k / 2.0)
            np.einsum("ijn,jn->in", self.avg[k], ck, out=wck)
            energy += np.sum(ck * wck)
        return float(energy)

    def synthesize(self, out: np.ndarray) -> None:
        """Leaf values of sum_I wc_I h_I into out; overwrites buf above the leaves."""
        buf, wc = self.buf, self.wc
        buf[:, 0] = 0.0
        for k in range(self.depth):
            lo, hi = (1 << k) - 1, (2 << k) - 1
            step = wc[:, lo:hi] * 2.0 ** (k / 2.0)
            below = out if k == self.depth - 1 else buf[:, hi:2 * hi + 1]
            np.add(buf[:, lo:hi], step, out=below[:, 0::2])
            np.subtract(buf[:, lo:hi], step, out=below[:, 1::2])


def apply_form(weight: MatrixWeight, f: GridVector) -> GridVector:
    """(A f)(x) = sum_I <W>_I (f, h_I) h_I(x), the linear map behind Q."""
    heap = _HaarHeap(weight, f.values)
    heap.analyze()
    image = np.zeros_like(heap.leaves)
    heap.synthesize(image)
    return GridVector(f.depth, f.dim, image.T)


def weighted_l2_sq(weight: MatrixWeight, f: GridVector) -> float:
    """P(f) = integral <W f, f>, an exact leafwise sum."""
    vals = np.einsum("ni,nij,nj->n", f.values, weight.field.values, f.values)
    return float(np.sum(vals) * 2.0 ** -f.depth)


def rayleigh_quotient(weight: MatrixWeight, f: GridVector) -> float:
    return sw_norm_squared(weight, f) / weighted_l2_sq(weight, f)


def start_vector(weight: MatrixWeight, seed: int) -> GridVector:
    """Deterministic mean-zero start; constants are the kernel of Q."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((weight.field.n_leaves, weight.dim))
    vals -= vals.mean(axis=0)
    return GridVector(weight.depth, weight.dim, vals)


def estimate_operator_norm(weight: MatrixWeight,
                           opts: PowerIterationOptions = PowerIterationOptions()
                           ) -> OperatorNormEstimate:
    """Largest generalized eigenvalue of (Q, P) with a certifying witness."""
    if weight.depth == 0:
        # no Haar interval, so Q = 0; the witness is the P-normalized constant e_1
        vals = np.zeros((1, weight.dim))
        vals[0, 0] = 1.0 / np.sqrt(weight.field.values[0, 0, 0])
        return OperatorNormEstimate(0.0, GridVector(0, weight.dim, vals), 0, True)
    heap = _HaarHeap(weight, start_vector(weight, opts.seed).values)
    heap.analyze()
    inverse = np.ascontiguousarray(weight.inverse_field.values.transpose(1, 2, 0))
    image, g = np.empty_like(heap.leaves), np.empty_like(heap.leaves)
    lam_prev = None
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        heap.synthesize(image)
        np.einsum("ijn,jn->in", inverse, image, out=g)
        # P(g) = integral <W g, g> = integral <image, g> for g = W^-1 image
        norm = np.sqrt(float(np.sum(image * g)) * 2.0 ** -weight.depth)
        if norm == 0.0:
            break
        np.divide(g, norm, out=heap.leaves)
        lam = heap.analyze()
        if lam_prev is not None and abs(lam - lam_prev) <= opts.rel_tol * max(lam, 1e-300):
            converged = True
            break
        lam_prev = lam
    f = GridVector(weight.depth, weight.dim, heap.leaves.T)
    # the loop's buffers go before the Rayleigh quotient allocates its own
    del heap, inverse, image, g
    return OperatorNormEstimate(rayleigh_quotient(weight, f), f, iters, converged)
