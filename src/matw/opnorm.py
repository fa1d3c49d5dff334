"""Operator norm of the weighted square function by preconditioned LOBPCG.

The squared norm is the largest generalized eigenvalue of the pair (Q, P),
  Q(f) = sum_I <<W>_I (f,h_I), (f,h_I)> = <A f, f>,      P(f) = integral <W f, f>.
A is applied matrix-free through Haar analysis and synthesis with <W>_I
multipliers; P is block diagonal over leaves, and the pointwise inverse W^-1,
which the weight builds on its first read, preconditions the search.

Each step is single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001):
Rayleigh-Ritz on span{x, w, p}, where w = W^-1 A x - mu x is the preconditioned
residual of the iterate x at its Rayleigh quotient mu and p is the last step's
update. The step analyzes and synthesizes w once, as a power step does its
iterate, and keeps A x and A p as running combinations, so no vector is
applied twice and no P-product is formed: P(w, x) = 0 and P(w) = <A x, w> by
the choice of mu, P(p, w) = <A x, p> - mu P(p, x), and P(p, x), P(p) and Q(p)
are carried through the 3 x 3 algebra. When those carried entries fail, that
is when the Gram matrix of P is not safely positive definite or the Ritz value
falls, p is dropped, P(x) is measured and the step is redone on span{x, w}.
The loop stops when two successive steps each raise the Ritz value by at most
rel_tol of it, or when w is rounding, that is when x is an eigenvector to
working precision; a step that raises the Ritz value by rounding only shows
the same, since the rise of Rayleigh-Ritz on span{x, w} is at least about
P(w) / mu. The Rayleigh quotient of the final iterate is returned
together with the iterate itself, converged or not. It is a lower bound of the
squared norm only up to the rounding of <W(x) f, f>: on the ill-conditioned
leaves of tests/test_spine.py it lies up to 0.26 cond(W(x)) u above the exact
value. ROADMAP item 1 is the certified bound.

The step works component-major, on (d, n) arrays, so that every batched d x d
product and every tree sum runs along the long index. The average tree of the
analyzed vector is one (d, 2^(N+1) - 1) buffer in heap order: node i has
children 2i+1 and 2i+2, level k is the range [2^k - 1, 2^(k+1) - 1), and the
leaves are [2^N - 1, 2^(N+1) - 1). The Haar coefficient of internal node i is
then buf[:, 2i+1] - buf[:, 2i+2] times 0.5 |I|^{1/2}, and synthesis writes the
image back down the same buffer. <W>_I is read as one (d, d, 2^k) copy per
tree level and W^-1 as one (d, d, 2^N) copy; both are views when d = 1.
haar.analyze keeps the per-level (2^k, d) layout that the rest of the
package reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import GridVector
from .haar import sw_norm_squared
from .weights import MatrixWeight


# P(W^-1 A x - mu x) at or below this share of mu^2 P(x) is rounding: x is an eigenvector
_RESIDUAL_FLOOR = 64 * np.finfo(float).eps
# a Gram matrix pivot, on unit diagonal, below this drops the search direction
_PIVOT_FLOOR = 1e-10
_OVERFLOW = "the operator norm's Rayleigh-Ritz entries overflow the float range"


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
        energy = 0.0
        # top down, level k's coefficients overwrite its averages, which level
        # k - 1 has already read
        for k in range(self.depth):
            lo, hi = (1 << k) - 1, (2 << k) - 1
            ck, wck = buf[:, lo:hi], wc[:, lo:hi]
            np.subtract(buf[:, hi:2 * hi + 1:2], buf[:, hi + 1:2 * hi + 1:2], out=ck)
            ck *= 0.5 * 2.0 ** (-k / 2.0)
            np.einsum("ijn,jn->in", self.avg[k], ck, out=wck)
            energy += np.einsum("in,in->", ck, wck)
        return float(energy)

    def synthesize(self, out: np.ndarray) -> None:
        """Leaf values of sum_I wc_I h_I into out; overwrites buf above the leaves, and wc."""
        buf, wc = self.buf, self.wc
        buf[:, 0] = 0.0
        for k in range(self.depth):
            lo, hi = (1 << k) - 1, (2 << k) - 1
            step = wc[:, lo:hi]
            step *= 2.0 ** (k / 2.0)
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum, not a BLAS dot, whose sum order follows the thread count
    return float(np.einsum("in,in->", a, b))


def _ritz(ga: np.ndarray, gb: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Top eigenpair (theta, c) of ga c = theta gb c with c' gb c = 1.

    None when gb, scaled to unit diagonal, is not safely positive definite: some
    basis vector then lies within the rounding of the span of the others.
    """
    if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
        raise ValueError(_OVERFLOW)
    diag = np.diag(gb)
    if not np.all(diag > 0.0):
        return None
    scale = 1.0 / np.sqrt(diag)
    try:
        chol = np.linalg.cholesky(gb * np.outer(scale, scale))
    except np.linalg.LinAlgError:
        return None
    if np.min(np.diag(chol)) ** 2 < _PIVOT_FLOOR:
        return None
    inv = np.linalg.inv(chol)
    vals, vecs = np.linalg.eigh(inv @ (ga * np.outer(scale, scale)) @ inv.T)
    c = scale * (inv.T @ vecs[:, -1])
    return float(vals[-1]), c


def estimate_operator_norm(weight: MatrixWeight,
                           opts: PowerIterationOptions = PowerIterationOptions()
                           ) -> OperatorNormEstimate:
    """Largest generalized eigenvalue of (Q, P) with a certifying witness."""
    if weight.depth == 0:
        # no Haar interval, so Q = 0; the witness is the P-normalized constant e_1
        vals = np.zeros((1, weight.dim))
        vals[0, 0] = 1.0 / np.sqrt(weight.field.values[0, 0, 0])
        return OperatorNormEstimate(0.0, GridVector(0, weight.dim, vals), 0, True)
    cell = 2.0 ** -weight.depth

    def measured_p(v: np.ndarray) -> float:
        return float(np.einsum("in,nij,jn->", v, weight.field.values, v)) * cell

    heap = _HaarHeap(weight, start_vector(weight, opts.seed).values)
    heap.analyze()
    # x is the iterate; w, the preconditioned residual, is analyzed in place
    x, w = heap.leaves.copy(), heap.leaves
    ax, aw, p, ap = (np.empty_like(x) for _ in range(4))
    heap.synthesize(ax)
    inverse = np.ascontiguousarray(weight.inverse_field.values.transpose(1, 2, 0))
    xi = measured_p(x)  # P(x): measured here and on a restart, 1 after each step
    has_p = False
    s = t = u = 0.0  # P(p, x), P(p) and Q(p), carried from the last step
    theta_prev = None
    calm = converged = False
    iters = 0
    while iters < opts.max_iters:
        rho = _dot(x, ax) * cell
        mu = rho / xi
        np.einsum("ijn,jn->in", inverse, ax, out=w)
        np.multiply(x, mu, out=aw)
        w -= aw
        gamma = _dot(w, ax) * cell
        floor = _RESIDUAL_FLOOR * mu * mu * xi
        if not math.isfinite(floor + gamma):
            raise ValueError(_OVERFLOW)
        if gamma <= floor:
            if has_p:
                # measure P(x) before taking x for an eigenvector
                has_p, xi = False, measured_p(x)
                continue
            # W^-1 A x = mu x to rounding: x is an eigenvector
            converged = True
            break
        iters += 1
        eta = heap.analyze()
        heap.synthesize(aw)
        step = None
        if has_p:
            alpha, beta = _dot(ax, p) * cell, _dot(w, ap) * cell
            ga = np.array([[rho, gamma, alpha], [gamma, eta, beta], [alpha, beta, u]])
            gb = np.array([[xi, 0.0, s], [0.0, gamma, alpha - mu * s],
                           [s, alpha - mu * s, t]])
            step = _ritz(ga, gb)
            if step is None or (theta_prev is not None and step[0] < theta_prev):
                # the carried entries broke down: drop p, measure P(x) and
                # recentre w on the measured Rayleigh quotient
                has_p, xi = False, measured_p(x)
                shift, mu = mu - rho / xi, rho / xi
                w += np.multiply(x, shift, out=p)
                aw += np.multiply(ax, shift, out=ap)
                gamma, eta = _dot(w, ax) * cell, _dot(w, aw) * cell
                if gamma <= _RESIDUAL_FLOOR * mu * mu * xi:
                    converged = True
                    break
        if not has_p:
            ga = np.array([[rho, gamma], [gamma, eta]])
            gb = np.array([[xi, 0.0], [0.0, gamma]])
            step = _ritz(ga, gb)
        theta, c = step
        # p <- c1 w + c2 p and x <- c0 x + p, each with its image under A
        q = c.copy()
        q[0] = 0.0
        s, t, u = float(q @ gb @ c), float(q @ gb @ q), float(q @ ga @ q)
        w *= c[1]
        aw *= c[1]
        if has_p:
            p *= c[2]
            p += w
            ap *= c[2]
            ap += aw
        else:
            p[...] = w
            ap[...] = aw
            has_p = True
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
        xi = 1.0
        # a Ritz value that falls is never calm; one that rises by rounding only
        # needs no second calm step, as the rise bounds P(w) by the floor below
        calm_now = (theta_prev is not None
                    and theta_prev <= theta <= theta_prev + opts.rel_tol * theta)
        if calm_now and (calm or theta - theta_prev <= _RESIDUAL_FLOOR * theta):
            converged = True
            break
        calm, theta_prev = calm_now, theta
    # the loop's buffers go before the witness checks and the Rayleigh quotient allocate
    del heap, inverse, w, ax, aw, p, ap
    f = GridVector(weight.depth, weight.dim, x.T)
    return OperatorNormEstimate(rayleigh_quotient(weight, f), f, iters, converged)
