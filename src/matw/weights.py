"""Matrix weights, their A2 / A-infinity characteristics, and test families.

A weight is a grid of symmetric positive definite matrices. Averages of the
weight are cached over the whole dyadic tree at construction, because every
characteristic and every stopping-time query walks them at all scales. The
pointwise inverse W^-1 and its averages are built on first use: A2, the
A-infinity of W^-1 and the norm's preconditioner read them, the stopping-time
certificates never do. Square roots of the averages are taken only for the
intervals that ask for one.

A2 bounds every interval's top eigenvalue from the traces of <W>_I <W^-1>_I and
its square (Wolkowicz-Styan), and eigensolves only the intervals whose bound
reaches the largest eigenvalue found, so it reads the same bits as an
eigensolve of every interval.

The A-infinity characteristic of a matrix weight is a supremum over directions
and is not computable exactly; ainfty_characteristic samples coordinate
directions, eigenvector directions of coarse-scale averages, and quasi-uniform
unit vectors, so the reported number is a certified lower bound of the true
supremum. For scalar weights (d = 1) it is exact. It reads a GridMatrixField,
so [W^-1]_{A_infinity} is taken on a weight's inverse_field.

The direction weights w_e(x) = <W(x) e, e> of a block of directions come from
one BLAS product, their outer products (c, d^2) times the leaves (d^2, 2^N),
and the block goes straight to the Fujii-Wilson fold, which overwrites it
level by level and stores no average tree. A block holds max(1, 2^17 >> N)
directions, at most 2^17 floats (1 MB) up to N = 17 and one direction past
it, so memory does not grow with the number of directions. At d = 1, e = +-1
and the product is exact. At d > 1 it rounds differently from a per-direction
sum of W_ij e_i e_j: leaf values of w_e move by a few units in the last place
(up to 6e-15 relative on the five families at N <= 14), and the sampled
A-infinity by one or two units (at most 2.6e-16 relative at N <= 10). The
fold takes rows of fewer than 8 leaves column by column, with the same bits
as numpy's mean (see _fujii_wilson_fold).

Every family hands MatrixWeight the spectrum it builds its leaves from, so no
family leaf is eigensolved after it is made. The diagonal families (identity,
scalar_power, block_scalar) hand their diagonal and the coordinates, unsorted;
their inverse, A2 and A-infinity are those of an eigh of the leaves, bit for
bit. rotating hands lam = exp(t cos 2 pi x) on (c, s) and 1/lam on (-s, c);
its inverse moves from an eigh's by at most 2.5e-15 of its largest entry and
A2 by 6.8e-16 relative (N <= 12, t <= 2). random_log_pd builds its leaves as
V exp(L) V^T from an eigh of a symmetric draw and hands (exp(L), V). Its
inverse V exp(-L) V^T then rounds differently from an eigh of the stored
leaves, by at most 22 cond(W(x)) u ||W(x)^-1|| per leaf at N <= 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .dyadic import DyadicInterval, GridMatrixField, GridScalar, read_grid_json
from .linalg import EPS_PD, PSD_TOL, psd_power_stack, top_eigenvalue_stack

FAMILY_KINDS = ("identity", "scalar_power", "block_scalar", "rotating", "random_log_pd")
NORMAL_MIN = float(np.finfo(float).tiny)  # leaf eigenvalues lie in [NORMAL_MIN, 1 / NORMAL_MIN]
AINFTY_BLOCK_FLOATS = 1 << 17  # direction weights held at once by ainfty_characteristic


def _check_leaf_spectrum(vals: np.ndarray, eps_pd: float) -> None:
    """Raise unless every leaf's eigenvalues (a row of vals, in any order) are
    positive, clear eps_pd times the largest, and have inverses in the float
    range. Its leaf-sized temporaries are freed on return, before the weight
    builds its average tree."""
    lo, hi = vals.min(axis=1), vals.max(axis=1)
    if np.any(hi <= 0.0) or np.any(lo < -PSD_TOL * hi):
        raise ValueError("weight has a non positive definite leaf")
    if np.any(lo < eps_pd * hi):
        worst = float(np.min(lo / hi))
        raise ValueError(f"singular weight: leaf eigenvalue ratio {worst:.3e} below {eps_pd:.1e}")
    outside = (lo < NORMAL_MIN) | (hi > 1.0 / NORMAL_MIN)
    if np.any(outside):
        k = int(np.argmax(outside))
        val = lo[k] if lo[k] < NORMAL_MIN else hi[k]
        raise ValueError(f"leaf {k} has eigenvalue {val:.3e}, whose inverse leaves the float range")


class MatrixWeight:
    """A positive definite matrix weight, with W^-1 and its averages on first use.

    Positivity is enforced per leaf matrix: the smallest eigenvalue must clear
    eps_pd relative to that leaf's largest eigenvalue, so pointwise inverses
    are trustworthy. eps_pd itself may not fall below EPS_PD, nor below
    4 d^2 times the machine epsilon. The spread across the grid is not enforced; extreme
    power-law weights are legitimate inputs whose leaves are individually well
    conditioned. A caller that built the leaves from their eigendecomposition
    passes it as spectrum, eigenvalues in any order; the checks and the
    inverse then read it in place of an eigh of the leaves.

    The constructor builds the average tree of W only. inverse_field, W^-1
    from the checked spectrum, is built on its first read, which drops the
    spectrum, and its average tree on its first query. Its own checks cannot
    fail then: every entry is at most 1 / NORMAL_MIN, below half the float
    range.
    """

    def __init__(self, field: GridMatrixField, eps_pd: float = EPS_PD, metadata: dict | None = None,
                 *, spectrum: tuple[np.ndarray, np.ndarray] | None = None):
        # a floor on eps_pd bounds cond(<W>_I) by 1/eps_pd, which the stopping scan's trace filter needs
        floor = max(EPS_PD, 4.0 * field.dim * field.dim * float(np.finfo(float).eps))
        if not eps_pd >= floor:
            raise ValueError(f"eps_pd {eps_pd:.1e} is below the floor {floor:.1e}")
        # spectrum: the leaves' eigenvalues (n, d) and eigenvectors (n, d, d), if known
        vals, vecs = np.linalg.eigh(field.values) if spectrum is None else spectrum
        _check_leaf_spectrum(vals, eps_pd)
        self.field = field
        self.eps_pd = eps_pd
        self.metadata = dict(metadata) if metadata else {}
        self._spectrum = (vals, vecs)
        self._sqrt_cache: dict[DyadicInterval, np.ndarray] = {}
        # averages of W at every scale are queried constantly; build the tree now
        self.field.average_tree()

    @cached_property
    def inverse_field(self) -> GridMatrixField:
        vals, vecs = self._spectrum
        del self._spectrum
        inv_vals = np.einsum("nij,nj,nkj->nik", vecs, 1.0 / vals, vecs)
        return GridMatrixField(self.depth, self.dim, inv_vals)

    @property
    def depth(self) -> int:
        return self.field.depth

    @property
    def dim(self) -> int:
        return self.field.dim

    def sqrt_average(self, interval: DyadicInterval) -> np.ndarray:
        """<W>_I^{1/2}, cached by interval; psd_power_stack on a stack of one
        reads the same bits as on the interval's whole level."""
        if interval not in self._sqrt_cache:
            row = self.field.level_averages(interval.level)[interval.index:interval.index + 1]
            self._sqrt_cache[interval] = psd_power_stack(row, 0.5)[0]
        return self._sqrt_cache[interval]

    def to_json_dict(self) -> dict:
        obj = self.field.to_json_dict()
        obj["schema"] = "matw.weight/1"
        obj["metadata"] = {"eps_pd": self.eps_pd, **self.metadata}
        return obj


def load_weight(path: str) -> MatrixWeight:
    obj = read_grid_json(path)
    meta = obj.get("metadata", {})
    if not isinstance(meta, dict):
        raise ValueError(f"'metadata' must be a JSON object, got {type(meta).__name__}")
    field = GridMatrixField.from_json_dict(obj)
    eps_pd = float(meta.get("eps_pd", EPS_PD))
    return MatrixWeight(field, eps_pd=eps_pd, metadata={k: v for k, v in meta.items() if k != "eps_pd"})


def matrix_weight_from_scalar(w: GridScalar, eps_pd: float = EPS_PD) -> MatrixWeight:
    field = GridMatrixField(w.depth, 1, w.values.reshape(-1, 1, 1))
    return MatrixWeight(field, eps_pd=eps_pd)


def _a2_trace_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An upper bound of the top eigenvalue of each product a @ b in two stacks
    (n, d, d) of positive definite matrices; NaN or inf where it overflows.

    The eigenvalues of M = a b are those of the PSD sandwich a^{1/2} b a^{1/2},
    so with t = tr M, t2 = tr M^2, m = t/d and s^2 = t2/d - m^2 the top one is
    at most m + sqrt((d-1) s^2) (Wolkowicz-Styan, Linear Algebra Appl. 29,
    1980). The rounding margin delta is set per row. Let u be the unit roundoff
    and K = ||a|| ||b|| / lambda_max, so K <= cond(a) <= 1/eps_pd; the cheap
    k = d tr(a) tr(b) / t has K <= k <= d^3 K. To first order in u, the
    computed t lies within 2 d^2 u K lambda_max of the exact one, t2 within
    3 d^3 u K^2 lambda_max^2, and the eigenvalue that a2_characteristic
    computes within a few d u K lambda_max. So delta = 64 d^4 u k^2 inflates
    s^2 by delta t2 / d and the bound by the factor 1 + delta. As the t2 error
    grows like K^2, a delta fixed from eps_pd alone, 64 d^4 u / eps_pd^2, would
    exceed 1 at the default eps_pd and skip nothing; per row it is 4e-9 in the
    median leaf of random_log_pd at d = 4, t = 1, and 32 eps at d = 1. A row
    whose delta leaves first order (above 1/16) gets the bound inf.
    """
    d = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ab = a @ b
        t = np.einsum("nii->n", ab)
        t2 = np.einsum("nij,nji->n", ab, ab)
        del ab
        k = d * np.einsum("nii->n", a)
        k *= np.einsum("nii->n", b)
        k /= t
        delta = np.multiply(k, 32.0 * d**4 * float(np.finfo(float).eps) * k, out=k)
        m = np.divide(t, d, out=t)
        s2 = t2 / d
        s2 -= m * m
        np.maximum(s2, 0.0, out=s2)
        t2 *= delta
        s2 += np.divide(t2, d, out=t2)
        s2 *= d - 1
        np.sqrt(s2, out=s2)
        s2 += m
        s2 *= 1.0 + delta
    s2[~(delta <= 1.0 / 16.0)] = np.inf
    return s2


def _a2_sandwich_tops(weight: MatrixWeight, level: int, rows: np.ndarray) -> np.ndarray:
    """Top eigenvalues of <W>_I^{1/2} <W^-1>_I <W>_I^{1/2} for the given rows of one level."""
    sqrt_w = psd_power_stack(weight.field.level_averages(level)[rows], 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        sandwich = sqrt_w @ weight.inverse_field.level_averages(level)[rows] @ sqrt_w
    if not np.all(np.isfinite(sandwich)):
        raise ValueError(f"A2 overflows at level {level}: "
                         "<W>^1/2 <W^-1> <W>^1/2 has non-finite entries")
    return top_eigenvalue_stack(sandwich)


def a2_characteristic(weight: MatrixWeight) -> float:
    """sup over all dyadic intervals of ||<W>_I^{1/2} <W^-1>_I^{1/2}||^2, each
    the top eigenvalue of <W>_I^{1/2} <W^-1>_I <W>_I^{1/2}.

    The interval with the largest trace bound (_a2_trace_bounds) is eigensolved
    first; then every interval whose bound is not below that value, NaN and
    inf included, level by level. An interval left out has a computed
    eigenvalue below its bound, so it could not have set the max, and the
    result is the same float as an eigensolve of every interval. If the first
    eigensolve fails, every interval is kept, and the first failing level
    raises, as a full pass would.
    """
    inverse = weight.inverse_field
    bounds = [_a2_trace_bounds(weight.field.level_averages(level), inverse.level_averages(level))
              for level in range(weight.depth + 1)]
    level = int(np.argmax([np.max(bound) for bound in bounds]))  # a NaN is taken first
    try:
        first_top = float(_a2_sandwich_tops(weight, level, np.array([np.argmax(bounds[level])]))[0])
    except ValueError:
        first_top = 0.0
    best = first_top
    for level, bound in enumerate(bounds):
        rows = np.flatnonzero(~(bound < first_top))
        if rows.size:
            best = max(best, float(np.max(_a2_sandwich_tops(weight, level, rows))))
    return best


def _direction_weights(field: GridMatrixField, dirs: np.ndarray) -> np.ndarray:
    """Rows w_e(x) = <W(x) e, e> for a block of unit directions dirs (c, d): one
    BLAS product of their outer products (c, d^2) with the leaves (d^2, 2^N)."""
    d2 = field.dim * field.dim
    outer = (dirs[:, :, None] * dirs[:, None, :]).reshape(len(dirs), d2)
    return outer @ field.values.reshape(-1, d2).T


def _fujii_wilson_fold(rows: np.ndarray) -> float:
    """max over the rows of a stack (c, 2^N), each row a weight w, of
    sup_I <M_I w>_I / <w>_I, with M_I the dyadic maximal function localized
    to I. Overwrites a writable C-contiguous stack.

    One bottom-up pass, O(N 2^N) per row: once root level r is folded in,
    row[x] = M_I w(x) for the interval I of level r that contains x. Each
    level's averages are made from the level below as the pass goes, so no
    tree is stored. Root level N is not folded: each of its ratios is
    w(x) / w(x) = 1. numpy's mean adds a row of fewer than 8 values left to
    right, so such rows are folded column by column: a strided max per
    column, then the columns added left to right, the same bits in a few long
    passes instead of one short reduction per row. From 8 values on numpy
    sums pairwise, so wider rows keep mean.
    """
    lo, hi = float(np.min(rows)), float(np.max(rows))
    if not (lo > 0.0 and hi <= np.finfo(float).max / 2):
        raise ValueError("weight must be positive and within half the float range")
    c, n = rows.shape
    best, avg = 1.0, rows
    for root_level in range(n.bit_length() - 2, -1, -1):
        avg = np.add(avg[:, 0::2], avg[:, 1::2])
        avg *= 0.5
        flat = avg.reshape(-1)
        view = rows.reshape(c << root_level, -1)  # a row: the leaves under one interval
        width = view.shape[1]
        if width < 8:
            cols = [view[:, j] for j in range(width)]
            for col in cols:
                np.maximum(col, flat, out=col)
            mean = cols[0].copy()
            for col in cols[1:]:
                mean += col
            mean /= width
        else:
            np.maximum(view, flat[:, None], out=view)
            mean = view.mean(axis=1)
        best = max(best, float(np.max(np.divide(mean, flat, out=mean))))
    return best


def fujii_wilson_constant(w: GridScalar) -> float:
    """sup_I <M_I w>_I / <w>_I with M_I the dyadic maximal function localized to I."""
    return _fujii_wilson_fold(w.values[None].copy())


def _radical_inverse(base: int, index: int) -> float:
    inv = 0.0
    digit = 1.0 / base
    while index > 0:
        index, rem = divmod(index, base)
        inv += rem * digit
        digit /= base
    return inv


def _first_primes(count: int) -> list[int]:
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def halton_sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform unit vectors: Halton points pushed through the normal inverse CDF."""
    if count <= 0:
        return np.zeros((0, dim))
    bases = _first_primes(dim)
    start = 1 + (seed % 10007)
    inv_cdf = NormalDist().inv_cdf
    out = np.empty((count, dim))
    row, index = 0, start
    while row < count:
        z = np.array([inv_cdf(min(max(_radical_inverse(b, index), 1e-12), 1 - 1e-12)) for b in bases])
        index += 1
        norm = np.linalg.norm(z)
        if norm < 1e-9:
            continue
        out[row] = z / norm
        row += 1
    return out


def ainfty_directions(field: GridMatrixField, n_directions: int, seed: int = 0) -> np.ndarray:
    """Direction set: coordinates, coarse-scale average eigenvectors, Halton fill."""
    d = field.dim
    if n_directions < 2 * d:
        raise ValueError(f"n_directions must be at least 2*dim = {2 * d}")
    dirs = [np.eye(d)]
    for level in range(min(field.depth, 4) + 1):
        _, vecs = np.linalg.eigh(field.level_averages(level))
        dirs.append(vecs.transpose(0, 2, 1).reshape(-1, d))
    stacked = np.concatenate(dirs, axis=0)
    stacked /= np.linalg.norm(stacked, axis=1, keepdims=True)
    # greedy: a candidate is kept unless it is within 1e-10 of a kept one, up to sign
    apart = np.abs(stacked @ stacked.T) < 1.0 - 1e-10
    kept: list[int] = []
    for i in range(len(stacked)):
        if apart[i, kept].all():
            kept.append(i)
    fill = halton_sphere_directions(d, n_directions - len(kept), seed)
    return np.concatenate([stacked[kept], fill])


def ainfty_characteristic(field: GridMatrixField, n_directions: int, seed: int = 0) -> float:
    """Sampled matrix A-infinity characteristic sup_e [W_e]_{A_infinity} of the field W.

    A lower bound of the true supremum over directions; exact for d = 1.
    W_e = W_{-e} holds bit for bit, so a direction equal to -u for an already
    evaluated u is skipped, as is an exact repeat. The direction weights are
    built and folded AINFTY_BLOCK_FLOATS >> N directions at a time, at least
    one.
    """
    distinct: list[np.ndarray] = []
    seen: set[tuple[float, ...]] = set()
    for e in ainfty_directions(field, n_directions, seed):
        key = tuple(e.tolist())
        if key not in seen:
            seen.update((key, tuple((-e).tolist())))
            distinct.append(e)
    block = max(1, AINFTY_BLOCK_FLOATS >> field.depth)
    return max(_fujii_wilson_fold(_direction_weights(field, np.array(distinct[start:start + block])))
               for start in range(0, len(distinct), block))


@dataclass(frozen=True)
class WeightFamilySpec:
    """Deterministic recipe for a test weight: family kind, size, parameter, seed.

    At d >= 2, scalar_power and block_scalar pair a leaf value 2^(-N 2t/(1-t))
    with 1 on leaf 0, so generate_weight builds them only while
    N 2t/(1-t) <= log2(1/eps_pd), 33.2 at the default eps_pd (t <= 0.54 at
    N = 14, t <= 0.62 at N = 10), and raises "singular weight" past it.
    """

    kind: str
    dim: int
    depth: int
    parameter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.dim < 1 or self.depth < 0:
            raise ValueError("dim must be >= 1 and depth >= 0")
        if self.parameter < 0:
            raise ValueError("parameter must be nonnegative")
        if self.kind in ("scalar_power", "block_scalar") and not self.parameter < 1.0:
            raise ValueError("power family parameter must lie in [0, 1)")
        if self.kind == "rotating" and self.dim != 2:
            raise ValueError("rotating family is two dimensional")


def scalar_power_leaf_values(depth: int, t: float) -> np.ndarray:
    """Lacunary-block power weight, value 2^(-m*2t/(1-t)) on leaves in [2^-m-1, 2^-m].

    Discrete analogue of |x|^(2t/(1-t)); its A2 characteristic grows without
    bound as t -> 1 at fixed depth.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    alpha = 2.0 * t / (1.0 - t)
    w = np.ones(1 << depth)
    w[0] = 2.0 ** (-depth * alpha)
    for m in range(depth):
        lo, hi = 1 << (depth - m - 1), 1 << (depth - m)
        w[lo:hi] = 2.0 ** (-m * alpha)
    return w


def _leaf_log2_bound(spec: WeightFamilySpec) -> float:
    """A bound of |log2 lambda| over the eigenvalues lambda of every leaf of the spec."""
    t = spec.parameter
    if spec.kind in ("scalar_power", "block_scalar"):
        return spec.depth * 2.0 * t / (1.0 - t)  # leaf values 2^(-m 2t/(1-t)), m <= depth
    if spec.kind == "rotating":
        return t * math.log2(math.e)  # eigenvalues exp(+-t cos)
    if spec.kind == "random_log_pd":
        return spec.dim * t * math.log2(math.e)  # exp of a symmetric matrix, entries in [-t, t]
    return 0.0


def _family_leaves(spec: WeightFamilySpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaves (n, d, d) of a family weight, their eigenvalues (n, d) and
    eigenvectors (n, d, d). A function of its own, so that the draws and other
    leaf-sized locals are freed before the weight is checked."""
    n, d, t = 1 << spec.depth, spec.dim, spec.parameter
    if spec.kind == "random_log_pd":
        rng = np.random.default_rng(spec.seed)
        rows, cols = np.triu_indices(d)
        draws = rng.uniform(-t, t, size=(n, len(rows)))
        sym = np.zeros((n, d, d))
        sym[:, rows, cols] = draws
        sym[:, cols, rows] = draws
        logs, vecs = np.linalg.eigh(sym)
        eigs = np.exp(logs)
        values = np.einsum("nij,nj,nkj->nik", vecs, eigs, vecs)
    elif spec.kind == "rotating":
        # lam on (c, s) and 1/lam on (-s, c)
        x = (np.arange(n) + 0.5) / n
        lam = np.exp(t * np.cos(2.0 * np.pi * x))
        c, s = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        values = np.empty((n, 2, 2))
        values[:, 0, 0] = lam * c * c + s * s / lam
        values[:, 1, 1] = lam * s * s + c * c / lam
        values[:, 0, 1] = values[:, 1, 0] = (lam - 1.0 / lam) * c * s
        eigs = np.stack([lam, 1.0 / lam], axis=1)
        vecs = np.stack([c, -s, s, c], axis=1).reshape(n, 2, 2)
    else:
        # diagonal leaves: the diagonal is the spectrum, the coordinates its eigenvectors
        eigs = np.ones((n, d))
        if spec.kind == "scalar_power":
            eigs[:, 0] = scalar_power_leaf_values(spec.depth, t)
        elif spec.kind == "block_scalar":
            # staggered parameters t/2^i, alternating orientation per coordinate
            for i in range(d):
                vals = scalar_power_leaf_values(spec.depth, t / (1 << i))
                eigs[:, i] = vals[::-1] if i % 2 else vals
        values = np.zeros((n, d, d))
        values[:, range(d), range(d)] = eigs
        vecs = np.broadcast_to(np.eye(d), (n, d, d))
    return values, eigs, vecs


def generate_weight(spec: WeightFamilySpec) -> MatrixWeight:
    """Build a family weight; identical specs give identical weights."""
    bound, limit = _leaf_log2_bound(spec), -math.log2(NORMAL_MIN)
    if not bound <= limit:
        raise ValueError(f"{spec.kind} parameter {spec.parameter:g} at depth {spec.depth}, dim "
                         f"{spec.dim} puts |log2| of its leaf eigenvalues up to {bound:.0f}, "
                         f"past the float range's {limit:.0f}")
    values, eigs, vecs = _family_leaves(spec)
    field = GridMatrixField(spec.depth, spec.dim, values)
    del values  # the field holds a symmetrized copy; free this one before the checks and the tree
    meta = {"kind": spec.kind, "parameter": spec.parameter, "seed": spec.seed}
    return MatrixWeight(field, metadata=meta, spectrum=(eigs, vecs))
