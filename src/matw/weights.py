"""Matrix weights, their A2 / A-infinity characteristics, and test families.

A weight is a grid of symmetric positive definite matrices. Averages of the
weight and of its pointwise inverse are cached over the whole dyadic tree at
construction, because every characteristic and every stopping-time query walks
those averages at all scales. Square roots of the averages are taken only for
the intervals that ask for one.

A2 bounds every interval's top eigenvalue from the traces of <W>_I <W^-1>_I and
its square (Wolkowicz-Styan), and eigensolves only the intervals whose bound
reaches the largest eigenvalue found, so it reads the same bits as an
eigensolve of every interval.

The A-infinity characteristic of a matrix weight is a supremum over directions
and is not computable exactly; ainfty_characteristic samples coordinate
directions, eigenvector directions of coarse-scale averages, and quasi-uniform
unit vectors, so the reported number is a certified lower bound of the true
supremum. For scalar weights (d = 1) it is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dyadic import DyadicInterval, GridMatrixField, GridScalar, read_grid_json
from .linalg import EPS_PD, PSD_TOL, psd_power_stack, top_eigenvalue_stack

FAMILY_KINDS = ("identity", "scalar_power", "block_scalar", "rotating", "random_log_pd")
NORMAL_MIN = float(np.finfo(float).tiny)  # leaf eigenvalues lie in [NORMAL_MIN, 1 / NORMAL_MIN]


class MatrixWeight:
    """A positive definite matrix weight with cached averages of W and W^-1.

    Positivity is enforced per leaf matrix: the smallest eigenvalue must clear
    eps_pd relative to that leaf's largest eigenvalue, so pointwise inverses
    are trustworthy. eps_pd itself may not fall below EPS_PD, nor below
    4 d^2 times the machine epsilon. The spread across the grid is not enforced; extreme
    power-law weights are legitimate inputs whose leaves are individually well
    conditioned.
    """

    def __init__(self, field: GridMatrixField, eps_pd: float = EPS_PD, metadata: dict | None = None):
        # a floor on eps_pd bounds cond(<W>_I) by 1/eps_pd, which the stopping scan's trace filter needs
        floor = max(EPS_PD, 4.0 * field.dim * field.dim * float(np.finfo(float).eps))
        if not eps_pd >= floor:
            raise ValueError(f"eps_pd {eps_pd:.1e} is below the floor {floor:.1e}")
        vals, vecs = np.linalg.eigh(field.values)
        lo, hi = vals[:, 0], vals[:, -1]
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
        inv_vals = np.einsum("nij,nj,nkj->nik", vecs, 1.0 / vals, vecs)
        self._adopt(field, GridMatrixField(field.depth, field.dim, inv_vals), eps_pd, metadata)

    def _adopt(self, field: GridMatrixField, inverse_field: GridMatrixField,
               eps_pd: float, metadata: dict | None) -> None:
        self.field = field
        self.inverse_field = inverse_field
        self.eps_pd = eps_pd
        self.metadata = dict(metadata) if metadata else {}
        self._sqrt_cache: dict[DyadicInterval, np.ndarray] = {}
        # averages at every scale are queried constantly; build both trees now
        self.field.average_tree()
        self.inverse_field.average_tree()

    def inverse(self) -> "MatrixWeight":
        """The weight W^-1, sharing both fields and their average trees.

        No second eigendecomposition: every leaf of W^-1 has the eigenvalue
        ratio of the same leaf of W, which __init__ checked against eps_pd.
        """
        inv = object.__new__(type(self))
        inv._adopt(self.inverse_field, self.field, self.eps_pd, None)
        return inv

    @property
    def depth(self) -> int:
        return self.field.depth

    @property
    def dim(self) -> int:
        return self.field.dim

    @property
    def n_leaves(self) -> int:
        return self.field.n_leaves

    def average(self, interval: DyadicInterval) -> np.ndarray:
        return self.field.average(interval)

    def level_averages(self, level: int) -> np.ndarray:
        return self.field.level_averages(level)

    def sqrt_average(self, interval: DyadicInterval) -> np.ndarray:
        """<W>_I^{1/2}, cached by interval; psd_power_stack on a stack of one
        reads the same bits as on the interval's whole level."""
        if interval not in self._sqrt_cache:
            row = self.level_averages(interval.level)[interval.index:interval.index + 1]
            self._sqrt_cache[interval] = psd_power_stack(row, 0.5)[0]
        return self._sqrt_cache[interval]

    def to_json_dict(self) -> dict:
        obj = self.field.to_json_dict()
        obj["schema"] = "matw.weight/1"
        obj["metadata"] = {"eps_pd": self.eps_pd, **self.metadata}
        return obj


def save_weight(weight: MatrixWeight, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weight.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    sqrt_w = psd_power_stack(weight.level_averages(level)[rows], 0.5)
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
    bounds = [_a2_trace_bounds(weight.level_averages(level), inverse.level_averages(level))
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


def scalar_direction_weight(weight: MatrixWeight, e: np.ndarray) -> GridScalar:
    """The scalar weight x -> <W(x) e, e> for a unit direction e."""
    e = np.asarray(e, dtype=float)
    norm = float(np.linalg.norm(e))
    if norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector (norm {norm!r})")
    vals = np.einsum("nij,i,j->n", weight.field.values, e, e)
    return GridScalar(weight.depth, vals)


def fujii_wilson_constant(w: GridScalar) -> float:
    """sup_I <M_I w>_I / <w>_I with M_I the dyadic maximal function localized to I.

    One bottom-up pass, O(N 2^N) total: once root level r is folded in,
    running[x] = M_I w(x) for the interval I of level r that contains x.
    """
    if np.any(w.values <= 0.0):
        raise ValueError("weight must be positive")
    tree = w.average_tree()
    depth = w.depth
    best = 1.0
    running = tree[depth].copy()
    for root_level in range(depth, -1, -1):
        view = running.reshape(1 << root_level, -1)  # row j: the leaves under (root_level, j)
        np.maximum(view, tree[root_level][:, None], out=view)
        best = max(best, float(np.max(view.mean(axis=1) / tree[root_level])))
    return best


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


def ainfty_directions(weight: MatrixWeight, n_directions: int, seed: int = 0) -> np.ndarray:
    """Direction set: coordinates, coarse-scale average eigenvectors, Halton fill."""
    d = weight.dim
    if n_directions < 2 * d:
        raise ValueError(f"n_directions must be at least 2*dim = {2 * d}")
    dirs = [np.eye(d)]
    for level in range(min(weight.depth, 4) + 1):
        _, vecs = np.linalg.eigh(weight.level_averages(level))
        dirs.append(vecs.transpose(0, 2, 1).reshape(-1, d))
    stacked = np.concatenate(dirs, axis=0)
    stacked /= np.linalg.norm(stacked, axis=1, keepdims=True)
    kept: list[np.ndarray] = []
    for v in stacked:
        if all(abs(float(v @ u)) < 1.0 - 1e-10 for u in kept):
            kept.append(v)
    fill = halton_sphere_directions(d, n_directions - len(kept), seed)
    return np.array(kept + list(fill)) if len(fill) else np.array(kept)


def ainfty_characteristic(weight: MatrixWeight, n_directions: int, seed: int = 0) -> float:
    """Sampled matrix A-infinity characteristic sup_e [W_e]_{A_infinity}.

    A lower bound of the true supremum over directions; exact for d = 1.
    W_e = W_{-e} holds bit for bit, so a direction equal to -u for an already
    evaluated u is skipped, as is an exact repeat.
    """
    best = 1.0
    seen: set[tuple[float, ...]] = set()
    for e in ainfty_directions(weight, n_directions, seed):
        key = tuple(e.tolist())
        if key in seen:
            continue
        seen.update((key, tuple((-e).tolist())))
        best = max(best, fujii_wilson_constant(scalar_direction_weight(weight, e)))
    return best


@dataclass(frozen=True)
class WeightFamilySpec:
    """Deterministic recipe for a test weight: family kind, size, parameter, seed."""

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


def generate_weight(spec: WeightFamilySpec) -> MatrixWeight:
    """Build a family weight; identical specs give identical weights."""
    bound, limit = _leaf_log2_bound(spec), -math.log2(NORMAL_MIN)
    if not bound <= limit:
        raise ValueError(f"{spec.kind} parameter {spec.parameter:g} at depth {spec.depth}, dim "
                         f"{spec.dim} puts |log2| of its leaf eigenvalues up to {bound:.0f}, "
                         f"past the float range's {limit:.0f}")
    n, d, t = 1 << spec.depth, spec.dim, spec.parameter
    values = np.zeros((n, d, d))
    if spec.kind == "identity":
        values[:] = np.eye(d)
    elif spec.kind == "scalar_power":
        values[:] = np.eye(d)
        values[:, 0, 0] = scalar_power_leaf_values(spec.depth, t)
    elif spec.kind == "block_scalar":
        # staggered parameters t/2^i, alternating orientation per coordinate
        for i in range(d):
            vals = scalar_power_leaf_values(spec.depth, t / (1 << i))
            values[:, i, i] = vals[::-1] if i % 2 else vals
    elif spec.kind == "rotating":
        x = (np.arange(n) + 0.5) / n
        lam = np.exp(t * np.cos(2.0 * np.pi * x))
        c, s = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        values[:, 0, 0] = lam * c * c + s * s / lam
        values[:, 1, 1] = lam * s * s + c * c / lam
        values[:, 0, 1] = values[:, 1, 0] = (lam - 1.0 / lam) * c * s
    elif spec.kind == "random_log_pd":
        rng = np.random.default_rng(spec.seed)
        rows, cols = np.triu_indices(d)
        draws = rng.uniform(-t, t, size=(n, len(rows)))
        sym = np.zeros((n, d, d))
        sym[:, rows, cols] = draws
        sym[:, cols, rows] = draws
        vals, vecs = np.linalg.eigh(sym)
        values = np.einsum("nij,nj,nkj->nik", vecs, np.exp(vals), vecs)
    field = GridMatrixField(spec.depth, d, values)
    meta = {"kind": spec.kind, "parameter": spec.parameter, "seed": spec.seed}
    return MatrixWeight(field, metadata=meta)
