"""Reference computations the tests check the library against.

Most are deliberately naive and share no code with the library: direct leaf
summation, dense matrix assembly from directly summed averages, plain power
iteration. The exceptions start from `matw.haar.analyze`: the martingale
transform (which also calls `synthesize`), sign enumeration, Monte Carlo and
the unweighted square function; `stopping_children` runs the library's own
generation scan; `norm_condition_mask` takes the weight's averages and
`psd_power`; `a2_every_interval_reference` is the library's former A2 loop,
which eigensolves every interval with the library's own `psd_power_stack` and
`top_eigenvalue_stack`. `test_analyze_matches_haar_inner_products` pins
`analyze` against `haar_leaf_values` coefficient by coefficient.
"""

import numpy as np

from matw.dyadic import DyadicInterval, GridScalar, GridVector
from matw.haar import HaarCoefficients, analyze, synthesize
from matw.linalg import psd_power, psd_power_stack, top_eigenvalue_stack
from matw.opnorm import OperatorNormEstimate, rayleigh_quotient, start_vector
from matw.sparse import _GenerationScan

ENUMERATION_CAP = 22


def direct_average(values: np.ndarray, depth: int, interval: DyadicInterval):
    """Mean over the leaves under an interval by direct summation."""
    span = 1 << (depth - interval.level)
    lo = interval.index * span
    return np.sum(values[lo:lo + span], axis=0) / span


def direct_l2_sq(values: np.ndarray, depth: int) -> float:
    return float(np.sum(values * values)) * 2.0 ** -depth


def brute_fujii_wilson(w: np.ndarray, depth: int) -> float:
    """Triple loop over root intervals, leaves, and ancestor chains."""
    best = 1.0
    for level in range(depth + 1):
        for j in range(1 << level):
            span = 1 << (depth - level)
            total = 0.0
            for k in range(j * span, (j + 1) * span):
                peak = 0.0
                for sub_level in range(level, depth + 1):
                    sub_span = 1 << (depth - sub_level)
                    jj = k // sub_span
                    peak = max(peak, float(np.mean(w[jj * sub_span:(jj + 1) * sub_span])))
                total += peak
            mean_w = float(np.mean(w[j * span:(j + 1) * span]))
            best = max(best, (total / span) / mean_w)
    return best


def brute_scalar_a2(w: np.ndarray, depth: int) -> float:
    best = 0.0
    for level in range(depth + 1):
        for j in range(1 << level):
            span = 1 << (depth - level)
            seg = w[j * span:(j + 1) * span]
            best = max(best, float(np.mean(seg)) * float(np.mean(1.0 / seg)))
    return best


def _eigh_power(m: np.ndarray, p: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.maximum(vals, 0.0) ** p) @ vecs.T


def brute_matrix_a2(values: np.ndarray, depth: int) -> float:
    """A2 interval by interval: directly summed averages of W and of its leafwise
    inverse, their square roots by one eigh each, then the squared largest
    singular value of the product. No average tree, no cached roots."""
    inverse = np.array([_eigh_power(m, -1.0) for m in values])
    best = 0.0
    for level in range(depth + 1):
        for j in range(1 << level):
            iv = DyadicInterval(level, j)
            prod = (_eigh_power(direct_average(values, depth, iv), 0.5)
                    @ _eigh_power(direct_average(inverse, depth, iv), 0.5))
            best = max(best, float(np.linalg.svd(prod, compute_uv=False)[0]) ** 2)
    return best


def a2_every_interval_reference(weight) -> float:
    """A2 with one batched square root and one batched eigensolve of the
    sandwich per level, every interval included. a2_characteristic must return
    the same bits, and raise the same message on an overflowing level."""
    best = 0.0
    for level in range(weight.depth + 1):
        sqrt_w = psd_power_stack(weight.level_averages(level), 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            sandwich = sqrt_w @ weight.inverse_field.level_averages(level) @ sqrt_w
        if not np.all(np.isfinite(sandwich)):
            raise ValueError(f"A2 overflows at level {level}: "
                             "<W>^1/2 <W^-1> <W>^1/2 has non-finite entries")
        best = max(best, float(np.max(top_eigenvalue_stack(sandwich))))
    return best


def type1_trace_sums(weight, parent: DyadicInterval,
                     kids: list[DyadicInterval]) -> dict[str, float]:
    """The five sums of the type-1 trace chain at `parent` over its norm-triggered
    children, from directly summed averages, their eigh roots, one SVD per child
    (squared HS norm as the sum of the squared singular values) and the trace of
    every leaf under the parent, summed one by one."""
    values, depth = weight.field.values, weight.depth
    inv_sqrt = _eigh_power(direct_average(values, depth, parent), -0.5)

    def integral(interval: DyadicInterval) -> float:
        sl = interval.leaf_slice(depth)
        return sum(float(np.trace(inv_sqrt @ values[x] @ inv_sqrt))
                   for x in range(sl.start, sl.stop)) * 2.0 ** -depth

    sums = dict.fromkeys(("opnorm_sum", "hs_sum", "trace_sum"), 0.0)
    for kid in kids:
        avg = direct_average(values, depth, kid)
        singular = np.linalg.svd(_eigh_power(avg, 0.5) @ inv_sqrt, compute_uv=False)
        sums["opnorm_sum"] += kid.measure * float(singular[0]) ** 2
        sums["hs_sum"] += kid.measure * float(np.sum(singular**2))
        sums["trace_sum"] += kid.measure * float(np.trace(inv_sqrt @ avg @ inv_sqrt))
    sums["leaf_integral"] = sum(integral(kid) for kid in kids)
    sums["full_integral"] = integral(parent)
    return sums


def matrix_power_iteration_norm(m: np.ndarray, iters: int = 5000, tol: float = 1e-13) -> float:
    """Largest singular value by plain power iteration on m^T m."""
    gram = m.T @ m
    v = np.ones(gram.shape[0]) / np.sqrt(gram.shape[0])
    lam = 0.0
    for _ in range(iters):
        nv = gram @ v
        new_lam = float(np.linalg.norm(nv))
        if new_lam == 0.0:
            return 0.0
        v = nv / new_lam
        if abs(new_lam - lam) <= tol * new_lam:
            break
        lam = new_lam
    return float(np.sqrt(new_lam))


def power_iteration_reference(weight, opts) -> OperatorNormEstimate:
    """The power loop of `estimate_operator_norm` on per-level (2^k, d) arrays.

    Each step analyzes the iterate with `matw.haar.analyze`, multiplies level k
    by <W>_I as an (n, d, d) einsum, and synthesizes with `matw.haar.synthesize`.
    """
    def multiplier(coeffs: HaarCoefficients) -> HaarCoefficients:
        weighted = [np.einsum("nij,nj->ni", weight.level_averages(k), c)
                    for k, c in enumerate(coeffs.levels)]
        return HaarCoefficients(coeffs.depth, coeffs.dim, np.zeros(coeffs.dim), weighted)

    f = start_vector(weight, opts.seed)
    weighted = multiplier(analyze(f))
    lam_prev = None
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        image = synthesize(weighted, include_mean=False).values
        g_vals = np.einsum("nij,nj->ni", weight.inverse_field.values, image)
        norm = np.sqrt(float(np.sum(image * g_vals)) * 2.0 ** -weight.depth)
        if norm == 0.0:
            break
        f = GridVector(weight.depth, weight.dim, g_vals / norm)
        coeffs = analyze(f)
        weighted = multiplier(coeffs)
        lam = float(sum(np.sum(c * wc) for c, wc in zip(coeffs.levels, weighted.levels)))
        if lam_prev is not None and abs(lam - lam_prev) <= opts.rel_tol * max(lam, 1e-300):
            converged = True
            break
        lam_prev = lam
    return OperatorNormEstimate(rayleigh_quotient(weight, f), f, iters, converged)


def haar_leaf_values(depth: int, level: int, index: int) -> np.ndarray:
    """Leaf values of the L2-normalized Haar function, positive on the left half."""
    out = np.zeros(1 << depth)
    span = 1 << (depth - level)
    amp = 2.0 ** (level / 2.0)
    out[index * span:index * span + span // 2] = amp
    out[index * span + span // 2:(index + 1) * span] = -amp
    return out


def dense_forms(weight) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrices of the energy form Q and the weighted mass form P.

    Basis: leaf-indicator times coordinate, flattened as (leaf, coordinate).
    """
    depth, d = weight.depth, weight.dim
    n = 1 << depth
    leaf = 2.0 ** -depth
    q = np.zeros((n * d, n * d))
    for level in range(depth):
        for index in range(1 << level):
            h = haar_leaf_values(depth, level, index) * leaf
            avg = direct_average(weight.field.values, depth, DyadicInterval(level, index))
            q += np.kron(np.outer(h, h), avg)
    p = np.zeros((n * d, n * d))
    for k in range(n):
        p[k * d:(k + 1) * d, k * d:(k + 1) * d] = weight.field.values[k] * leaf
    return q, p


def dense_top_generalized_eigenvalue(weight) -> float:
    """Largest eigenvalue of (Q, P) by whitening with P^{-1/2} and a dense solve."""
    q, p = dense_forms(weight)
    vals, vecs = np.linalg.eigh(p)
    p_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    sym = p_inv_sqrt @ q @ p_inv_sqrt
    return float(np.linalg.eigvalsh(sym)[-1])


def random_grid_vector(depth: int, dim: int, rng: np.random.Generator,
                       scale: float = 1.0) -> GridVector:
    return GridVector(depth, dim, scale * rng.standard_normal(((1 << depth), dim)))


def children(interval: DyadicInterval, depth: int) -> tuple[DyadicInterval, DyadicInterval]:
    """The two halves of an interval, returned (left, right).

    The Haar function attached to the interval is positive on the left half.
    """
    if interval.level >= depth:
        raise ValueError("leaf has no children")
    return (
        DyadicInterval(interval.level + 1, 2 * interval.index),
        DyadicInterval(interval.level + 1, 2 * interval.index + 1),
    )


def stopping_children(root: DyadicInterval, weight, f, cfg) -> list[tuple[DyadicInterval, str]]:
    """Maximal intervals strictly inside `root` violating either stopping condition."""
    if root.level >= weight.depth:
        return []
    scan = _GenerationScan(weight, analyze(f), f.values, root, cfg)
    return scan.children


def norm_condition_mask(weight, root: DyadicInterval, level: int, c1: float) -> np.ndarray:
    """Condition (1) on every interval of `level` below `root`, each row by its
    own eigensolve with no trace filter in front: the square root of the top
    eigenvalue of <W>_R^{-1/2} <W>_L <W>_R^{-1/2} exceeds c1. The averages and
    <W>_R^{-1/2} are the ones the generation scan uses, so a row can differ
    from the scan's only through the filter."""
    lo, hi = root.index << (level - root.level), (root.index + 1) << (level - root.level)
    inv_sqrt = psd_power(weight.average(root), -0.5, weight.eps_pd)
    sandwich = inv_sqrt @ weight.level_averages(level)[lo:hi] @ inv_sqrt
    return np.sqrt(np.linalg.eigvalsh(sandwich)[:, -1]) > c1


class SignPattern:
    """Choice of sign +-1 for every Haar interval, complete over levels 0..N-1."""

    def __init__(self, depth: int, levels: list[np.ndarray]):
        if len(levels) != depth:
            raise ValueError("incomplete sign pattern")
        checked = []
        for k, arr in enumerate(levels):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (1 << k,) or not np.all(np.abs(arr) == 1.0):
                raise ValueError("incomplete sign pattern")
            checked.append(arr)
        self.depth = depth
        self.levels = checked

    @staticmethod
    def constant(depth: int, sign: int = 1) -> "SignPattern":
        return SignPattern(depth, [np.full(1 << k, float(sign)) for k in range(depth)])

    @staticmethod
    def from_flat(depth: int, flat: np.ndarray) -> "SignPattern":
        """Breadth-first flat array of +-1, one entry per Haar interval."""
        levels, pos = [], 0
        for k in range(depth):
            levels.append(np.asarray(flat[pos:pos + (1 << k)], dtype=float))
            pos += 1 << k
        return SignPattern(depth, levels)

    @staticmethod
    def random(depth: int, seed: int, sample_index: int = 0) -> "SignPattern":
        bits = _sign_bits(depth, seed, sample_index)
        return SignPattern.from_flat(depth, 1.0 - 2.0 * bits)


def _sign_bits(depth: int, seed: int, sample_index: int) -> np.ndarray:
    """One unbiased bit per Haar interval from a counter-based generator.

    Keyed on (seed, sample_index) so parallel sampling cannot change results.
    """
    count = (1 << depth) - 1
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), sample_index]))
    return gen.integers(0, 2, size=count).astype(float)


def martingale_transform(f: GridVector, signs: SignPattern) -> GridVector:
    """T f = sum_I sigma_I (f, h_I) h_I; the mean term is dropped."""
    if signs.depth != f.depth:
        raise ValueError("incomplete sign pattern")
    coeffs = analyze(f)
    flipped = [c * s[:, None] for c, s in zip(coeffs.levels, signs.levels)]
    return synthesize(HaarCoefficients(f.depth, f.dim, coeffs.mean, flipped), include_mean=False)


def unweighted_square_function_sq(g: GridVector) -> GridScalar:
    """Pointwise S^2 g = sum over intervals containing x of ||(g,h_I)||^2 / |I|."""
    out = np.zeros(g.n_leaves)
    for k, c in enumerate(analyze(g).levels):
        out += np.repeat(np.sum(c * c, axis=1) * 2.0**k, 1 << (g.depth - k))
    return GridScalar(g.depth, out)


def unweighted_square_function(g: GridVector) -> GridScalar:
    """Pointwise square function S g, the root of the primary squared output."""
    return GridScalar(g.depth, np.sqrt(unweighted_square_function_sq(g).values))


def _haar_leaf_tensor(coeffs: HaarCoefficients) -> np.ndarray:
    """Per-interval leaf contributions c_I h_I(x), stacked breadth first: (M, n, d)."""
    depth, dim = coeffs.depth, coeffs.dim
    n = 1 << depth
    rows = []
    for k, c in enumerate(coeffs.levels):
        amp = 2.0 ** (k / 2.0)
        half = 1 << (depth - k - 1)
        for j in range(1 << k):
            row = np.zeros((n, dim))
            row[2 * j * half:(2 * j + 1) * half] = c[j] * amp
            row[(2 * j + 1) * half:(2 * j + 2) * half] = -c[j] * amp
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, n, dim))


def _transform_energies(sign_batch: np.ndarray, leaf_tensor: np.ndarray,
                        weight) -> np.ndarray:
    """integral <W T_sigma f, T_sigma f> for a batch of sign patterns."""
    transformed = np.einsum("bm,mnd->bnd", sign_batch, leaf_tensor)
    vals = np.einsum("bnd,nde,bne->b", transformed, weight.field.values, transformed)
    return vals * 2.0 ** -weight.depth


def sw_sign_enumeration(weight, f: GridVector, chunk: int = 4096) -> float:
    """Exact expectation of integral ||W^{1/2} T_sigma f||^2 over all sign patterns.

    Walks every one of the 2^M patterns; independent of the closed-form sum,
    which it must reproduce to roundoff.
    """
    if weight.depth != f.depth or weight.dim != f.dim:
        raise ValueError("weight and function dimensions do not match")
    m = (1 << f.depth) - 1
    if m > ENUMERATION_CAP:
        raise ValueError(
            f"{m} Haar intervals exceed the enumeration cap {ENUMERATION_CAP}; use sw_monte_carlo")
    leaf_tensor = _haar_leaf_tensor(analyze(f))
    if m == 0:
        return 0.0
    shifts = np.arange(m, dtype=np.uint64)
    total = 0.0
    for start in range(0, 1 << m, chunk):
        idx = np.arange(start, min(start + chunk, 1 << m), dtype=np.uint64)
        signs = 1.0 - 2.0 * ((idx[:, None] >> shifts) & 1)
        total += float(np.sum(_transform_energies(signs, leaf_tensor, weight)))
    return total / float(1 << m)


def sw_monte_carlo(weight, f: GridVector, n_samples: int,
                   seed: int = 0) -> tuple[float, float]:
    """Sample mean and standard error of integral ||W^{1/2} T_sigma f||^2.

    Sample i draws its signs from a generator keyed on (seed, i).
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    m = (1 << f.depth) - 1
    leaf_tensor = _haar_leaf_tensor(analyze(f))
    signs = np.empty((n_samples, m))
    for i in range(n_samples):
        signs[i] = 1.0 - 2.0 * _sign_bits(f.depth, seed, i)
    vals = np.concatenate([
        _transform_energies(signs[s:s + 4096], leaf_tensor, weight)
        for s in range(0, n_samples, 4096)
    ]) if m else np.zeros(n_samples)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
    return mean, stderr
