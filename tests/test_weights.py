import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matw.weights as mweights
from matw.dyadic import DyadicInterval, GridMatrixField, GridScalar, save_field
from matw.linalg import psd_power_stack
from matw.weights import (MatrixWeight, WeightFamilySpec, a2_characteristic,
                          ainfty_characteristic, ainfty_directions,
                          fujii_wilson_constant, generate_weight,
                          halton_sphere_directions, load_weight,
                          matrix_weight_from_scalar, scalar_power_leaf_values)

from _oracles import (a2_every_interval_reference, ainfty_directions_reference, ainfty_reference,
                      brute_fujii_wilson, brute_matrix_a2, brute_scalar_a2,
                      fujii_wilson_reference, scalar_direction_weight)
from _peak import traced_peak

# family-calibration regression value, frozen from this implementation
GOLDEN_SCALAR_POWER_A2_N10_T05 = 877.428572041448


def scalar_weight(depth, values):
    return matrix_weight_from_scalar(GridScalar(depth, values))


def random_weight(rng, dim, depth, t=1.0):
    return generate_weight(WeightFamilySpec(
        "random_log_pd", dim, depth, parameter=t, seed=int(rng.integers(2**31))))


def test_a2_identity_weight():
    w = generate_weight(WeightFamilySpec("identity", 3, 4))
    assert abs(a2_characteristic(w) - 1.0) <= 1e-12


def test_a2_two_cell_hand_value():
    # <w>_J <w^-1>_J = 5 * (1 + 1/9)/2 = 25/9; leaves give 1
    assert abs(a2_characteristic(scalar_weight(1, [1.0, 9.0])) - 25.0 / 9.0) <= 1e-12


def test_a2_at_least_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_weight(rng, int(rng.integers(1, 4)), int(rng.integers(1, 7)))
        assert a2_characteristic(w) >= 1.0 - 1e-12


def test_a2_one_only_for_constant_weights():
    const = GridMatrixField(3, 2, np.tile(np.array([[2.0, 1.0], [1.0, 3.0]]), (8, 1, 1)))
    assert abs(a2_characteristic(MatrixWeight(const)) - 1.0) <= 1e-12
    bumped = np.tile(np.array([[2.0, 1.0], [1.0, 3.0]]), (8, 1, 1))
    bumped[3] *= 1.5
    assert a2_characteristic(MatrixWeight(GridMatrixField(3, 2, bumped))) > 1.0 + 1e-6


def test_scalar_a2_matches_matrix_route_and_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        depth = int(rng.integers(1, 7))
        vals = np.exp(rng.uniform(-2, 2, 1 << depth))
        w = GridScalar(depth, vals)
        direct = brute_scalar_a2(vals, depth)
        assert abs(direct - a2_characteristic(matrix_weight_from_scalar(w))) <= 1e-10 * direct


A2_ORACLE_CASES = {  # (dim, parameter) per family
    "identity": [(d, 0.0) for d in (1, 2, 3, 4)],
    "scalar_power": [(1, 0.5), (1, 0.9), (2, 0.5), (3, 0.3), (4, 0.2)],
    "block_scalar": [(d, t) for d in (1, 2, 3, 4) for t in (0.3, 0.6)],
    "rotating": [(2, 0.5), (2, 2.0)],
    "random_log_pd": [(d, t) for d in (1, 2, 3, 4) for t in (0.5, 2.0)],
}


@pytest.mark.parametrize("kind", sorted(A2_ORACLE_CASES))
def test_a2_matches_interval_by_interval_oracle(kind):
    for dim, t in A2_ORACLE_CASES[kind]:
        for depth in (0, 1, 4, 7):
            w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t, seed=depth))
            ref = brute_matrix_a2(w.field.values, depth)
            assert abs(a2_characteristic(w) - ref) <= 1e-12 * ref, (dim, t, depth)


def overflowing_level_weight() -> MatrixWeight:
    # level 1 holds <W> ~ 5e299 I and <W^-1> ~ 5e299 R diag(1, 1/2) R^T: the
    # sandwich overflows, and an A2 that skipped that level would read ~1
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    leaves = [1e300 * np.eye(2), 1e-300 * rot @ np.diag([1.0, 2.0]) @ rot.T, np.eye(2), np.eye(2)]
    return MatrixWeight(GridMatrixField(2, 2, np.array(leaves)))


def test_a2_rejects_an_overflowing_level():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        a2_characteristic(overflowing_level_weight())


FAMILY_KINDS = ("identity", "scalar_power", "block_scalar", "rotating", "random_log_pd")


@st.composite
def family_weights(draw):
    """A family weight with t in the ranges of tests/_instances.py, where every
    leaf clears eps_pd at depth 12."""
    kind = draw(st.sampled_from(FAMILY_KINDS))
    dim = 2 if kind == "rotating" else draw(st.integers(1, 4))
    t = draw({"identity": st.just(0.0),
              "scalar_power": st.floats(0.0, 0.9 if dim == 1 else 0.55),
              "block_scalar": st.floats(0.0, 0.5),
              "rotating": st.floats(0.0, 2.0),
              "random_log_pd": st.floats(0.0, 2.5 if dim <= 2 else 2.0)}[kind])
    return generate_weight(WeightFamilySpec(kind, dim, draw(st.integers(0, 12)), parameter=t,
                                            seed=draw(st.integers(0, 2**31 - 1))))


@settings(max_examples=80, deadline=None)
@given(weight=family_weights())
def test_a2_equals_the_every_interval_loop_bit_for_bit(weight):
    assert a2_characteristic(weight) == a2_every_interval_reference(weight)


@st.composite
def extreme_weights(draw):
    """Leaves s(x) Q(x) diag(lambda(x)) Q(x)^T with eigenvalue ratios down to
    eps_pd and scales s(x) anywhere in [1e-150, 1e150]."""
    dim, depth = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    floor = max(10.0 ** -draw(st.floats(0.0, 10.0)), 1.01 * mweights.EPS_PD)
    lo_exp, hi_exp = sorted(x + 0.0 for x in draw(st.lists(st.floats(-150.0, 150.0),
                                                           min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 << depth
    lam = np.exp(rng.uniform(np.log(floor), 0.0, size=(n, dim)))
    lam[:, 0] = floor
    q, _ = np.linalg.qr(rng.standard_normal((n, dim, dim)))
    scale = 10.0 ** rng.uniform(lo_exp, hi_exp, size=n)
    return MatrixWeight(GridMatrixField(depth, dim, np.einsum("nij,nj,nkj->nik", q, lam * scale[:, None], q)))


def _value_or_message(route, weight):
    try:
        return route(weight)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(weight=extreme_weights())
def test_a2_equals_the_every_interval_loop_on_extreme_weights(weight):
    # a leaf at scale 1e-150 with ratio eps_pd beside one at 1e150 can overflow
    # a sandwich; then both routes must raise the same message
    assert (_value_or_message(a2_characteristic, weight)
            == _value_or_message(a2_every_interval_reference, weight))


TIED_WEIGHTS = {  # every interval reads A2 = 1, so no bound can drop one
    "identity": lambda: generate_weight(WeightFamilySpec("identity", 4, 8)),
    "scalar_power_t0": lambda: generate_weight(WeightFamilySpec("scalar_power", 3, 8)),
    "random_log_pd_t0": lambda: generate_weight(WeightFamilySpec("random_log_pd", 2, 8, seed=3)),
    "constant": lambda: MatrixWeight(GridMatrixField(
        5, 2, np.tile(np.array([[2.0, 1.0], [1.0, 3.0]]), (32, 1, 1)))),
}


@pytest.mark.parametrize("name", sorted(TIED_WEIGHTS))
def test_a2_equals_the_every_interval_loop_on_ties(name):
    weight = TIED_WEIGHTS[name]()
    assert a2_characteristic(weight) == a2_every_interval_reference(weight)


def test_a2_near_4e40_equals_the_every_interval_loop():
    weight = generate_weight(WeightFamilySpec("scalar_power", 1, 8, parameter=0.9))
    a2 = a2_characteristic(weight)
    assert a2 == a2_every_interval_reference(weight) and 4e40 < a2 < 5e40


def test_a2_with_a_non_finite_trace_bound_equals_the_every_interval_loop():
    # <w> <1/w> ~ 2.5e199 at the root, so tr((<W> <W^-1>)^2) overflows to inf
    weight = scalar_weight(2, [1e-100, 1e100, 1.0, 3.0])
    root = mweights._a2_trace_bounds(weight.field.level_averages(0),
                                  weight.inverse_field.level_averages(0))
    assert not np.isfinite(root[0])
    a2 = a2_characteristic(weight)
    assert a2 == a2_every_interval_reference(weight) and a2 > 1e199


def test_a2_peak_memory():
    """Traced peak of one A2 against the every-interval loop that the bound
    pass replaced, in a fresh process (tests/_peak.py), once the weight has
    built W^-1 and A2 has run at depth 2.

    That loop peaked at 13.5 MB at scalar_power (N, d) = (18, 1), t = 0.3
    (tracemalloc, numpy 2.4); the bound pass with a fresh array per step
    raised it to 21.2 MB. The in-place pass peaks at 12,586,352 bytes.
    """
    build = ("from matw.weights import WeightFamilySpec, a2_characteristic, generate_weight\n"
             "a2_characteristic(generate_weight(WeightFamilySpec('scalar_power', 1, 2, parameter=0.3)))\n"
             "w = generate_weight(WeightFamilySpec('scalar_power', 1, 18, parameter=0.3))\n"
             "w.inverse_field.level_averages(0)")
    assert traced_peak(build, "a2_characteristic(w)") <= 13_500_000


def test_a2_and_the_every_interval_loop_raise_the_same_message_on_an_overflowing_level():
    weight = overflowing_level_weight()
    assert (_value_or_message(a2_characteristic, weight)
            == _value_or_message(a2_every_interval_reference, weight)
            == "A2 overflows at level 0: <W>^1/2 <W^-1> <W>^1/2 has non-finite entries")


def test_a2_eigensolves_only_a_few_intervals(monkeypatch):
    rows = []
    real = mweights.top_eigenvalue_stack
    monkeypatch.setattr(mweights, "top_eigenvalue_stack", lambda ms: rows.append(len(ms)) or real(ms))
    w = generate_weight(WeightFamilySpec("random_log_pd", 4, 12, parameter=1.0))
    assert a2_characteristic(w) == a2_every_interval_reference(w)
    assert 1 <= sum(rows) < 10, rows


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_sqrt_average_equals_its_row_of_the_level_root_bit_for_bit(kind):
    # the golden certificates were made from whole-level roots
    for dim in ((2,) if kind == "rotating" else (1, 2, 3, 4)):
        w = generate_weight(WeightFamilySpec(kind, dim, 6, parameter=0.5, seed=dim))
        for level in range(7):
            roots = psd_power_stack(w.field.level_averages(level), 0.5)
            for index in range(1 << level):
                assert np.array_equal(w.sqrt_average(DyadicInterval(level, index)), roots[index])


def test_direction_weight_identity():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    e = np.array([1.0, 0.0])
    assert np.allclose(scalar_direction_weight(w.field, e).values, 1.0)


def test_direction_weight_coordinate_extraction():
    vals = np.zeros((2, 2, 2))
    vals[:, 0, 0] = [1.0, 9.0]
    vals[:, 1, 1] = 1.0
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    assert np.array_equal(scalar_direction_weight(w.field, np.array([1.0, 0.0])).values, [1.0, 9.0])


def test_direction_weight_quadratic_form():
    vals = np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]), (2, 1, 1))
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(scalar_direction_weight(w.field, e).values, 3.0)


def test_direction_weight_rejects_bad_directions():
    w = generate_weight(WeightFamilySpec("identity", 2, 1))
    with pytest.raises(ValueError, match="nonzero"):
        scalar_direction_weight(w.field, np.zeros(2))
    with pytest.raises(ValueError, match="unit"):
        scalar_direction_weight(w.field, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        scalar_direction_weight(w.field, np.array([1.0]))


def test_fujii_wilson_constant_weight():
    assert fujii_wilson_constant(GridScalar(3, np.full(8, 3.7))) == 1.0


def test_fujii_wilson_two_cell_hand_value():
    # M_J w = (5, 9), average 7, so the root ratio is 7/5
    assert abs(fujii_wilson_constant(GridScalar(1, [1.0, 9.0])) - 1.4) <= 1e-14


def test_fujii_wilson_matches_brute_force():
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(25):
        depth = int(rng.integers(1, 6))
        cases.append((depth, np.exp(rng.uniform(-2.5, 2.5, 1 << depth))))
    # the edges: the root alone, and a depth past the drawn ones
    for depth in (0, 7):
        cases.append((depth, np.exp(rng.uniform(-2.5, 2.5, 1 << depth))))
    for depth, vals in cases:
        fast = fujii_wilson_constant(GridScalar(depth, vals))
        assert abs(fast - brute_fujii_wilson(vals, depth)) <= 1e-11 * fast, depth


def test_scalar_power_characteristics_match_brute_force():
    # the A2 and A-infinity factors of the sharpness-trace ratio; leaf values
    # reach 2^-(N*2t/(1-t)), far outside the exp(+-2.5) random fixtures
    for depth in (6, 8):
        for t in (0.2, 0.5, 0.9):
            w = generate_weight(WeightFamilySpec("scalar_power", 1, depth, parameter=t))
            vals = w.field.values[:, 0, 0]
            a2 = a2_characteristic(w)
            assert abs(a2 - brute_scalar_a2(vals, depth)) <= 1e-11 * a2, (depth, t)
            inv = 1.0 / vals
            fw = fujii_wilson_constant(GridScalar(depth, inv))
            assert abs(fw - brute_fujii_wilson(inv, depth)) <= 1e-11 * fw, (depth, t)
            if t == 0.9:
                # w^-1 is a point mass on leaf 0 to within 2^-17; the root ratio
                # of a point mass is exactly N/2 + 1
                assert abs(fw - (depth / 2 + 1)) <= 1e-5 * (depth / 2 + 1), depth


def test_fujii_wilson_comparable_to_a2():
    # The A-infinity constant is dominated by a fixed multiple of A2. Constant
    # one fails: w = (2, 1) has FW = 7/6 but A2 = 9/8.
    w = GridScalar(1, [2.0, 1.0])
    assert fujii_wilson_constant(w) > brute_scalar_a2(w.values, w.depth)
    rng = np.random.default_rng(8)
    for _ in range(100):
        depth = int(rng.integers(1, 8))
        vals = np.exp(rng.uniform(-3, 3, 1 << depth))
        w = GridScalar(depth, vals)
        fw = fujii_wilson_constant(w)
        assert 1.0 <= fw <= 2.0 * brute_scalar_a2(vals, depth)


def _fold_inputs(depth: int) -> dict[str, np.ndarray]:
    n = 1 << depth
    rng = np.random.default_rng(depth)
    spike = np.ones(n)
    spike[rng.integers(n)] = 1e6
    # constant on blocks of up to 8 leaves: the running max ties the average
    blocks = np.repeat(np.exp(rng.normal(size=max(1, n >> 3))), min(n, 8))
    return {"log_normal": np.exp(2.0 * rng.normal(size=n)),
            "power_law": ((np.arange(n) + 0.5) / n) ** -0.9,
            "spike": spike, "constant_blocks": blocks}


@pytest.mark.parametrize("depth", range(17))
def test_fujii_wilson_equals_the_row_mean_fold_bit_for_bit(depth):
    # the reference folds rows of every width from 1 to 2^depth; the library skips width 1,
    # takes 2 and 4 by columns and the rest by mean
    for name, vals in _fold_inputs(depth).items():
        w = GridScalar(depth, vals)
        assert fujii_wilson_constant(w) == fujii_wilson_reference(w), name


def _reference_over_rows(rows: np.ndarray) -> float:
    depth = rows.shape[1].bit_length() - 1
    return max(fujii_wilson_reference(GridScalar(depth, row)) for row in rows)


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("depth", range(15))
def test_stacked_fold_equals_the_max_of_the_row_mean_fold_bit_for_bit(depth, rows):
    # levels of width below 8 are folded by columns and the wider ones by mean, across the stack
    inputs = list(_fold_inputs(depth).values())
    rng = np.random.default_rng(100 + depth)
    inputs += [np.exp(rng.normal(size=1 << depth)) for _ in range(rows)]
    stack = np.array(inputs[:rows])
    assert mweights._fujii_wilson_fold(stack.copy()) == _reference_over_rows(stack)


def test_fujii_wilson_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        fujii_wilson_constant(GridScalar(1, [1.0, 0.0]))


@pytest.mark.parametrize("leaf", [np.diag([1.0, -1.0]), np.full((2, 2), 8e307)],
                         ids=["indefinite", "past_half_the_float_range"])
def test_ainfty_rejects_a_direction_weight_the_fold_cannot_take(leaf):
    # the field read is not checked for definiteness: e_2 gives -1; (1, 1)/sqrt(2) gives 1.6e308
    field = GridMatrixField(1, 2, np.array([leaf, leaf]))
    with pytest.raises(ValueError, match="weight must be positive and within half the float range"):
        ainfty_characteristic(field, 4)


def test_ainfty_identity():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    assert abs(ainfty_characteristic(w.field, 8) - 1.0) <= 1e-12


def test_ainfty_scalar_case_is_exact_fujii_wilson():
    w = scalar_weight(3, np.exp(np.linspace(-1, 2, 8)))
    expected = fujii_wilson_constant(GridScalar(3, np.exp(np.linspace(-1, 2, 8))))
    for n_dirs in (2, 8, 32):
        assert abs(ainfty_characteristic(w.field, n_dirs) - expected) <= 1e-12


def test_ainfty_evaluates_each_direction_once_up_to_sign(monkeypatch):
    # for d = 1 every direction is +1 or -1, and W_e = W_{-e}: one row reaches the fold
    rows = []
    original = mweights._fujii_wilson_fold
    monkeypatch.setattr(mweights, "_fujii_wilson_fold",
                        lambda stack: rows.append(len(stack)) or original(stack))
    w = scalar_weight(4, np.exp(np.linspace(-1, 2, 16)))
    assert len(ainfty_directions(w.field, 8)) == 8
    ainfty_characteristic(w.field, 8)
    assert sum(rows) == 1


def _ainfty_fields(kind: str, dim: int):
    t = {"identity": 0.0, "scalar_power": 0.5, "block_scalar": 0.5, "rotating": 1.5,
         "random_log_pd": 1.2}[kind]
    for depth in (0, 1, 5, 10):
        w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t, seed=depth))
        yield from (w.field, w.inverse_field)


AINFTY_CASES = [(kind, dim) for kind in FAMILY_KINDS for dim in (1, 2, 3, 4)
                if kind != "rotating" or dim == 2]


@pytest.mark.parametrize("kind,dim", AINFTY_CASES)
def test_ainfty_equals_the_per_direction_loop(kind, dim):
    """Blocks of directions and one BLAS product against one einsum per
    direction: exact at d = 1, where e = +-1; rounded otherwise."""
    for field in _ainfty_fields(kind, dim):
        for seed in (0, 3):
            fast, ref = ainfty_characteristic(field, 8, seed), ainfty_reference(field, 8, seed)
            if dim == 1:
                assert fast == ref, (field.depth, seed)
            else:
                assert abs(fast - ref) <= 1e-15 * ref, (field.depth, seed, fast, ref)


@pytest.mark.parametrize("kind,dim", AINFTY_CASES)
def test_stacked_fold_equals_the_row_mean_fold_on_direction_blocks(kind, dim):
    for field in _ainfty_fields(kind, dim):
        rows = mweights._direction_weights(field, ainfty_directions(field, 8))
        assert mweights._fujii_wilson_fold(rows.copy()) == _reference_over_rows(rows), field.depth


@pytest.mark.parametrize("kind,dim", AINFTY_CASES)
def test_ainfty_directions_equal_the_one_dot_at_a_time_dedup(kind, dim):
    for field in _ainfty_fields(kind, dim):
        for seed in (0, 3):
            assert np.array_equal(ainfty_directions(field, 8, seed),
                                  ainfty_directions_reference(field, 8, seed)), field.depth


@pytest.mark.parametrize("gap,kept", [(1e-12, False), (1e-8, True)])
def test_ainfty_directions_merge_within_1e_10(gap, kept):
    """A depth-0 weight whose eigenvectors lie at 1 - |<u, e_i>| = gap from the
    coordinates: merged with them below the 1e-10 threshold, kept above it."""
    theta = math.acos(1.0 - gap)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    field = GridMatrixField(0, 2, (rot @ np.diag([2.0, 1.0]) @ rot.T)[None])
    dirs = ainfty_directions(field, 4)
    assert len(dirs) == 4 and np.array_equal(dirs[:2], np.eye(2))
    assert np.array_equal(dirs, ainfty_directions_reference(field, 4))
    halton = halton_sphere_directions(2, 2, 0)
    assert np.array_equal(dirs[2:], halton) != kept
    if kept:
        assert np.allclose(np.sort(np.abs(dirs[2:] @ np.eye(2)).max(axis=1)), 1.0 - gap,
                           rtol=0, atol=1e-15)


def test_ainfty_does_not_depend_on_the_blas_thread_count():
    # a threaded BLAS product that split its sums by thread would move the
    # bits of the direction weights with the machine
    import os
    import subprocess
    import sys
    code = ("from matw.weights import WeightFamilySpec as S, generate_weight as g, "
            "ainfty_characteristic as a; "
            "w = g(S('random_log_pd', 4, 14, parameter=1.0)); "
            "print(repr(a(w.field, 16)), repr(a(w.inverse_field, 16)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        outs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert len(outs) == 1, outs


@pytest.mark.parametrize("kind,dim,depth,bound", [("random_log_pd", 4, 14, 3_000_000),
                                                  ("scalar_power", 1, 18, 8_400_000)])
def test_ainfty_peak_memory(kind, dim, depth, bound):
    """Traced peak of one A-infinity call (tracemalloc, numpy 2.4).

    At (14, 4) the 128 directions go in blocks of 8, 1 MB each, folded in
    place, and the call peaks at about 2.4 MB; blocks of 16 peaked at 4.8 MB,
    one block of all 128 would hold 16 MB, and the einsum loop peaked at
    0.7 MB. At (18, 1) the fold of the one direction sets the peak: about
    4.7 MB, against 7.9 MB for a fold on the scalar's average tree and
    8.4 MB for the row-mean fold.
    """
    import tracemalloc
    t = 0.3 if kind == "scalar_power" else 1.0
    field = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t)).field
    tracemalloc.start()
    try:
        ainfty_characteristic(field, 2 * dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_inverse_weight_swaps_fields_without_changing_ainfty():
    specs = [WeightFamilySpec("identity", 2, 5),
             WeightFamilySpec("scalar_power", 2, 5, parameter=0.6),
             WeightFamilySpec("block_scalar", 2, 5, parameter=0.6),
             WeightFamilySpec("rotating", 2, 5, parameter=1.5),
             WeightFamilySpec("random_log_pd", 2, 5, parameter=1.2, seed=4)]
    for spec in specs:
        w = generate_weight(spec)
        rebuilt = GridMatrixField(w.depth, w.dim, w.inverse_field.values.copy())
        for seed in (0, 3):
            assert (ainfty_characteristic(w.inverse_field, 8, seed=seed)
                    == ainfty_characteristic(rebuilt, 8, seed=seed)), spec.kind


def test_ainfty_block_diagonal_attained_at_coordinate():
    vals = np.zeros((2, 2, 2))
    vals[:, 0, 0] = [1.0, 9.0]
    vals[:, 1, 1] = 1.0
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    assert abs(ainfty_characteristic(w.field, 16) - 1.4) <= 1e-12


def test_ainfty_requires_enough_directions():
    w = generate_weight(WeightFamilySpec("identity", 3, 2))
    with pytest.raises(ValueError, match="n_directions"):
        ainfty_characteristic(w.field, 5)


def test_ainfty_direction_set_contents():
    w = generate_weight(WeightFamilySpec("rotating", 2, 5, parameter=1.0))
    dirs = ainfty_directions(w.field, 24, seed=1)
    assert dirs.shape[0] >= 24
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # coordinates survive dedup
    assert any(np.allclose(np.abs(v), [1.0, 0.0], atol=1e-12) for v in dirs)


def test_halton_directions_deterministic_and_seed_dependent():
    a = halton_sphere_directions(3, 10, seed=5)
    b = halton_sphere_directions(3, 10, seed=5)
    c = halton_sphere_directions(3, 10, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_identity_family():
    w = generate_weight(WeightFamilySpec("identity", 2, 4))
    assert abs(a2_characteristic(w) - 1.0) <= 1e-12


def test_scalar_power_zero_parameter_is_identity():
    w = generate_weight(WeightFamilySpec("scalar_power", 2, 5, parameter=0.0))
    assert np.array_equal(w.field.values, np.tile(np.eye(2), (32, 1, 1)))


def test_scalar_power_golden_a2_value():
    w = generate_weight(WeightFamilySpec("scalar_power", 1, 10, parameter=0.5))
    a2 = a2_characteristic(w)
    assert abs(a2 - GOLDEN_SCALAR_POWER_A2_N10_T05) <= 1e-9 * GOLDEN_SCALAR_POWER_A2_N10_T05


def test_scalar_power_lacunary_blocks():
    vals = scalar_power_leaf_values(3, 0.5)  # exponent alpha = 2
    assert np.array_equal(vals, [2.0**-6, 2.0**-4, 2.0**-2, 2.0**-2,
                                 1.0, 1.0, 1.0, 1.0])


def test_generate_weight_deterministic():
    spec = WeightFamilySpec("random_log_pd", 3, 4, parameter=1.2, seed=42)
    assert np.array_equal(generate_weight(spec).field.values,
                          generate_weight(spec).field.values)


def test_family_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        WeightFamilySpec("powerish", 1, 3)
    with pytest.raises(ValueError, match="parameter"):
        WeightFamilySpec("scalar_power", 1, 3, parameter=1.0)
    with pytest.raises(ValueError, match="two dimensional"):
        WeightFamilySpec("rotating", 3, 3, parameter=0.5)


def test_all_families_produce_valid_weights():
    specs = [
        WeightFamilySpec("identity", 3, 4),
        WeightFamilySpec("scalar_power", 2, 6, parameter=0.4),
        WeightFamilySpec("block_scalar", 3, 6, parameter=0.4),
        WeightFamilySpec("rotating", 2, 6, parameter=2.0),
        WeightFamilySpec("random_log_pd", 4, 5, parameter=1.5, seed=3),
    ]
    for spec in specs:
        w = generate_weight(spec)
        vals = np.linalg.eigvalsh(w.field.values)
        assert np.all(vals > 0.0)
        assert a2_characteristic(w) >= 1.0 - 1e-12


def test_scale_invariance_of_characteristics():
    rng = np.random.default_rng(10)
    w = random_weight(rng, 2, 5)
    scaled = MatrixWeight(GridMatrixField(5, 2, 37.0 * w.field.values))
    assert abs(a2_characteristic(w) - a2_characteristic(scaled)) <= 1e-10 * a2_characteristic(w)
    a, b = ainfty_characteristic(w.field, 8, seed=0), ainfty_characteristic(scaled.field, 8, seed=0)
    assert abs(a - b) <= 1e-10 * a
    ws = np.exp(rng.uniform(-1, 1, 32))
    fw = fujii_wilson_constant(GridScalar(5, ws))
    fw_scaled = fujii_wilson_constant(GridScalar(5, 37.0 * ws))
    assert abs(fw - fw_scaled) <= 1e-10 * fw


def _diagonal_spectrum(leaves: np.ndarray, ascending: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of diagonal leaves, read off the diagonal:
    sorted, or in place with the coordinates as eigenvectors, as the diagonal
    families hand them."""
    diag = np.diagonal(leaves, axis1=1, axis2=2).copy()
    if not ascending:
        return diag, np.broadcast_to(np.eye(leaves.shape[1]), leaves.shape)
    order = np.argsort(diag, axis=1)
    return np.take_along_axis(diag, order, axis=1), np.eye(leaves.shape[1])[:, order].transpose(1, 0, 2)


def _rejection(leaves: np.ndarray, spectrum: bool) -> str:
    with pytest.raises(ValueError) as info:
        MatrixWeight(GridMatrixField(1, 2, leaves),
                     spectrum=_diagonal_spectrum(leaves, ascending=True) if spectrum else None)
    return str(info.value)


def test_weight_rejects_singular_leaf():
    vals = np.tile(np.eye(2), (2, 1, 1))
    vals[1] = np.diag([1.0, 1e-14])
    with pytest.raises(ValueError, match="singular weight"):
        MatrixWeight(GridMatrixField(1, 2, vals))


def test_weight_from_a_spectrum_rejects_a_singular_leaf_as_eigh_does():
    vals = np.tile(np.eye(2), (2, 1, 1))
    vals[1] = np.diag([1.0, 1e-14])
    message = _rejection(vals, spectrum=True)
    assert message == _rejection(vals, spectrum=False)
    assert message == "singular weight: leaf eigenvalue ratio 1.000e-14 below 1.0e-10"


def test_random_log_pd_inverse_from_its_spectrum_within_rounding():
    """The inverse V exp(-L) V^T from the generating eigendecomposition, and the
    one from an eigh of the stored leaves, each leave ||W W^-1 - I|| below
    k cond(W(x)) u per leaf, and differ by at most k cond u ||W^-1||. Measured
    at N = 10 and 14, t in {0.5, 1, 1.5, 2}, seeds 0 and 1: the worst ratios
    were 23.5 for the spectrum route, 11.0 for eigh and 21.6 for their
    difference, all at N = 14, t = 0.5, d = 3 or 4."""
    k, u = 32.0, float(np.finfo(float).eps) / 2
    for dim in (2, 3, 4):
        for t in (0.5, 1.0, 2.0):
            w = generate_weight(WeightFamilySpec("random_log_pd", dim, 12, parameter=t))
            eigh_route = MatrixWeight(w.field).inverse_field.values
            vals = np.linalg.eigvalsh(w.field.values)
            scale = k * u * vals[:, -1] / vals[:, 0]
            for inverse in (w.inverse_field.values, eigh_route):
                defect = np.linalg.norm(w.field.values @ inverse - np.eye(dim), ord=2, axis=(1, 2))
                assert np.all(defect <= scale), (dim, t)
            gap = np.linalg.norm(w.inverse_field.values - eigh_route, ord=2, axis=(1, 2))
            assert np.all(gap <= scale * np.linalg.norm(eigh_route, ord=2, axis=(1, 2))), (dim, t)
            assert not np.array_equal(w.inverse_field.values, eigh_route)


DIAGONAL_CASES = [(kind, dim, depth) for kind in ("identity", "scalar_power", "block_scalar")
                  for dim in (1, 2, 3, 4) for depth in (0, 1, 5, 12)] + [("scalar_power", 1, 18)]


@pytest.mark.parametrize("kind, dim, depth", DIAGONAL_CASES)
def test_diagonal_families_equal_the_eigh_route_bit_for_bit(kind, dim, depth):
    """The diagonal and the coordinates, handed unsorted, give the inverse, A2
    and the sampled A-infinity of an eigh of the stored leaves. t = 0 ties
    every eigenvalue of a leaf, and block_scalar ties coordinates on many
    leaves; t = 0.55 is inside the build range at N = 12 for every d."""
    for t in ((0.0,) if kind == "identity" else (0.0, 0.3, 0.55)):
        w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t))
        eigh_route = MatrixWeight(w.field)
        assert np.array_equal(w.inverse_field.values, eigh_route.inverse_field.values), t
        assert a2_characteristic(w) == a2_characteristic(eigh_route), t
        assert (ainfty_characteristic(w.inverse_field, 2 * dim + 2)
                == ainfty_characteristic(eigh_route.inverse_field, 2 * dim + 2)), t


def test_rotating_closed_form_inverse_within_rounding_of_the_eigh_route():
    """Measured at N <= 12, t in {0.1, 0.5, 1, 1.5, 2}: the inverses differ by
    at most 2.5e-15 of the largest entry and A2 by 6.8e-16 relative. The
    sampled A-infinity moved by at most 4.2e-16 wherever both routes kept the
    same number of directions. At N = 3, t = 2 they did not: the root average
    of W^-1 is a multiple of I to the last bit, so its eigenvectors are
    arbitrary, and the closed form's kept two more directions and read
    1.49968 against 1.49918."""
    for depth in (0, 1, 3, 5, 8, 12):
        for t in (0.5, 1.0, 2.0):
            w = generate_weight(WeightFamilySpec("rotating", 2, depth, parameter=t))
            eigh_route = MatrixWeight(w.field)
            inv, ref = w.inverse_field.values, eigh_route.inverse_field.values
            assert np.max(np.abs(inv - ref)) <= 3e-15 * np.max(np.abs(ref)), (depth, t)
            a2, a2_ref = a2_characteristic(w), a2_characteristic(eigh_route)
            assert abs(a2 - a2_ref) <= 1e-15 * a2_ref, (depth, t)
            for seed in (0, 3):
                if (len(ainfty_directions(w.inverse_field, 8, seed))
                        == len(ainfty_directions(eigh_route.inverse_field, 8, seed))):
                    ainf = ainfty_characteristic(w.inverse_field, 8, seed)
                    ainf_ref = ainfty_characteristic(eigh_route.inverse_field, 8, seed)
                    assert abs(ainf - ainf_ref) <= 1e-15 * ainf_ref, (depth, t, seed)


@pytest.mark.parametrize("kind, dim, depth, bound", [("scalar_power", 1, 18, 11_000_000),
                                                     ("random_log_pd", 4, 14, 9_200_000)])
def test_generate_weight_peak_memory(kind, dim, depth, bound):
    """Traced peak of one generate_weight in a fresh process (tests/_peak.py):
    10,750,266 bytes at scalar_power (18, 1), t = 0.3, and 8,914,113 bytes at
    random_log_pd (14, 4), t = 1 (numpy 2.4). With W^-1 and its tree built in
    the constructor and the leaves' locals alive to the end, the two read
    17,049,380 and 19,227,612 bytes."""
    build = ("from matw.weights import WeightFamilySpec, generate_weight\n"
             "def spec(depth):\n"
             f"    return WeightFamilySpec('{kind}', {dim}, depth, parameter={0.3 if dim == 1 else 1.0})\n"
             "generate_weight(spec(2))")
    assert traced_peak(build, f"w = generate_weight(spec({depth}))") <= bound


@pytest.mark.parametrize("kind", ["scalar_power", "block_scalar"])
def test_power_families_build_only_inside_their_range_at_dim_2_and_up(kind):
    """At d >= 2, leaf 0 pairs 2^(-N 2t/(1-t)) with 1, so the family builds
    only while N 2t/(1-t) <= log2(1/eps_pd), 33.2 at the default eps_pd. The
    handed spectrum raises the message of an eigh of the same leaves."""
    limit = math.log2(1.0 / mweights.EPS_PD)
    for depth, inside, outside in ((14, 0.54, 0.55), (10, 0.62, 0.63)):
        for dim in (2, 3, 4):
            assert depth * 2 * inside / (1 - inside) <= limit < depth * 2 * outside / (1 - outside)
            generate_weight(WeightFamilySpec(kind, dim, depth, parameter=inside))
    for depth, dim, t, ratio in ((14, 2, 0.55, "4.990e-11"), (14, 4, 0.55, "4.990e-11"),
                                 (10, 3, 0.63, "5.607e-11"), (10, 2, 0.9, "6.525e-55")):
        spec = WeightFamilySpec(kind, dim, depth, parameter=t)
        with pytest.raises(ValueError) as info:
            generate_weight(spec)
        assert str(info.value) == f"singular weight: leaf eigenvalue ratio {ratio} below 1.0e-10"
        leaves = GridMatrixField(depth, dim, mweights._family_leaves(spec)[0])
        with pytest.raises(ValueError, match=re.escape(str(info.value))):
            MatrixWeight(leaves)


@pytest.mark.parametrize("dim, eps_pd, message", [
    (2, 1e-17, "eps_pd 1.0e-17 is below the floor 1.0e-10"),
    (2, 0.0, "eps_pd 0.0e+00 is below the floor 1.0e-10"),
    (2, float("nan"), "eps_pd nan is below the floor 1.0e-10"),
    (400, 1e-10, "eps_pd 1.0e-10 is below the floor 1.4e-10"),
], ids=["tiny", "zero", "nan", "large_dim"])
def test_weight_rejects_eps_pd_below_its_floor(dim, eps_pd, message):
    # the check comes before any eigensolve, so the 400 x 400 leaf costs nothing
    with pytest.raises(ValueError, match=re.escape(message)):
        MatrixWeight(GridMatrixField(0, dim, np.eye(dim)[None]), eps_pd=eps_pd)


OUTSIDE_THE_FLOAT_RANGE = pytest.mark.parametrize("leaves, message", [
    ([np.eye(2), np.diag([1e-310, 1e-310])], "leaf 1 has eigenvalue 1.000e-310"),
    ([5e307 * np.eye(2), np.eye(2)], "leaf 0 has eigenvalue 5.000e+307"),
], ids=["subnormal", "inverse_subnormal"])


@OUTSIDE_THE_FLOAT_RANGE
def test_weight_rejects_a_leaf_outside_the_float_range(leaves, message):
    with pytest.raises(ValueError, match=re.escape(message + ", whose inverse leaves the float range")):
        MatrixWeight(GridMatrixField(1, 2, np.array(leaves)))


@OUTSIDE_THE_FLOAT_RANGE
def test_weight_from_a_spectrum_rejects_a_leaf_outside_the_float_range_as_eigh_does(leaves, message):
    got = _rejection(np.array(leaves), spectrum=True)
    assert got == _rejection(np.array(leaves), spectrum=False)
    assert got == message + ", whose inverse leaves the float range"


@pytest.mark.parametrize("leaves, message", [
    ([np.diag([1.0, -1.0]), np.eye(2)], "weight has a non positive definite leaf"),
    ([np.eye(2), np.diag([1.0, 1e-14])], "singular weight: leaf eigenvalue ratio 1.000e-14 below 1.0e-10"),
    ([np.eye(2), np.diag([1e-310, 1e-310])],
     "leaf 1 has eigenvalue 1.000e-310, whose inverse leaves the float range"),
    ([np.eye(2), np.diag([5e307, 4e307])],
     "leaf 1 has eigenvalue 5.000e+307, whose inverse leaves the float range"),
], ids=["indefinite", "singular", "subnormal", "inverse_subnormal"])
def test_generate_weight_raises_each_construction_error_from_its_handed_spectrum(monkeypatch, leaves,
                                                                                 message):
    """The inverse is built on first read, so the constructor must still reject
    the leaves, from the diagonal in place as the diagonal families hand it:
    diag(1, -1) has its smallest eigenvalue last, diag(5e307, 4e307) its largest
    first. The message is that of an eigh of the same leaves."""
    leaves = np.array(leaves)
    monkeypatch.setattr(mweights, "_family_leaves",
                        lambda spec: (leaves.copy(), *_diagonal_spectrum(leaves, ascending=False)))
    with pytest.raises(ValueError) as info:
        generate_weight(WeightFamilySpec("identity", 2, 1))
    assert str(info.value) == _rejection(leaves, spectrum=False) == message


def test_weight_accepts_leaves_at_the_ends_of_the_float_range():
    tiny = np.finfo(float).tiny
    w = scalar_weight(2, [tiny, 1.0, 1.0, 1.0 / tiny])
    assert np.all(np.isfinite(w.inverse_field.values))


@pytest.mark.parametrize("kind, dim, depth, t", [
    ("scalar_power", 1, 6, 0.9887),
    ("scalar_power", 1, 6, 0.99),
    ("block_scalar", 2, 6, 0.9887),
    ("rotating", 2, 3, 800.0),
    ("rotating", 2, 3, float("nan")),
    ("random_log_pd", 2, 3, 400.0),
])
def test_generate_weight_rejects_parameters_past_the_float_range(kind, dim, depth, t):
    with pytest.raises(ValueError, match="past the float range"):
        generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t))


def test_generate_weight_accepts_the_deepest_normal_power_weight():
    # depth 2t/(1-t) = 988 <= 1022: the smallest leaf is 2^-988
    w = generate_weight(WeightFamilySpec("scalar_power", 1, 6, parameter=0.988))
    assert np.min(w.field.values) == scalar_power_leaf_values(6, 0.988)[0] > 0.0


def test_weight_json_roundtrip(tmp_path):
    w = generate_weight(WeightFamilySpec("rotating", 2, 3, parameter=0.7, seed=5))
    path = tmp_path / "w.json"
    save_field(w, str(path))
    loaded = load_weight(str(path))
    assert np.max(np.abs(loaded.field.values - w.field.values)) <= 1e-15
    assert loaded.metadata["kind"] == "rotating"
    assert loaded.metadata["parameter"] == 0.7


def test_cached_averages_consistent_with_field():
    rng = np.random.default_rng(12)
    w = random_weight(rng, 2, 4)
    from matw.dyadic import DyadicInterval
    for level in range(5):
        for j in range(1 << level):
            iv = DyadicInterval(level, j)
            direct = w.field.values[iv.leaf_slice(4)].mean(axis=0)
            assert np.max(np.abs(w.field.average(iv) - direct)) <= 1e-12
            inv_direct = w.inverse_field.values[iv.leaf_slice(4)].mean(axis=0)
            assert np.max(np.abs(w.inverse_field.average(iv) - inv_direct)) <= 1e-12
