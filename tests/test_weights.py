import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matw.weights as mweights
from matw.dyadic import DyadicInterval, GridMatrixField, GridScalar
from matw.linalg import psd_power_stack
from matw.weights import (MatrixWeight, WeightFamilySpec, a2_characteristic,
                          ainfty_characteristic, ainfty_directions,
                          fujii_wilson_constant, generate_weight,
                          halton_sphere_directions, load_weight,
                          matrix_weight_from_scalar, save_weight, scalar_direction_weight,
                          scalar_power_leaf_values)

from _oracles import (a2_every_interval_reference, brute_fujii_wilson, brute_matrix_a2,
                      brute_scalar_a2)

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
    root = mweights._a2_trace_bounds(weight.level_averages(0), weight.inverse_field.level_averages(0))
    assert not np.isfinite(root[0])
    a2 = a2_characteristic(weight)
    assert a2 == a2_every_interval_reference(weight) and a2 > 1e199


def test_a2_peak_memory():
    """Traced peak of one A2 against the every-interval loop that the bound
    pass replaced.

    That loop peaked at 13.5 MB at scalar_power (N, d) = (18, 1), t = 0.3
    (tracemalloc, numpy 2.4); the bound pass with a fresh array per step
    raised it to 21.2 MB. The in-place pass peaks at about 12.6 MB.
    """
    import tracemalloc
    weight = generate_weight(WeightFamilySpec("scalar_power", 1, 18, parameter=0.3))
    tracemalloc.start()
    try:
        a2_characteristic(weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_500_000


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
            roots = psd_power_stack(w.level_averages(level), 0.5)
            for index in range(1 << level):
                assert np.array_equal(w.sqrt_average(DyadicInterval(level, index)), roots[index])


def test_direction_weight_identity():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    e = np.array([1.0, 0.0])
    assert np.allclose(scalar_direction_weight(w, e).values, 1.0)


def test_direction_weight_coordinate_extraction():
    vals = np.zeros((2, 2, 2))
    vals[:, 0, 0] = [1.0, 9.0]
    vals[:, 1, 1] = 1.0
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    assert np.array_equal(scalar_direction_weight(w, np.array([1.0, 0.0])).values, [1.0, 9.0])


def test_direction_weight_quadratic_form():
    vals = np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]), (2, 1, 1))
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    e = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(scalar_direction_weight(w, e).values, 3.0)


def test_direction_weight_rejects_bad_directions():
    w = generate_weight(WeightFamilySpec("identity", 2, 1))
    with pytest.raises(ValueError, match="nonzero"):
        scalar_direction_weight(w, np.zeros(2))
    with pytest.raises(ValueError, match="unit"):
        scalar_direction_weight(w, np.array([1.0, 1.0]))


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


def test_fujii_wilson_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        fujii_wilson_constant(GridScalar(1, [1.0, 0.0]))


def test_ainfty_identity():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    assert abs(ainfty_characteristic(w, 8) - 1.0) <= 1e-12


def test_ainfty_scalar_case_is_exact_fujii_wilson():
    w = scalar_weight(3, np.exp(np.linspace(-1, 2, 8)))
    expected = fujii_wilson_constant(GridScalar(3, np.exp(np.linspace(-1, 2, 8))))
    for n_dirs in (2, 8, 32):
        assert abs(ainfty_characteristic(w, n_dirs) - expected) <= 1e-12


def test_ainfty_evaluates_each_direction_once_up_to_sign(monkeypatch):
    # for d = 1 every direction is +1 or -1, and W_e = W_{-e}
    import matw.weights as mweights
    calls = []
    original = mweights.fujii_wilson_constant
    monkeypatch.setattr(mweights, "fujii_wilson_constant",
                        lambda w: calls.append(w) or original(w))
    w = scalar_weight(4, np.exp(np.linspace(-1, 2, 16)))
    assert len(ainfty_directions(w, 8)) == 8
    ainfty_characteristic(w, 8)
    assert len(calls) == 1


def test_inverse_weight_swaps_fields_without_changing_ainfty():
    specs = [WeightFamilySpec("identity", 2, 5),
             WeightFamilySpec("scalar_power", 2, 5, parameter=0.6),
             WeightFamilySpec("block_scalar", 2, 5, parameter=0.6),
             WeightFamilySpec("rotating", 2, 5, parameter=1.5),
             WeightFamilySpec("random_log_pd", 2, 5, parameter=1.2, seed=4)]
    for spec in specs:
        w = generate_weight(spec)
        inv = w.inverse()
        assert inv.field is w.inverse_field and inv.inverse_field is w.field
        assert inv.eps_pd == w.eps_pd
        rebuilt = MatrixWeight(w.inverse_field, eps_pd=w.eps_pd)
        for seed in (0, 3):
            assert (ainfty_characteristic(inv, 8, seed=seed)
                    == ainfty_characteristic(rebuilt, 8, seed=seed)), spec.kind


def test_ainfty_block_diagonal_attained_at_coordinate():
    vals = np.zeros((2, 2, 2))
    vals[:, 0, 0] = [1.0, 9.0]
    vals[:, 1, 1] = 1.0
    w = MatrixWeight(GridMatrixField(1, 2, vals))
    assert abs(ainfty_characteristic(w, 16) - 1.4) <= 1e-12


def test_ainfty_requires_enough_directions():
    w = generate_weight(WeightFamilySpec("identity", 3, 2))
    with pytest.raises(ValueError, match="n_directions"):
        ainfty_characteristic(w, 5)


def test_ainfty_direction_set_contents():
    w = generate_weight(WeightFamilySpec("rotating", 2, 5, parameter=1.0))
    dirs = ainfty_directions(w, 24, seed=1)
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
    a, b = ainfty_characteristic(w, 8, seed=0), ainfty_characteristic(scaled, 8, seed=0)
    assert abs(a - b) <= 1e-10 * a
    ws = np.exp(rng.uniform(-1, 1, 32))
    fw = fujii_wilson_constant(GridScalar(5, ws))
    fw_scaled = fujii_wilson_constant(GridScalar(5, 37.0 * ws))
    assert abs(fw - fw_scaled) <= 1e-10 * fw


def test_weight_rejects_singular_leaf():
    vals = np.tile(np.eye(2), (2, 1, 1))
    vals[1] = np.diag([1.0, 1e-14])
    with pytest.raises(ValueError, match="singular weight"):
        MatrixWeight(GridMatrixField(1, 2, vals))


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


@pytest.mark.parametrize("leaves, message", [
    ([np.eye(2), np.diag([1e-310, 1e-310])], "leaf 1 has eigenvalue 1.000e-310"),
    ([5e307 * np.eye(2), np.eye(2)], "leaf 0 has eigenvalue 5.000e+307"),
], ids=["subnormal", "inverse_subnormal"])
def test_weight_rejects_a_leaf_outside_the_float_range(leaves, message):
    with pytest.raises(ValueError, match=re.escape(message + ", whose inverse leaves the float range")):
        MatrixWeight(GridMatrixField(1, 2, np.array(leaves)))


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
    save_weight(w, str(path))
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
            assert np.max(np.abs(w.average(iv) - direct)) <= 1e-12
            inv_direct = w.inverse_field.values[iv.leaf_slice(4)].mean(axis=0)
            assert np.max(np.abs(w.inverse_field.average(iv) - inv_direct)) <= 1e-12
