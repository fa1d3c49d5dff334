import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matw.dyadic import ROOT, DyadicInterval, GridMatrixField, GridScalar, GridVector
from matw.haar import analyze, s3w_norm_squared, sw_norm_squared, synthesize
from matw.weights import MatrixWeight, WeightFamilySpec, generate_weight, matrix_weight_from_scalar

from _oracles import (SignPattern, direct_l2_sq, haar_leaf_values, martingale_transform,
                      random_grid_vector, sw_monte_carlo, sw_sign_enumeration,
                      unweighted_square_function, unweighted_square_function_sq)


def scalar_weight(depth, values):
    return matrix_weight_from_scalar(GridScalar(depth, values))


def test_analyze_constant_function():
    f = GridVector(3, 2, np.tile([2.0, -1.0], (8, 1)))
    assert np.array_equal(f.average(ROOT), [2.0, -1.0])
    for level in analyze(f):
        assert np.all(level == 0.0)


def test_analyze_two_cell_coefficient():
    # (f, h_J) = (1*1 + (-1)*(-1)) / 2 = 1 with h_J = +1 left, -1 right
    f = GridVector(1, 1, [[1.0], [-1.0]])
    assert f.average(ROOT)[0] == 0.0
    assert analyze(f)[ROOT.level][ROOT.index][0] == 1.0


def test_analyze_matches_haar_inner_products():
    # Parseval and the synthesize round trip would survive a consistent
    # permutation or sign flip within a level; this pins each c_I to (f, h_I).
    rng = np.random.default_rng(36)
    for depth in range(7):
        for dim in (1, 3):
            f = random_grid_vector(depth, dim, rng)
            coeffs = analyze(f)
            assert len(coeffs) == depth
            for level in range(depth):
                for j in range(1 << level):
                    direct = haar_leaf_values(depth, level, j) @ f.values * 2.0**-depth
                    assert np.max(np.abs(coeffs[level][j] - direct)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 12), dim=st.sampled_from([1, 2, 4]),
       seed=st.integers(0, 2**31))
def test_parseval_identity(depth, dim, seed):
    f = random_grid_vector(depth, dim, np.random.default_rng(seed))
    total = float(np.sum(f.average(ROOT)**2)) + float(
        sum(np.sum(c * c) for c in analyze(f)))
    assert abs(total - direct_l2_sq(f.values, depth)) <= 1e-10 * max(1.0, total)


def test_synthesis_reproduces_function():
    rng = np.random.default_rng(21)
    for depth, dim in [(1, 1), (4, 2), (6, 3)]:
        f = random_grid_vector(depth, dim, rng)
        rebuilt = synthesize(analyze(f), f.average(ROOT))
        assert np.max(np.abs(rebuilt.values - f.values)) <= 1e-11


def test_martingale_plus_signs_recovers_mean_free_part():
    rng = np.random.default_rng(22)
    f = random_grid_vector(4, 2, rng)
    mean_free = f.values - f.values.mean(axis=0)
    out = martingale_transform(f, SignPattern.constant(4, +1))
    assert np.max(np.abs(out.values - mean_free)) <= 1e-11


def test_martingale_minus_signs_negates():
    rng = np.random.default_rng(23)
    f = random_grid_vector(4, 1, rng)
    plus = martingale_transform(f, SignPattern.constant(4, +1))
    minus = martingale_transform(f, SignPattern.constant(4, -1))
    assert np.max(np.abs(plus.values + minus.values)) <= 1e-11


def test_martingale_transform_is_isometry():
    rng = np.random.default_rng(24)
    for i in range(20):
        depth = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        f = random_grid_vector(depth, dim, rng)
        signs = SignPattern.random(depth, seed=i)
        out = martingale_transform(f, signs)
        mean_free_norm = direct_l2_sq(f.values - f.values.mean(axis=0), depth)
        out_norm = direct_l2_sq(out.values, depth)
        assert abs(out_norm - mean_free_norm) <= 1e-10 * max(1.0, mean_free_norm)


def test_incomplete_sign_pattern_rejected():
    with pytest.raises(ValueError, match="incomplete sign pattern"):
        SignPattern(2, [np.array([1.0])])
    f = random_grid_vector(3, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="incomplete sign pattern"):
        martingale_transform(f, SignPattern.constant(2, 1))


def test_square_function_constant_vanishes():
    f = GridVector(3, 1, np.full((8, 1), 4.0))
    assert np.all(unweighted_square_function_sq(f).values == 0.0)


def test_square_function_two_cell():
    f = GridVector(1, 1, [[1.0], [-1.0]])
    assert np.array_equal(unweighted_square_function_sq(f).values, [1.0, 1.0])
    assert np.array_equal(unweighted_square_function(f).values, [1.0, 1.0])


def test_square_function_integral_matches_coefficient_mass():
    rng = np.random.default_rng(25)
    for _ in range(10):
        depth, dim = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        g = random_grid_vector(depth, dim, rng)
        mass = float(sum(np.sum(c * c) for c in analyze(g)))
        integral = float(np.mean(unweighted_square_function_sq(g).values))
        assert abs(integral - mass) <= 1e-10 * max(1.0, mass)
        mean_free = direct_l2_sq(g.values - g.values.mean(axis=0), depth)
        assert abs(integral - mean_free) <= 1e-10 * max(1.0, mean_free)


def test_sw_identity_weight_is_parseval():
    rng = np.random.default_rng(26)
    f = random_grid_vector(5, 2, rng)
    w = generate_weight(WeightFamilySpec("identity", 2, 5))
    mean_free = direct_l2_sq(f.values - f.values.mean(axis=0), 5)
    assert abs(sw_norm_squared(w, f) - mean_free) <= 1e-10 * max(1.0, mean_free)


def test_sw_two_cell_hand_value():
    w = scalar_weight(1, [1.0, 9.0])
    f = GridVector(1, 1, [[1.0], [-1.0]])
    assert abs(sw_norm_squared(w, f) - 5.0) <= 1e-12


def test_sw_scalar_reduction_two_code_paths():
    rng = np.random.default_rng(27)
    for _ in range(20):
        depth = int(rng.integers(1, 9))
        wvals = np.exp(rng.uniform(-2, 2, 1 << depth))
        w = scalar_weight(depth, wvals)
        f = random_grid_vector(depth, 1, rng)
        closed = sw_norm_squared(w, f)
        via_square_function = float(
            np.mean(unweighted_square_function_sq(f).values * wvals))
        assert abs(closed - via_square_function) <= 1e-10 * max(1.0, closed)


def test_sw_mean_independence():
    rng = np.random.default_rng(28)
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 4, parameter=1.0, seed=1))
    f = random_grid_vector(4, 2, rng)
    shifted = GridVector(4, 2, f.values + np.array([3.0, -7.0]))
    assert abs(sw_norm_squared(w, f) - sw_norm_squared(w, shifted)) <= 1e-10


def test_sw_monotone_in_weight():
    rng = np.random.default_rng(29)
    f = random_grid_vector(4, 2, rng)
    small = generate_weight(WeightFamilySpec("random_log_pd", 2, 4, parameter=0.8, seed=2))
    bigger_vals = small.field.values + np.tile(0.5 * np.eye(2), (16, 1, 1))
    bigger = MatrixWeight(GridMatrixField(4, 2, bigger_vals))
    assert sw_norm_squared(bigger, f) >= sw_norm_squared(small, f) - 1e-12


def test_sw_dimension_mismatch():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    with pytest.raises(ValueError, match="do not match"):
        sw_norm_squared(w, random_grid_vector(3, 1, np.random.default_rng(0)))


def test_sign_enumeration_depth_one():
    w = scalar_weight(1, [1.0, 9.0])
    f = GridVector(1, 1, [[1.0], [-1.0]])
    assert abs(sw_sign_enumeration(w, f) - 5.0) <= 1e-12


def test_sign_enumeration_matches_closed_form():
    rng = np.random.default_rng(30)
    for seed in range(10):
        depth = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 3))
        w = generate_weight(WeightFamilySpec("random_log_pd", dim, depth,
                                             parameter=1.2, seed=seed))
        f = random_grid_vector(depth, dim, rng)
        closed = sw_norm_squared(w, f)
        assert abs(sw_sign_enumeration(w, f) - closed) <= 1e-10 * max(1.0, closed)


def test_sign_enumeration_identity_weight():
    rng = np.random.default_rng(31)
    f = random_grid_vector(3, 2, rng)
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    mean_free = direct_l2_sq(f.values - f.values.mean(axis=0), 3)
    assert abs(sw_sign_enumeration(w, f) - mean_free) <= 1e-10 * max(1.0, mean_free)


def test_sign_enumeration_cap():
    w = generate_weight(WeightFamilySpec("identity", 1, 5))
    f = random_grid_vector(5, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sw_monte_carlo"):
        sw_sign_enumeration(w, f)


def test_monte_carlo_consistency():
    rng = np.random.default_rng(32)
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 8, parameter=1.0, seed=4))
    f = random_grid_vector(8, 2, rng)
    mean, stderr = sw_monte_carlo(w, f, 10_000, seed=9)
    closed = sw_norm_squared(w, f)
    assert abs(mean - closed) <= 5.0 * max(stderr, 1e-12 * closed)


def test_monte_carlo_depth_one_has_zero_variance():
    w = scalar_weight(1, [1.0, 9.0])
    f = GridVector(1, 1, [[1.0], [-1.0]])
    mean, stderr = sw_monte_carlo(w, f, 500, seed=0)
    assert stderr == 0.0
    assert abs(mean - 5.0) <= 1e-12


def test_monte_carlo_deterministic_given_seed():
    rng = np.random.default_rng(33)
    w = generate_weight(WeightFamilySpec("rotating", 2, 5, parameter=1.0))
    f = random_grid_vector(5, 2, rng)
    assert sw_monte_carlo(w, f, 300, seed=7) == sw_monte_carlo(w, f, 300, seed=7)
    assert sw_monte_carlo(w, f, 300, seed=7) != sw_monte_carlo(w, f, 300, seed=8)


def test_monte_carlo_requires_enough_samples():
    w = generate_weight(WeightFamilySpec("identity", 1, 2))
    with pytest.raises(ValueError, match="100"):
        sw_monte_carlo(w, random_grid_vector(2, 1, np.random.default_rng(0)), 50)


def test_s3w_root_family_identity_weight():
    w = generate_weight(WeightFamilySpec("identity", 2, 3))
    g = random_grid_vector(3, 2, np.random.default_rng(34))
    expected = float(np.mean(np.linalg.norm(g.values, axis=1))) ** 2
    assert abs(s3w_norm_squared(w, g, [ROOT]) - expected) <= 1e-12 * max(1.0, expected)


def test_s3w_two_cell_hand_value():
    # sqrt(<w>_J) = sqrt(5); <|sqrt(5) * 1|>_J^2 = 5
    w = scalar_weight(1, [1.0, 9.0])
    g = GridVector(1, 1, [[1.0], [1.0]])
    assert abs(s3w_norm_squared(w, g, [ROOT]) - 5.0) <= 1e-12


def test_s3w_monotone_in_family():
    w = generate_weight(WeightFamilySpec("rotating", 2, 4, parameter=1.0))
    g = random_grid_vector(4, 2, np.random.default_rng(35))
    small = s3w_norm_squared(w, g, [ROOT])
    more = s3w_norm_squared(w, g, [ROOT, DyadicInterval(1, 0), DyadicInterval(2, 3)])
    assert more >= small - 1e-15
