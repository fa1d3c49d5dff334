import numpy as np
import pytest

from matw.dyadic import GridScalar, GridVector
from matw.opnorm import (PowerIterationOptions, apply_form, estimate_operator_norm,
                         rayleigh_quotient, weighted_l2_sq)
from matw.haar import analyze, sw_norm_squared
from matw.weights import WeightFamilySpec, generate_weight, matrix_weight_from_scalar

from _oracles import (dense_top_generalized_eigenvalue, power_iteration_reference,
                      random_grid_vector)


def test_identity_weight_norm_is_one():
    w = generate_weight(WeightFamilySpec("identity", 2, 5))
    est = estimate_operator_norm(w)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-9


def test_two_cell_closed_form_and_witness_direction():
    w = matrix_weight_from_scalar(GridScalar(1, [1.0, 9.0]))
    est = estimate_operator_norm(w)
    assert est.converged
    assert abs(est.value - 25.0 / 9.0) <= 1e-9 * (25.0 / 9.0)
    direction = est.witness.values.ravel()
    expected = np.array([-9.0, 1.0]) / np.linalg.norm([-9.0, 1.0])
    cosine = abs(float(direction @ expected) / np.linalg.norm(direction))
    assert cosine >= 1.0 - 1e-9


def test_apply_form_matches_quadratic_form():
    rng = np.random.default_rng(41)
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 5, parameter=1.0, seed=3))
    f = random_grid_vector(5, 2, rng)
    image = apply_form(w, f)
    # <A f, f>_{L^2} must equal the energy Q(f)
    pairing = float(np.sum(image.values * f.values) * 2.0**-5)
    assert abs(pairing - sw_norm_squared(w, f)) <= 1e-10


def test_power_step_analyzes_each_iterate_once(monkeypatch):
    import matw.opnorm as mopnorm
    calls = []
    original = mopnorm._HaarHeap.analyze
    monkeypatch.setattr(mopnorm._HaarHeap, "analyze",
                        lambda heap: calls.append(heap) or original(heap))
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 5, parameter=1.0, seed=9))
    est = estimate_operator_norm(w)
    # the start vector plus one analysis per step; the final Rayleigh quotient
    # goes through haar.sw_norm_squared
    assert len(calls) == est.iters + 1


FAMILY_PARAMETERS = {"identity": 0.0, "scalar_power": 0.4, "block_scalar": 0.6,
                     "rotating": 1.5, "random_log_pd": 1.0}


def test_heap_loop_matches_per_level_reference_loop():
    # d = 1 runs the same floating-point operations in the same order; for
    # d > 1 the d x d products and the sums over d components are ordered
    # differently, which moves the value in the last bits only
    opts = PowerIterationOptions(rel_tol=1e-9)
    for kind, t in FAMILY_PARAMETERS.items():
        for dim in ((2,) if kind == "rotating" else (1, 2, 3, 4)):
            for depth in range(1, 9):
                w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t, seed=depth))
                est, ref = estimate_operator_norm(w, opts), power_iteration_reference(w, opts)
                case = (kind, dim, depth)
                assert (est.iters, est.converged) == (ref.iters, ref.converged), case
                if dim == 1:
                    assert est.value == ref.value, case
                    assert np.array_equal(est.witness.values, ref.witness.values), case
                else:
                    assert abs(est.value - ref.value) <= 1e-13 * ref.value, case


@pytest.mark.parametrize("depth, dim, parent_peak", [(16, 1, 4_466_343), (12, 4, 1_121_465)])
def test_power_iteration_peak_memory(depth, dim, parent_peak):
    """Traced peak of one estimate against the per-level loop it replaced.

    That loop peaked at 4,465,401-4,466,343 bytes at (N, d) = (16, 1) and at
    1,121,392-1,121,465 bytes at (12, 4), over three tracemalloc runs of the
    same call (numpy 2.4); the bound takes the highest. The heap loop may add,
    for d > 1, its (d, d, n) copies of <W>_I and of W^-1, 2 * 2^N * d^2
    doubles; nothing else of that size.
    """
    import tracemalloc
    w = generate_weight(WeightFamilySpec("random_log_pd", dim, depth, parameter=1.0, seed=0))
    tracemalloc.start()
    try:
        estimate_operator_norm(w, PowerIterationOptions(max_iters=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowed = parent_peak + (0 if dim == 1 else 2 * (1 << depth) * dim * dim * 8)
    assert peak <= allowed


@pytest.mark.parametrize("dim", [1, 3])
def test_depth_zero_norm_is_zero_with_normalized_constant_witness(dim):
    w = generate_weight(WeightFamilySpec("random_log_pd", dim, 0, parameter=1.0, seed=2))
    est = estimate_operator_norm(w)
    assert (est.value, est.iters, est.converged) == (0.0, 0, True)
    assert np.count_nonzero(est.witness.values) == 1
    assert abs(weighted_l2_sq(w, est.witness) - 1.0) <= 1e-15


def test_power_iteration_agrees_with_dense_solver():
    cases = [(1, 6), (2, 5), (2, 4), (4, 3), (1, 3), (3, 4)]
    rng = np.random.default_rng(43)
    for dim, depth in cases:
        seed = int(rng.integers(2**31))
        w = generate_weight(WeightFamilySpec("random_log_pd", dim, depth,
                                             parameter=1.2, seed=seed))
        dense = dense_top_generalized_eigenvalue(w)
        est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-12, seed=seed))
        assert abs(est.value - dense) <= 1e-6 * dense, (dim, depth, seed)


def test_power_iteration_agrees_with_dense_solver_on_sharpness_grid():
    # the norm factor of the sharpness-trace ratio, on the acceptance grid; leaf
    # values span far beyond the random fixtures, and t >= 0.8 stops after two
    # iterations
    for depth in (6, 8):
        for t in (round(0.1 * k, 1) for k in range(1, 10)):
            w = generate_weight(WeightFamilySpec("scalar_power", 1, depth, parameter=t))
            dense = dense_top_generalized_eigenvalue(w)
            est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-10))
            assert abs(est.value - dense) <= 1e-9 * dense, (depth, t, est.iters)


def test_witness_certifies_reported_value():
    w = generate_weight(WeightFamilySpec("rotating", 2, 6, parameter=1.5))
    est = estimate_operator_norm(w)
    quotient = (sw_norm_squared(w, est.witness)
                / weighted_l2_sq(w, est.witness))
    assert abs(quotient - est.value) <= 1e-12 * est.value


def test_witness_lower_bound_property():
    # any function's Rayleigh quotient is a lower bound; witness attains the estimate
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 5, parameter=1.0, seed=9))
    dense = dense_top_generalized_eigenvalue(w)
    est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-12, seed=5))
    assert est.value <= dense * (1.0 + 1e-9)


def test_mean_shift_never_improves_witness():
    rng = np.random.default_rng(47)
    w = generate_weight(WeightFamilySpec("random_log_pd", 3, 4, parameter=1.0, seed=11))
    est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-12))
    for _ in range(10):
        shift = rng.standard_normal(3)
        shifted = GridVector(4, 3, est.witness.values + shift)
        assert rayleigh_quotient(w, shifted) <= est.value * (1.0 + 1e-9)


def test_unconverged_flag_when_iterations_exhausted():
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 6, parameter=1.5, seed=13))
    est = estimate_operator_norm(w, PowerIterationOptions(max_iters=1, rel_tol=1e-12))
    assert not est.converged
    assert est.iters == 1
    assert est.value > 0.0


def test_estimate_deterministic_given_seed():
    w = generate_weight(WeightFamilySpec("rotating", 2, 5, parameter=1.0))
    a = estimate_operator_norm(w, PowerIterationOptions(seed=3))
    b = estimate_operator_norm(w, PowerIterationOptions(seed=3))
    assert a.value == b.value and a.iters == b.iters
    assert np.array_equal(a.witness.values, b.witness.values)


def test_start_vector_is_mean_zero():
    from matw.opnorm import start_vector
    w = generate_weight(WeightFamilySpec("identity", 3, 6))
    f = start_vector(w, 123)
    assert np.max(np.abs(f.values.mean(axis=0))) <= 1e-12


def test_options_validation():
    with pytest.raises(ValueError):
        PowerIterationOptions(rel_tol=1e-2)
    with pytest.raises(ValueError):
        PowerIterationOptions(rel_tol=0.0)
