import numpy as np
import pytest

from matw.dyadic import GridScalar, GridVector
from matw.opnorm import (PowerIterationOptions, apply_form, estimate_operator_norm,
                         rayleigh_quotient, weighted_l2_sq)
from matw.haar import analyze, sw_norm_squared
from matw.weights import WeightFamilySpec, generate_weight, matrix_weight_from_scalar

from _oracles import (dense_top_generalized_eigenvalue, power_iteration_reference,
                      random_grid_vector)
from _peak import traced_peak


def test_identity_weight_norm_is_one():
    # A x = x for every mean-zero x, so the start vector is already an
    # eigenvector: W^-1 A x = rho x, and the loop stops before its first step
    for dim, depth in ((1, 1), (2, 5), (4, 9)):
        w = generate_weight(WeightFamilySpec("identity", dim, depth))
        est = estimate_operator_norm(w)
        assert (est.iters, est.converged) == (0, True), (dim, depth)
        assert abs(est.value - 1.0) <= 1e-15, (dim, depth)


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


def test_value_between_power_loop_and_dense_value():
    # LOBPCG reaches at least the power loop's value at the same rel_tol, and,
    # being a witness's Rayleigh quotient, never passes the dense value
    opts = PowerIterationOptions(rel_tol=1e-9)
    for kind, t in FAMILY_PARAMETERS.items():
        for dim in ((2,) if kind == "rotating" else (1, 2, 3, 4)):
            for depth in range(1, 9):
                w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t, seed=depth))
                est, ref = estimate_operator_norm(w, opts), power_iteration_reference(w, opts)
                case = (kind, dim, depth)
                assert est.converged, case
                assert est.value >= ref.value * (1.0 - 1e-13), case
                assert est.value <= dense_top_generalized_eigenvalue(w) * (1.0 + 1e-12), case


def _ritz_spy(monkeypatch, reject_basis_of=None):
    """Record each Rayleigh-Ritz basis size and result; optionally reject every
    basis of the given size as not positive definite."""
    import matw.opnorm as mopnorm
    calls = []
    original = mopnorm._ritz

    def spy(ga, gb):
        step = None if len(ga) == reject_basis_of else original(ga, gb)
        calls.append((len(ga), step))
        return step

    monkeypatch.setattr(mopnorm, "_ritz", spy)
    return calls


def test_scalar_power_breakdown_drops_p_and_keeps_the_value(monkeypatch):
    # at (N, d) = (18, 1), t = 0.4 the Gram matrix of span{x, w, p} stops being
    # safely positive definite after a few steps; carried entries trusted past
    # that point can give a small fraction of the value, flagged as converged
    calls = _ritz_spy(monkeypatch)
    w = generate_weight(WeightFamilySpec("scalar_power", 1, 18, parameter=0.4))
    est = estimate_operator_norm(w)
    ref = power_iteration_reference(w, PowerIterationOptions(rel_tol=1e-12))
    assert (3, None) in calls
    assert est.converged
    assert abs(est.value - ref.value) <= 1e-12 * ref.value


def test_restart_on_every_step_still_converges_to_dense_value(monkeypatch):
    # with every three-vector basis rejected, each step restarts on span{x, w}
    # with P(x) measured: steepest ascent, slower but sound
    calls = _ritz_spy(monkeypatch, reject_basis_of=3)
    for kind, dim, depth, t in (("random_log_pd", 2, 5, 1.0), ("scalar_power", 1, 7, 0.4),
                                ("rotating", 2, 6, 1.5)):
        w = generate_weight(WeightFamilySpec(kind, dim, depth, parameter=t, seed=3))
        est = estimate_operator_norm(w, PowerIterationOptions(rel_tol=1e-12))
        dense = dense_top_generalized_eigenvalue(w)
        assert est.converged, kind
        assert abs(est.value - dense) <= 1e-9 * dense, kind
        assert rayleigh_quotient(w, est.witness) == est.value, kind
    assert {size for size, _ in calls} == {2, 3}


@pytest.mark.parametrize("depth, dim, bound", [(16, 1, 4_203_255), (12, 4, 2_300_185)])
def test_power_iteration_peak_memory(depth, dim, bound):
    """Traced peak of one estimate, five LOBPCG steps, in a fresh process
    (tests/_peak.py), once the weight has built W^-1 and the same call has run
    at depth 2.

    Read that way: 4,201,249-4,201,433 bytes at (N, d) = (16, 1) and
    2,299,433-2,299,617 bytes at (12, 4) (numpy 2.4), the same whether the
    constructor or the first read builds W^-1. The bounds are the highest of
    the earlier in-suite readings, 4,201,393-4,203,255 and 2,299,529-2,300,185
    bytes, which moved with the tests that ran before; the power loop before
    LOBPCG read 3,413,225-3,414,991 and 2,036,161-2,036,193 bytes there. The
    loop keeps eight (d, 2^N) arrays: the heap buffer and its coefficient
    block, the iterate, the search direction p, and the images of iterate,
    residual and p; the heap buffer holds the residual at its leaves.
    """
    build = ("from matw.opnorm import PowerIterationOptions, estimate_operator_norm\n"
             "from matw.weights import WeightFamilySpec, generate_weight\n"
             "def spec(depth):\n"
             f"    return WeightFamilySpec('random_log_pd', {dim}, depth, parameter=1.0, seed=0)\n"
             "opts = PowerIterationOptions(max_iters=5)\n"
             "estimate_operator_norm(generate_weight(spec(2)), opts)\n"
             f"w = generate_weight(spec({depth}))\n"
             "w.inverse_field.level_averages(0)")
    assert traced_peak(build, "estimate_operator_norm(w, opts)") <= bound


def test_estimate_does_not_depend_on_the_blas_thread_count():
    # a threaded BLAS dot splits its sum by thread, which would move the bits
    # of the inner products, and with them the steps, with the machine
    import os
    import subprocess
    import sys
    code = ("from matw.opnorm import estimate_operator_norm as e; "
            "from matw.weights import WeightFamilySpec as S, generate_weight as g; "
            "r = e(g(S('random_log_pd', 2, 14, parameter=1.0))); print(repr(r.value), r.iters)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        outs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout)
    assert len(outs) == 1, outs


def test_overflowing_iteration_fails_with_one_line_reason():
    # leaf values span about 2^-650 to 1, so the squared residual leaves the float range
    w = generate_weight(WeightFamilySpec("scalar_power", 1, 10, parameter=0.97))
    with pytest.raises(ValueError, match="overflow the float range"):
        estimate_operator_norm(w)


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
