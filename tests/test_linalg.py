import numpy as np
import pytest

from matw.linalg import operator_norm, psd_power, psd_power_stack, top_eigenvalue_stack

from _oracles import matrix_power_iteration_norm


def random_pd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.05 * np.eye(d)


def test_psd_power_diagonal_sqrt():
    assert np.allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("p", [0.5, -0.5, -1.0])
def test_psd_power_identity_fixed_point(p):
    assert np.allclose(psd_power(np.eye(4), p), np.eye(4))


def test_psd_power_sqrt_squares_back():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = psd_power(m, 0.5)
    assert np.allclose(root, [[1.36603, 0.36603], [0.36603, 1.36603]], atol=5e-6)
    assert np.max(np.abs(root @ root - m)) <= 1e-9


def test_psd_power_roundtrips_random():
    rng = np.random.default_rng(7)
    for d in range(1, 9):
        m = random_pd(rng, d)
        scale = np.max(np.abs(m))
        root = psd_power(m, 0.5)
        assert np.max(np.abs(root @ root - m)) <= 1e-9 * scale
        inv_root = psd_power(m, -0.5)
        assert np.max(np.abs(inv_root @ root - np.eye(d))) <= 1e-9
        assert np.max(np.abs(psd_power(m, -1.0) @ m - np.eye(d))) <= 1e-8


def test_psd_power_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_psd_power_rejects_singular_for_negative_powers():
    with pytest.raises(ValueError, match="singular weight"):
        psd_power(np.diag([1.0, 1e-14]), -0.5)
    # nonnegative powers tolerate the same matrix
    psd_power(np.diag([1.0, 1e-14]), 0.5)


def test_psd_power_stack_matches_single():
    rng = np.random.default_rng(9)
    ms = np.array([random_pd(rng, 3) for _ in range(5)])
    stacked = psd_power_stack(ms, -0.5)
    for i in range(5):
        assert np.max(np.abs(stacked[i] - psd_power(ms[i], -0.5))) <= 1e-10


def test_top_eigenvalue_stack_is_squared_norm_of_factor():
    # lambda_max(A A^T) = ||A||^2 for every matrix in the stack, d = 1 included
    rng = np.random.default_rng(6)
    for d in (1, 2, 4):
        factors = rng.standard_normal((50, d, d))
        tops = top_eigenvalue_stack(factors @ factors.transpose(0, 2, 1))
        norms = np.array([operator_norm(a) for a in factors])
        assert np.max(np.abs(tops - norms**2) / norms**2) <= 1e-13


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_top_eigenvalue_stack_rejects_non_finite(bad):
    ms = np.tile(np.eye(2), (3, 1, 1))
    ms[1, 1, 0] = ms[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        top_eigenvalue_stack(ms)


def test_operator_norm_diagonal():
    assert operator_norm(np.diag([2.0, 5.0])) == 5.0


def test_operator_norm_nilpotent_shift():
    assert abs(operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) <= 1e-14


def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        assert abs(operator_norm(m) - matrix_power_iteration_norm(m)) <= 1e-8 * operator_norm(m)


def test_norm_comparisons():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        m = rng.standard_normal((d, d))
        op, hs = operator_norm(m), np.linalg.norm(m)
        assert op <= hs * (1 + 1e-12)
        assert hs <= np.sqrt(d) * op * (1 + 1e-12)
        assert abs(hs**2 - np.trace(m.T @ m)) <= 1e-10 * max(1.0, hs**2)


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a, b = rng.standard_normal((2, 4, 4))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-12)

