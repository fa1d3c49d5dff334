"""The package against the lacunary spine oracle, at depths no grid oracle reaches.

A weight constant on the lacunary blocks B_m reduces to an (N + 1) d problem
on the spine J_k = [0, 2^-k) (`_oracles.lacunary_spine`). The package's norm
is the Rayleigh quotient of its witness, so it may exceed the oracle only by
rounding, and lie below it only by what LOBPCG's stop at rel_tol leaves. A2 is
the same algebra on both sides and agrees to rounding. The tolerances come
from runs at N = 8-20 (numpy 2.4); the measured worst cases are in each test.
"""

import numpy as np
import pytest

from matw.dyadic import GridMatrixField
from matw.opnorm import PowerIterationOptions, estimate_operator_norm
from matw.weights import MatrixWeight, WeightFamilySpec, a2_characteristic, generate_weight

from _oracles import (brute_matrix_a2, dense_top_generalized_eigenvalue, lacunary_leaves,
                      lacunary_spine, scalar_power_spine)

U = float(np.finfo(float).eps) / 2
TEST_09_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
REL_TOL = PowerIterationOptions().rel_tol


def leaf_log2_spread(depth: int, t: float) -> float:
    """|log2| of the smallest leaf eigenvalue 2^(-N 2t/(1-t)) of the lacunary
    weights here, whose largest is 1."""
    return depth * 2.0 * t / (1.0 - t)


def scalar_power_blocks(depth: int, t: float) -> np.ndarray:
    """scalar_power's block list: 2^(-m 2t/(1-t)) on B_m, m = 0..N."""
    return (2.0 ** (-2.0 * t / (1.0 - t) * np.arange(depth + 1)))[:, None, None]


def rotated_blocks(depth: int, t: float, theta: float) -> np.ndarray:
    """W_m = R(m theta) diag(2^(-m 2t/(1-t)), 1) R(m theta)^T, m = 0..N."""
    m = np.arange(depth + 1)
    c, s = np.cos(m * theta), np.sin(m * theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    diag = np.zeros((depth + 1, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 2.0 ** (-2.0 * t / (1.0 - t) * m), 1.0
    return rot @ diag @ rot.transpose(0, 2, 1)


def assert_matches_spine(weight, normsq: float, a2: float, below: float, above: float,
                         a2_tol: float) -> None:
    est = estimate_operator_norm(weight).value
    assert -below <= (est - normsq) / normsq <= above, (est, normsq)
    assert abs(a2_characteristic(weight) - a2) <= a2_tol * a2


@pytest.mark.parametrize("depth", range(6))
def test_spine_oracles_agree_with_the_dense_solve(depth):
    # the block form, the scalar form in logs, the dense (Q, P) solve and brute-force A2
    for t in (0.0, 0.2, 0.5, 0.9):
        w = generate_weight(WeightFamilySpec("scalar_power", 1, depth, parameter=t))
        blocks = scalar_power_blocks(depth, t)
        assert np.array_equal(lacunary_leaves(blocks), w.field.values)
        dense = dense_top_generalized_eigenvalue(w) if depth else 0.0
        brute = brute_matrix_a2(w.field.values, depth)
        for normsq, a2 in (lacunary_spine(blocks), scalar_power_spine(depth, t)):
            assert abs(normsq - dense) <= 1e-13 * max(dense, 1.0), (t, normsq, dense)
            assert abs(a2 - brute) <= 1e-13 * brute, (t, a2, brute)
    for t, theta in ((0.2, 0.3), (0.5, 0.1)):
        blocks = rotated_blocks(depth, t, theta)
        w = MatrixWeight(GridMatrixField(depth, 2, lacunary_leaves(blocks)))
        normsq, a2 = lacunary_spine(blocks)
        dense = dense_top_generalized_eigenvalue(w) if depth else 0.0
        assert abs(normsq - dense) <= 1e-13 * max(dense, 1.0), (t, theta)
        assert abs(a2 - brute_matrix_a2(w.field.values, depth)) <= 1e-13 * a2, (t, theta)


@pytest.mark.parametrize("depth", [14, 18, 20])
def test_scalar_power_norm_and_a2_match_the_spine(depth):
    """The test_09 grid. The oracle works in log2, so an entry of log2 L comes
    back with an error of about |L| u; the tolerance above scales with
    1 + N 2t/(1-t), the largest |log2| of a spine average. Measured at
    N = 14, 18, 20: the norm lay at most 3.4e-13 below the oracle (t = 0.1)
    and at most 0.72 u (1 + N 2t/(1-t)) above it; A2 within 1.13 u (1 + ...)."""
    for t in TEST_09_GRID:
        w = generate_weight(WeightFamilySpec("scalar_power", 1, depth, parameter=t))
        tol = 8 * U * (1.0 + leaf_log2_spread(depth, t))
        assert_matches_spine(w, *scalar_power_spine(depth, t), below=REL_TOL, above=tol,
                             a2_tol=tol)


@pytest.mark.parametrize("dim", [2, 3])
def test_block_scalar_matches_the_spine_per_coordinate(dim):
    """Coordinate i is scalar_power at t/2^i, reflected when i is odd, which is a
    tree automorphism; a diagonal weight's norm and A2 are the max over its
    coordinates. t stops at 0.5: at N = 14 and t = 0.6 leaf 0 pairs 2^-42 with
    1, below eps_pd. Measured at N = 10 and 14: the norm at most 2.4e-14 below
    the oracle and 7.5 u above it; A2 equal."""
    for depth in (10, 14):
        for t in (0.2, 0.35, 0.5):
            w = generate_weight(WeightFamilySpec("block_scalar", dim, depth, parameter=t))
            spines = [lacunary_spine(scalar_power_blocks(depth, t / (1 << i))) for i in range(dim)]
            assert_matches_spine(w, max(s[0] for s in spines), max(s[1] for s in spines),
                                 below=REL_TOL, above=64 * U, a2_tol=64 * U)


@pytest.mark.parametrize("depth", [8, 11, 14])
def test_rotated_lacunary_weight_matches_the_block_spine(depth):
    """The package's quotient rounds <W(x) f, f> with an error of about
    ||W(x)|| |f|^2 u, so relative to the norm it is off by up to cond u, with
    cond = 2^(N 2t/(1-t)) the leaves' condition number; the oracle whitens
    with each block's own eigh and does not. The bound adds 64 u for the well
    conditioned cases. Measured: at N = 8, t = 0.5 (cond 2^16) the norm lay
    1.9e-12 = 0.26 cond u above the oracle, which the dense solve matches to
    1.3e-15; at N = 14, t = 0.5 it lay 1.7e-9 = 0.057 cond u above and
    6.8e-10 below; A2 within 9.3 u."""
    for t in (0.2, 0.3, 0.5):
        for theta in (0.1, 0.3):
            blocks = rotated_blocks(depth, t, theta)
            w = MatrixWeight(GridMatrixField(depth, 2, lacunary_leaves(blocks)))
            rounding = (64 + 2.0 ** leaf_log2_spread(depth, t)) * U
            assert_matches_spine(w, *lacunary_spine(blocks), below=REL_TOL + rounding,
                                 above=rounding, a2_tol=64 * U)
