import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matw.dyadic import (ROOT, DyadicInterval, GridMatrixField, GridScalar,
                         GridVector, load_field, save_field)

from _oracles import children, contains, direct_average, left_endpoint, right_endpoint


def test_children_of_root():
    assert children(ROOT, 3) == (DyadicInterval(1, 0), DyadicInterval(1, 1))


def test_children_index_arithmetic():
    assert children(DyadicInterval(1, 1), 3) == (DyadicInterval(2, 2), DyadicInterval(2, 3))


def test_leaf_has_no_children():
    with pytest.raises(ValueError, match="leaf has no children"):
        children(DyadicInterval(4, 0), 4)


def test_children_partition_parent():
    parent = DyadicInterval(2, 3)
    left, right = children(parent, 5)
    assert left.measure + right.measure == parent.measure
    assert left_endpoint(left) == left_endpoint(parent)
    assert right_endpoint(left) == left_endpoint(right)
    assert right_endpoint(right) == right_endpoint(parent)


def test_interval_validation():
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)


def test_average_constant_field():
    f = GridScalar(3, np.full(8, 2.5))
    for level in range(4):
        for j in range(1 << level):
            assert f.average(DyadicInterval(level, j)) == 2.5


def test_average_two_cell_mean():
    assert GridScalar(1, [1.0, 9.0]).average(ROOT) == 5.0


def test_average_matches_direct_leaf_summation():
    rng = np.random.default_rng(3)
    field = GridMatrixField(5, 2, _random_sym(rng, 32, 2))
    for level in range(6):
        for j in range(1 << level):
            interval = DyadicInterval(level, j)
            expected = direct_average(field.values, 5, interval)
            assert np.max(np.abs(field.average(interval) - expected)) <= 1e-12


def _random_sym(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return 0.5 * (a + a.transpose(0, 2, 1))


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 6), data=st.data())
def test_partition_consistency(depth, data):
    n = 1 << depth
    values = np.array(data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)))
    f = GridScalar(depth, values)
    for level in range(depth):
        for j in range(1 << level):
            parent = DyadicInterval(level, j)
            left, right = children(parent, depth)
            mid = 0.5 * (f.average(left) + f.average(right))
            assert abs(f.average(parent) - mid) <= 1e-12 * max(1.0, abs(mid))


def test_measure_additivity_over_antichains():
    leaves = [DyadicInterval(4, j) for j in range(16)]
    assert abs(sum(iv.measure for iv in leaves) - 1.0) <= 1e-15
    mixed = [DyadicInterval(1, 0), DyadicInterval(2, 2), DyadicInterval(3, 6),
             DyadicInterval(3, 7)]
    assert abs(sum(iv.measure for iv in mixed) - 1.0) <= 1e-15


def test_matrix_average_stays_symmetric():
    rng = np.random.default_rng(11)
    field = GridMatrixField(4, 3, _random_sym(rng, 16, 3))
    for level in range(5):
        stacked = field.level_averages(level)
        assert np.max(np.abs(stacked - stacked.transpose(0, 2, 1))) == 0.0


def test_asymmetric_matrix_rejected():
    bad = np.zeros((2, 2, 2))
    bad[0] = [[1.0, 0.5], [0.0, 1.0]]
    bad[1] = np.eye(2)
    with pytest.raises(ValueError, match="not symmetric"):
        GridMatrixField(1, 2, bad)


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        GridScalar(2, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridVector(1, 2, [[1.0, np.inf], [0.0, 0.0]])


@pytest.mark.parametrize("maker", [
    lambda big: GridScalar(1, [1.0, big]),
    lambda big: GridVector(1, 2, [[1.0, 0.0], [0.0, big]]),
    lambda big: GridMatrixField(1, 1, [[[1.0]], [[big]]]),
], ids=["scalar", "vector", "matrix"])
def test_entries_beyond_half_the_float_range_rejected(maker):
    # the average tree sums two children before halving, so this is the largest safe entry
    half = np.finfo(float).max / 2
    maker(half).average_tree()
    with pytest.raises(ValueError, match="leaf 1 has entry -1.798e\\+308, beyond half"):
        maker(-np.nextafter(2 * half, 0.0))


def test_values_are_immutable():
    f = GridScalar(1, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 7.0


def test_contains_and_leaf_slice():
    parent = DyadicInterval(1, 1)
    assert contains(parent, DyadicInterval(3, 6))
    assert not contains(parent, DyadicInterval(3, 2))
    assert parent.leaf_slice(3) == slice(4, 8)


@pytest.mark.parametrize("maker", [
    lambda: GridScalar(2, [1.0, 2.0, 3.0, 4.0]),
    lambda: GridVector(1, 2, [[1.0, 2.0], [3.0, 4.0]]),
    lambda: GridMatrixField(1, 2, [np.eye(2), [[2.0, 1.0], [1.0, 2.0]]]),
])
def test_json_roundtrip(tmp_path, maker):
    field = maker()
    path = tmp_path / "field.json"
    save_field(field, str(path))
    loaded = load_field(str(path))
    assert type(loaded) is type(field)
    assert loaded.depth == field.depth
    assert np.array_equal(loaded.values, field.values)
    obj = json.loads(path.read_text())
    assert set(obj) >= {"depth", "dim", "values"}
