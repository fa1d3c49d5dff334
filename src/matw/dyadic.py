"""Dyadic tree on [0,1] at finite depth and piecewise-constant grid data.

Everything lives on the uniform grid of 2^N leaf cells. A dyadic interval is a
node (level, index) of the binary tree over those cells; averages over any node
are exact finite sums, cached level by level so queries at all scales are O(1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Node (level, index) of the dyadic tree; covers [index*2^-level, (index+1)*2^-level]."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def measure(self) -> float:
        return 2.0 ** -self.level

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValueError("root has no parent")
        return DyadicInterval(self.level - 1, self.index // 2)

    def leaf_slice(self, depth: int) -> slice:
        """Range of leaf indices under this interval on the depth-N grid."""
        if self.level > depth:
            raise ValueError(f"level {self.level} exceeds depth {depth}")
        span = 1 << (depth - self.level)
        return slice(self.index * span, (self.index + 1) * span)


ROOT = DyadicInterval(0, 0)


def _build_average_tree(leaf_values: np.ndarray, depth: int) -> list[np.ndarray]:
    """Per-level averages, bottom up: tree[k][j] = mean over leaves under (k, j)."""
    tree = [None] * (depth + 1)
    tree[depth] = leaf_values
    for level in range(depth - 1, -1, -1):
        below = tree[level + 1]
        tree[level] = 0.5 * (below[0::2] + below[1::2])
    return tree


class _GridField:
    """Shared mechanics: immutable leaf array plus a lazily built average tree."""

    def __init__(self, depth: int, values: np.ndarray):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        values = np.ascontiguousarray(np.asarray(values, dtype=float))
        if values.shape[0] != (1 << depth):
            raise ValueError(f"expected {1 << depth} leaf values, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite entries")
        # past half the float range, the sums of the average tree overflow
        rows = values.reshape(len(values), -1)
        huge = np.abs(rows) > np.finfo(float).max / 2
        if huge.any():
            leaf = int(np.argmax(huge.any(axis=1)))
            raise ValueError(f"leaf {leaf} has entry {rows[leaf][huge[leaf]][0]:.3e}, "
                             "beyond half the float range")
        values.flags.writeable = False
        self.depth = depth
        self.values = values
        self._tree = None

    @property
    def n_leaves(self) -> int:
        return 1 << self.depth

    def average_tree(self) -> list[np.ndarray]:
        if self._tree is None:
            self._tree = _build_average_tree(self.values, self.depth)
        return self._tree

    def average(self, interval: DyadicInterval):
        """Exact mean of the leaf values under the interval."""
        if interval.level > self.depth:
            raise ValueError(f"level {interval.level} exceeds depth {self.depth}")
        return self.average_tree()[interval.level][interval.index]

    def level_averages(self, level: int) -> np.ndarray:
        return self.average_tree()[level]


class GridScalar(_GridField):
    """Piecewise-constant real function on the 2^N leaf cells."""

    def __init__(self, depth: int, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("scalar grid expects a flat value array")
        super().__init__(depth, values)

    def to_json_dict(self) -> dict:
        return {"schema": "matw.gridscalar/1", "depth": self.depth, "dim": 1,
                "values": self.values.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "GridScalar":
        return GridScalar(int(obj["depth"]), obj["values"])


class GridVector(_GridField):
    """Piecewise-constant R^d valued function on the leaf cells."""

    def __init__(self, depth: int, dim: int, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != dim:
            raise ValueError(f"expected shape (2^{depth}, {dim})")
        super().__init__(depth, values)
        self.dim = dim

    def to_json_dict(self) -> dict:
        return {"schema": "matw.gridvector/1", "depth": self.depth, "dim": self.dim,
                "values": self.values.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "GridVector":
        return GridVector(int(obj["depth"]), int(obj["dim"]), obj["values"])


class GridMatrixField(_GridField):
    """Piecewise-constant field of symmetric d x d matrices."""

    def __init__(self, depth: int, dim: int, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1:] != (dim, dim):
            raise ValueError(f"expected shape (2^{depth}, {dim}, {dim})")
        super().__init__(depth, values)
        values = self.values
        asym = np.max(np.abs(values - values.transpose(0, 2, 1)), initial=0.0)
        scale = np.max(np.abs(values), initial=0.0)
        if asym > SYM_TOL * max(1.0, scale):
            raise ValueError(f"matrix values not symmetric (defect {asym:.3e})")
        # symmetrize exactly so downstream eigensolves see honest input; the base
        # class's range check keeps this sum finite
        self.values = 0.5 * (values + values.transpose(0, 2, 1))
        self.values.flags.writeable = False
        self.dim = dim

    def to_json_dict(self) -> dict:
        flat = self.values.reshape(self.n_leaves, self.dim * self.dim)
        return {"schema": "matw.gridmatrix/1", "depth": self.depth, "dim": self.dim,
                "values": flat.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "GridMatrixField":
        depth, dim = int(obj["depth"]), int(obj["dim"])
        flat = np.asarray(obj["values"], dtype=float)
        return GridMatrixField(depth, dim, flat.reshape(1 << depth, dim, dim))


_FIELD_SCHEMAS = {
    "matw.gridscalar/1": GridScalar.from_json_dict,
    "matw.gridvector/1": GridVector.from_json_dict,
    "matw.gridmatrix/1": GridMatrixField.from_json_dict,
    "matw.weight/1": GridMatrixField.from_json_dict,
}


def read_json_object(path: str) -> dict:
    """The JSON object in a file; ValueError unless the file holds one."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def read_grid_json(path: str) -> dict:
    """The JSON object of a grid file; ValueError unless it is one with a values list."""
    obj = read_json_object(path)
    if not isinstance(obj.get("values"), list):
        raise ValueError("'values' must be a list of leaf values")
    return obj


def load_field(path: str):
    """Read a grid field (scalar, vector, or matrix) from a JSON file."""
    obj = read_grid_json(path)
    schema = obj.get("schema")
    if schema in _FIELD_SCHEMAS:
        return _FIELD_SCHEMAS[schema](obj)
    # schema-less files: infer from value shape
    vals = np.asarray(obj["values"], dtype=float)
    if vals.ndim == 1:
        return GridScalar.from_json_dict(obj)
    dim = int(obj["dim"])
    if vals.shape[1] == dim:
        return GridVector.from_json_dict(obj)
    return GridMatrixField.from_json_dict(obj)


def save_field(field, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
