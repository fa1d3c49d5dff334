import csv
import json
import math
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from matw.sparse import certify
from matw.sweep import (ExperimentConfig, SweepRecord, csv_bytes, emit_csv,
                        loglog_slope, run_record, run_sweep, sweep_metadata)
from matw.weights import WeightFamilySpec, generate_weight

from _oracles import random_grid_vector

DATA = pathlib.Path(__file__).parent / "data"


def small_config(**overrides):
    base = dict(family_kind="scalar_power", dim=1, depth=6,
                grid=(0.2, 0.5, 0.8), seeds=(0, 1), n_directions=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_identity_family_trivial_records():
    cfg = ExperimentConfig(family_kind="identity", dim=2, depth=4,
                           grid=(0.0, 0.3), seeds=(0,), n_directions=4)
    records, meta = run_sweep(cfg)
    for rec in records:
        assert not rec.error
        assert abs(rec.a2 - 1.0) <= 1e-12
        assert abs(rec.sw_normsq_est - 1.0) <= 1e-9
        assert abs(rec.ratio_mixed_bound - 1.0) <= 1e-9
    assert meta["loglog_slope_normsq_vs_a2"] == "undefined"


def test_a2_monotone_in_t_for_power_family():
    records, _ = run_sweep(ExperimentConfig(
        family_kind="scalar_power", dim=1, depth=8,
        grid=(0.1, 0.3, 0.5, 0.7), seeds=(0,), n_directions=2))
    a2s = [r.a2 for r in records]
    assert all(x <= y + 1e-12 for x, y in zip(a2s, a2s[1:]))


def test_record_chain_inequality():
    # witness energy never exceeds the domination bound at the witness
    records, _ = run_sweep(small_config())
    for rec in records:
        assert not rec.error
        assert rec.sw_normsq_lower <= rec.sw_normsq_est * (1.0 + 1e-9)
        assert rec.sw_normsq_lower <= rec.domination_rhs_at_witness * (1.0 + 1e-9)
        assert rec.domination_ok


def test_per_record_failure_lands_in_error_column():
    cfg = ExperimentConfig(family_kind="rotating", dim=3, depth=3,
                           grid=(0.5,), seeds=(0,), n_directions=6)
    records, meta = run_sweep(cfg)
    (rec,) = records
    assert rec.error.startswith("ValueError")
    assert math.isnan(rec.a2)
    assert meta["loglog_slope_normsq_vs_a2"] == "undefined"


def test_emit_csv_empty_records(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), {"version": "x"})
    lines = path.read_bytes().decode().splitlines()
    assert lines[0].startswith("t,seed,a2,")
    assert lines[1] == "# version=x"


def test_emit_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv([SweepRecord(t=0.5, seed=3)], str(path), {})
    lines = path.read_bytes().decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,3,nan,")


def test_csv_columns_match_record_fields():
    from dataclasses import fields
    header = csv_bytes([], {}).decode().splitlines()[0]
    assert header.split(",") == [f.name for f in fields(SweepRecord)]


def test_records_sorted_by_t_then_seed():
    recs = [SweepRecord(t=0.9, seed=0), SweepRecord(t=0.1, seed=1), SweepRecord(t=0.1, seed=0)]
    lines = csv_bytes(recs, {}).decode().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0.1", "0"], ["0.1", "1"], ["0.9", "0"]]


def _csv_cells(text: str) -> dict[str, list[str]]:
    """The cells of each CSV column, and each '# key=value' footer entry as a one-cell column."""
    lines = text.splitlines()
    header, *rows = csv.reader(line for line in lines if not line.startswith("# "))
    cells = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    cells.update(("# " + key, [value]) for key, value in
                 (line[2:].split("=", 1) for line in lines if line.startswith("# ")))
    return cells


def _relative_diff(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else math.inf
    if a == b or x == y:
        return 0.0
    diff = abs(x - y) / max(abs(x), abs(y))
    return diff if math.isfinite(diff) else math.inf


def csv_column_diffs(new: str, old: str) -> dict[str, float]:
    """Max relative difference per column (and footer entry) of two sweep CSVs:
    0 where the text is equal, inf where a cell is not a number or a column is
    missing or of another length."""
    new_cells, old_cells = _csv_cells(new), _csv_cells(old)
    return {name: max(map(_relative_diff, new_cells[name], old_cells[name]), default=0.0)
            if len(new_cells.get(name, ())) == len(old_cells.get(name, ())) else math.inf
            for name in sorted(new_cells.keys() | old_cells.keys())}


def golden_csv_column_diffs() -> dict[str, float]:
    """csv_column_diffs of the golden sweep, rerun, against golden_sweep.csv. For a
    change that moves the last bits, report it with
    PYTHONPATH=src:tests python -c "import test_sweep as t; print(t.golden_csv_column_diffs())"
    """
    records, meta = run_sweep(small_config())
    return csv_column_diffs(csv_bytes(records, meta).decode(),
                            (DATA / "golden_sweep.csv").read_text())


def test_csv_column_diffs_reports_each_moved_column():
    golden = (DATA / "golden_sweep.csv").read_text()
    assert set(csv_column_diffs(golden, golden).values()) == {0.0}
    moved = golden.replace("1.2527286935155022", "1.2527286935155024", 1)
    moved = moved.replace("True,True,\n", "True,False,\n", 1)
    moved = moved.replace("# stopping_c1=2.0", "# stopping_c1=2.5")
    diffs = csv_column_diffs(moved, golden)
    assert {name for name, diff in diffs.items() if diff} == {"a2", "domination_ok",
                                                               "# stopping_c1"}
    assert 0.0 < diffs["a2"] < 1e-15
    assert diffs["domination_ok"] == math.inf
    assert diffs["# stopping_c1"] == 0.2
    lines = golden.splitlines(keepends=True)
    dropped = csv_column_diffs("".join(lines[:6] + lines[7:]), golden)
    assert {diff for name, diff in dropped.items() if not name.startswith("#")} == {math.inf}


def test_golden_csv_regression():
    records, meta = run_sweep(small_config())
    got = csv_bytes(records, meta)
    golden = (DATA / "golden_sweep.csv").read_bytes()
    assert got == golden, csv_column_diffs(got.decode(), golden.decode())


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = small_config(grid=(0.3, 0.6), seeds=(4,))
    records, meta = run_sweep(cfg)
    emit_csv(records, str(tmp_path / "a.csv"), meta)
    first = (tmp_path / "a.csv").read_bytes()
    records, meta = run_sweep(cfg)
    emit_csv(records, str(tmp_path / "a.csv"), meta)
    assert (tmp_path / "a.csv").read_bytes() == first


def test_loglog_slope_degenerate_cases():
    assert loglog_slope([], []) is None
    assert loglog_slope([1.0, 1.0], [2.0, 3.0]) is None
    slope = loglog_slope([1.0, 10.0, 100.0], [2.0, 20.0, 200.0])
    assert abs(slope - 1.0) <= 1e-12


def test_config_json_roundtrip():
    cfg = small_config(stopping_c1=3.0)
    rebuilt = ExperimentConfig.from_json_dict(json.loads(json.dumps(asdict(cfg))))
    assert rebuilt == cfg


def test_config_validation():
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(family_kind="identity", dim=1, depth=2, grid=())
    with pytest.raises(ValueError, match="rel_tol"):
        ExperimentConfig(family_kind="identity", dim=1, depth=2, grid=(0.1,),
                         power_rel_tol=1.0)


def test_metadata_records_mixed_bound_extremes():
    records, meta = run_sweep(small_config())
    ratios = [r.ratio_mixed_bound for r in records]
    assert meta["max_ratio_mixed_bound"] == repr(max(ratios))
    assert meta["min_ratio_mixed_bound"] == repr(min(ratios))
    assert float(meta["max_ainf_over_a2"]) <= 10.0 * 1  # monitored budget, d = 1


def test_run_record_identity():
    cfg = ExperimentConfig(family_kind="identity", dim=1, depth=3, grid=(0.0,))
    rec = run_record(cfg, 0.0, 0)
    assert not rec.error
    assert rec.power_converged
    assert abs(rec.sw_normsq_est - 1.0) <= 1e-9


def test_run_record_and_certify_write_nothing_to_stdout(capfd):
    # callers such as the benchmark read their result from the last stdout
    # line; capfd also sees writes from native code and child processes
    cfg = small_config(grid=(0.5,), seeds=(0,))
    rec = run_record(cfg, 0.5, 0)
    assert not rec.error
    w = generate_weight(WeightFamilySpec("random_log_pd", 2, 5, parameter=1.0, seed=2))
    f = random_grid_vector(5, 2, np.random.default_rng(3))
    certify(w, f, cfg.stopping_config())
    out, _ = capfd.readouterr()
    assert out == ""
