import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from matw.cli import main
from matw.dyadic import GridMatrixField, GridVector, save_field

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def weight_file(tmp_path):
    path = tmp_path / "w.json"
    rc = main(["genweight", "--kind", "scalar_power", "--dim", "1", "--depth", "3",
               "--param", "0.5", "--seed", "0", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture
def function_file(tmp_path):
    path = tmp_path / "f.json"
    rng = np.random.default_rng(5)
    save_field(GridVector(3, 1, rng.standard_normal((8, 1))), str(path))
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_genweight_writes_metadata(weight_file):
    obj = json.loads(open(weight_file).read())
    assert obj["metadata"]["kind"] == "scalar_power"
    assert obj["metadata"]["parameter"] == 0.5
    assert "eps_pd" in obj["metadata"]


def test_a2_command(weight_file, capsys):
    assert main(["a2", weight_file]) == 0
    assert out_json(capsys)["a2"] > 1.0


def test_ainfty_command_reports_lower_bound_note(weight_file, capsys):
    assert main(["ainfty", weight_file, "--directions", "4"]) == 0
    obj = out_json(capsys)
    assert obj["ainfty_sampled"] >= 1.0
    assert "lower bound" in obj["note"]


def test_swnorm_command(weight_file, function_file, capsys):
    assert main(["swnorm", weight_file, "--f", function_file]) == 0
    assert out_json(capsys)["sw_norm_squared"] > 0.0


def test_opnorm_command(weight_file, capsys, tmp_path):
    witness = tmp_path / "witness.json"
    assert main(["opnorm", weight_file, "--witness-out", str(witness)]) == 0
    obj = out_json(capsys)
    assert obj["converged"] and obj["sw_normsq_est"] > 1.0
    assert witness.exists()


def test_sparse_certificate_roundtrip(weight_file, function_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["sparse", weight_file, "--f", function_file,
                 "--certify", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["ok"]
    assert cert["config"]["c2"] == 256.0
    assert out_json(capsys)["ok"]


def test_certificate_rerun_byte_identical(weight_file, function_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sparse", weight_file, "--f", function_file, "--certify", str(a)])
    main(["sparse", weight_file, "--f", function_file, "--certify", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_command_and_determinism(tmp_path, capsys):
    cfg = {"family_kind": "scalar_power", "dim": 1, "depth": 5,
           "grid": [0.2, 0.6], "seeds": [0], "n_directions": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_env_seed_overrides(tmp_path, monkeypatch, capsys):
    pa, pb, pc = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    main(["genweight", "--kind", "random_log_pd", "--dim", "2", "--depth", "3",
          "--param", "1.0", "--seed", "1", "--out", str(pa)])
    monkeypatch.setenv("MATW_SEED", "99")
    main(["genweight", "--kind", "random_log_pd", "--dim", "2", "--depth", "3",
          "--param", "1.0", "--seed", "1", "--out", str(pb)])
    monkeypatch.delenv("MATW_SEED")
    main(["genweight", "--kind", "random_log_pd", "--dim", "2", "--depth", "3",
          "--param", "1.0", "--seed", "99", "--out", str(pc)])
    assert pa.read_bytes() != pb.read_bytes()
    assert pb.read_bytes() == pc.read_bytes()


def test_sparse_exit_code_tracks_verification(tmp_path, capsys):
    # identity weight, constant function: family is the root alone, all checks pass
    wpath, fpath = tmp_path / "w.json", tmp_path / "f.json"
    main(["genweight", "--kind", "identity", "--dim", "1", "--depth", "2",
          "--out", str(wpath)])
    save_field(GridVector(2, 1, np.ones((4, 1))), str(fpath))
    assert main(["sparse", str(wpath), "--f", str(fpath)]) == 0


def test_swnorm_rejects_weight_file_as_function(weight_file, capsys):
    with pytest.raises(SystemExit):
        main(["swnorm", weight_file, "--f", weight_file])


@pytest.mark.parametrize("name, text, role", [
    ("missing.json", None, "f"),
    ("not_json.json", "not json", "f"),
    ("no_dim.json", json.dumps({"depth": 3, "values": [[float(i)] for i in range(8)]}), "f"),
    ("wrong_depth.json", json.dumps({"depth": 2, "dim": 1,
                                     "values": [[float(i)] for i in range(8)]}), "f"),
    ("top_level_list.json", json.dumps([[0.0], [1.0]]), "f"),
    ("null_values.json", json.dumps({"depth": 1, "dim": 1, "values": None}), "f"),
    ("metadata_list.json", json.dumps({"depth": 3, "dim": 1, "values": [[1.0]] * 8,
                                       "metadata": []}), "weight"),
], ids=["missing", "not_json", "no_dim", "wrong_depth", "top_level_list", "null_values",
        "metadata_list"])
def test_bad_input_file_exits_2_with_one_line(weight_file, function_file, tmp_path, capsys,
                                              name, text, role):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    files = {"weight": weight_file, "f": function_file, role: str(path)}
    with pytest.raises(SystemExit) as exc:
        main(["swnorm", files["weight"], "--f", files["f"]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("matw swnorm: ") and err.endswith("\n") and err.count("\n") == 1


def test_a2_rejects_weight_file_that_is_a_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[1.0], [2.0]]))
    with pytest.raises(SystemExit) as exc:
        main(["a2", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "matw a2: expected a JSON object, got list\n"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """The command line in a fresh interpreter, so numpy's warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "matw.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_a2_overflowing_weight_exits_2_with_one_line(tmp_path):
    # the weight of test_a2_rejects_an_overflowing_level, through the installed entry point
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    leaves = [1e300 * np.eye(2), 1e-300 * rot @ np.diag([1.0, 2.0]) @ rot.T, np.eye(2), np.eye(2)]
    path = tmp_path / "overflow.json"
    save_field(GridMatrixField(2, 2, np.array(leaves)), str(path))
    proc = run_cli("a2", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("matw a2: A2 overflows at level 0: "
                           "<W>^1/2 <W^-1> <W>^1/2 has non-finite entries\n")


def test_a2_subnormal_leaf_exits_2_with_one_line(tmp_path):
    path = tmp_path / "subnormal.json"
    save_field(GridMatrixField(1, 1, np.array([[[1e-310]], [[1.0]]])), str(path))
    proc = run_cli("a2", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("matw a2: leaf 0 has eigenvalue 1.000e-310, "
                           "whose inverse leaves the float range\n")


@pytest.mark.parametrize("eps_pd, shown", [(1e-17, "1.0e-17"), (0.0, "0.0e+00")])
def test_a2_weight_file_with_eps_pd_below_the_floor_exits_2_with_one_line(tmp_path, eps_pd,
                                                                         shown):
    obj = GridMatrixField(1, 2, np.array([np.eye(2), np.diag([1.0, 1e-12])])).to_json_dict()
    obj["metadata"] = {"eps_pd": eps_pd}
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("a2", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"matw a2: eps_pd {shown} is below the floor 1.0e-10\n"


@pytest.mark.parametrize("kind, dim, depth, param, log2_bound", [
    ("scalar_power", 1, 6, "0.9887", 1050),
    ("scalar_power", 1, 6, "0.99", 1188),
    ("rotating", 2, 3, "800", 1154),
])
def test_genweight_parameter_past_the_float_range_exits_2_with_one_line(
        tmp_path, kind, dim, depth, param, log2_bound):
    out = tmp_path / "w.json"
    proc = run_cli("genweight", "--kind", kind, "--dim", str(dim), "--depth", str(depth),
                   "--param", param, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == "" and not out.exists()
    assert proc.stderr == (f"matw genweight: {kind} parameter {param} at depth {depth}, dim {dim} "
                           f"puts |log2| of its leaf eigenvalues up to {log2_bound}, "
                           "past the float range's 1022\n")
