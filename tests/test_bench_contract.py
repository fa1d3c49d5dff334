"""The benchmark's per-layer contract, checked against the code as it stands.

bench/spans.py wraps the functions it names in TRACED from outside, and its
Recorder leaves out every metric of a name that no longer resolves in its
home module. A deleted or moved function therefore shrinks the traced run's
metric set below what BENCHMARK.json declares. These tests read bench/ and
BENCHMARK.json and change neither.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import matw  # noqa: F401  (the recorder wraps the matw modules already imported)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _recorder_after_install():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    return recorder


def test_every_traced_name_resolves():
    assert _recorder_after_install().absent == []


def test_traced_metric_names_equal_per_layer_contract():
    names = list(_recorder_after_install().metrics()) + ["trace.overhead_frac"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in contract["per_layer"]]
    assert sorted(names) == sorted(expected)


def test_bench_selftest_exits_zero():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
