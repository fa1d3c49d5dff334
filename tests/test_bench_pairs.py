"""The verdict rule of scripts/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]  # q1 3.225, median 3.45, q3 3.675


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles(PARENT) == pytest.approx(
        {"q1": 3.225, "median": 3.45, "q3": 3.675})


def test_ten_wins_and_a_gap_beyond_the_parent_spread_is_better():
    row = bench_pairs.compare(PARENT, [p * 0.6 for p in PARENT], bound=0.25)
    assert (row["change_wins"], row["change_losses"], row["verdict"]) == (10, 0, "better")
    assert row["median_rel_change"] == pytest.approx(-0.4)
    assert row["parent_iqr_over_median"] == pytest.approx(0.45 / 3.45)


def test_nine_wins_suffice_but_eight_do_not():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 0.5
    assert bench_pairs.compare(PARENT, change, bound=0.25)["verdict"] == "better"
    change[1] = PARENT[1] + 0.5
    row = bench_pairs.compare(PARENT, change, bound=0.25)
    assert (row["change_wins"], row["verdict"]) == (8, "within bound")


def test_a_gap_inside_the_parent_spread_is_not_better():
    # every pair won, but the medians differ by 0.4 < the parent's spread 0.45
    row = bench_pairs.compare(PARENT, [p - 0.4 for p in PARENT], bound=0.25)
    assert (row["change_wins"], row["verdict"]) == (10, "within bound")


def test_ties_count_neither_way():
    row = bench_pairs.compare(PARENT, list(PARENT), bound=0.25)
    assert (row["change_wins"], row["change_losses"], row["verdict"]) == (0, 0, "within bound")


def test_worse_beyond_the_bound_only():
    assert bench_pairs.compare(PARENT, [p * 1.24 for p in PARENT], bound=0.25)["verdict"] \
        == "within bound"
    row = bench_pairs.compare(PARENT, [p * 1.3 for p in PARENT], bound=0.25)
    assert (row["change_losses"], row["verdict"]) == (10, "worse")


def test_higher_is_better_flips_the_direction():
    up = [p * 1.5 for p in PARENT]
    assert bench_pairs.compare(PARENT, up, bound=0.25, better="higher")["verdict"] == "better"
    down = [p * 0.7 for p in PARENT]
    row = bench_pairs.compare(PARENT, down, bound=0.25, better="higher")
    assert (row["change_losses"], row["verdict"]) == (10, "worse")


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, PARENT[:9], bound=0.25)


WIDE = [2.0, 2.5, 3.0, 3.3, 3.4, 3.5, 3.6, 4.0, 4.5, 5.0]  # q1 3.075, q3 3.9: spread 0.24 of 3.45


def test_a_parent_spread_past_the_bound_is_unresolved():
    row = bench_pairs.compare(WIDE, [p * 0.7 for p in WIDE], bound=0.1)
    assert row["parent_iqr_over_median"] > 0.1
    assert (row["change_wins"], row["verdict"]) == (10, "unresolved")
    row = bench_pairs.compare(WIDE, [p * 1.5 for p in WIDE], bound=0.1)
    assert row["verdict"] == "unresolved"
    # the same spread inside a wider bound is judged as usual
    assert bench_pairs.compare(WIDE, [p * 0.7 for p in WIDE], bound=0.25)["verdict"] == "better"


def test_a_wide_parent_spread_is_resolved_when_every_change_run_beats_every_parent_run():
    change = [1.9 - 0.01 * i for i in range(10)]
    assert bench_pairs.compare(WIDE, change, bound=0.1)["verdict"] == "better"
    assert bench_pairs.compare(WIDE, [1.99] * 9 + [2.0], bound=0.1)["verdict"] == "unresolved"
    up = [5.1 + 0.01 * i for i in range(10)]
    assert bench_pairs.compare(WIDE, up, bound=0.1, better="higher")["verdict"] == "better"


def completed(stdout, returncode=0):
    return subprocess.CompletedProcess(["run.py"], returncode, stdout, "")


def result_line(metrics):
    return json.dumps({"failed": 0, "attempted": 3,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})


def test_check_run_accepts_a_well_formed_run():
    out = "env {}\n" + result_line({"a": 1, "b": 0.5}) + "\n"
    assert bench_pairs.check_run(completed(out), ["a", "b"], traced=True)["metrics"] == \
        {"a": 1, "b": 0.5}
    assert bench_pairs.check_run(completed(out), ["b"], traced=False)["metrics"]["b"] == 0.5


@pytest.mark.parametrize("stdout, returncode, traced, message", [
    (result_line({"a": 1, "b": 2}), 1, True, "exited 1"),
    ("Traceback (most recent call last):", 0, True, "not JSON"),
    ("", 0, True, "not an object"),
    ("[1, 2]", 0, True, "not an object"),
    (result_line({"a": 1, "b": float("nan")}), 0, True, "non-finite metric values: b"),
    (result_line({"a": 1, "b": float("inf")}), 0, False, "non-finite metric values: b"),
    (result_line({"b": 1, "a": 2}), 0, True, "differ from per_layer"),
    (result_line({"a": 1}), 0, True, "differ from per_layer"),
    (result_line({"a": 1}), 0, False, "missing end-to-end metrics"),
    ("absent (not in the program): x.y\n" + result_line({"a": 1, "b": 2}), 0, True, "absent"),
], ids=["exit1", "traceback", "empty", "list", "nan", "inf", "order", "missing_layer",
        "missing_end_to_end", "absent"])
def test_check_run_rejects_a_malformed_run(stdout, returncode, traced, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bench_pairs.check_run(completed(stdout, returncode), ["a", "b"], traced)


def test_only_the_fixed_options_are_offered():
    parser_help = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "-h"],
                                 capture_output=True, text=True, check=True).stdout
    options = sorted(set(re.findall(r"--[a-z]+", parser_help)))
    assert options == ["--change", "--claim", "--help", "--out", "--parent", "--title"]
