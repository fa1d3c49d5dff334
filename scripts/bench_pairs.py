#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<n>.json.

Both commits are exported with `git archive` into a temporary directory, so
each side runs from the committed files of its own checkout. For every
workload, pair i runs `python3 bench/run.py --workload <w> --seed i` once on
each side; the side that runs first alternates with the pair and the
workload. Then each side runs one traced pass at seed 0. Every run lasts the
benchmark's run_seconds, covers every workload of BENCHMARK.json, and runs
alone. Example, from the root of the repository:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --title "..." --claim certify-pool:wall_s --out BENCH_16.json

A run is accepted only if it exits 0, its last stdout line is a JSON object,
and every metric value is finite; an untraced run must report every
end-to-end metric, and a traced run exactly BENCHMARK.json's per_layer names,
in order, with no absent function. Any other run stops the script, so the
report's `well_formed` field states checks that every run passed.

Each end-to-end metric of BENCHMARK.json gets the quartiles of both sides,
the change's wins and losses over the pairs, and a verdict:
  unresolved    the parent's quartile spread exceeds the metric's bound, as a
                share of its median, and some change run does not beat every
                parent run;
  better        the change won at least 9 of 10 pairs and the medians differ,
                in the better direction, by more than the parent's quartile
                spread;
  within bound  the change's median is not worse than the parent's by more
                than the metric's bound;
  worse         otherwise.
The report's `notes` list is left empty, for the conclusions to be written
by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent_runs: list[float], change_runs: list[float], bound: float,
            better: str = "lower") -> dict:
    """Quartiles, pair wins and the verdict of one metric; runs are paired by index."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need at least two pairs of runs, paired by index")
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent_runs), quartiles(change_runs)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent_runs, change_runs))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent_runs, change_runs))
    gain = sign * (p["median"] - c["median"])
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
    beats_all = max(sign * v for v in change_runs) < min(sign * v for v in parent_runs)
    if spread > bound and not beats_all:
        verdict = "unresolved"
    elif 10 * wins >= 9 * len(parent_runs) and gain > p["q3"] - p["q1"]:
        verdict = "better"
    elif sign * rel <= bound:
        verdict = "within bound"
    else:
        verdict = "worse"
    return {
        "pairs": len(parent_runs), "parent": p, "change": c,
        "median_rel_change": rel,
        "parent_iqr_over_median": spread,
        "change_wins": wins, "change_losses": losses, "bound": bound, "verdict": verdict,
        "parent_runs": list(parent_runs), "change_runs": list(change_runs),
    }


def export(rev: str, dest: pathlib.Path) -> str:
    """Write the committed files of `rev` into `dest`; return the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.parent / (dest.name + ".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


WELL_FORMED = ("every run exited 0; its last stdout line parsed with json.loads as an object;"
               " every metric value is finite; every untraced run reported each end-to-end"
               " metric; every traced run reported exactly BENCHMARK.json's per_layer names,"
               " in its order, with no absent function")


def check_run(proc: subprocess.CompletedProcess, expected: list[str], traced: bool) -> dict:
    """The final JSON object of one run, each metric reduced to its value; raise
    ValueError unless the run is well formed (see WELL_FORMED)."""
    if proc.returncode != 0:
        raise ValueError(f"exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError as exc:
        raise ValueError(f"last stdout line is not JSON: {exc}") from None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError("last stdout line is not an object with 'metrics'")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    bad = [k for k, v in metrics.items()
           if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite metric values: {', '.join(bad)}")
    names = list(metrics)
    if traced and names != expected:
        raise ValueError(f"metric names differ from per_layer: {names}")
    if not traced and any(name not in metrics for name in expected):
        raise ValueError(f"missing end-to-end metrics: {set(expected) - set(names)}")
    if traced and any(line.startswith("absent") for line in lines):
        raise ValueError("a traced function is absent")
    result["metrics"] = metrics
    return result


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float,
             expected: list[str], traced: bool) -> tuple[dict, dict]:
    """One benchmark run: its checked final JSON object and the environment it printed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    try:
        result = check_run(proc, expected, traced)
    except ValueError as exc:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout}: {exc}; stderr: "
                           f"{proc.stderr.strip()[-500:]}") from None
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return result, env


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        mem_kb = next(int(line.split()[1]) for line in open("/proc/meminfo", encoding="utf-8")
                      if line.startswith("MemTotal"))
    except OSError:
        mem_kb = 0
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "memory_mb": mem_kb // 1024}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: pathlib.Path(tmp) / side for side in SIDES}
        shas = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = contract["run_seconds"]
        workloads = [w["name"] for w in contract["workloads"]]
        end_to_end_names = [m["name"] for m in contract["end_to_end"]]
        per_layer_names = [m["name"] for m in contract["per_layer"]]
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        failed = {w: {side: 0 for side in SIDES} for w in workloads}
        env: dict = {}
        for wi, workload in enumerate(workloads):
            for i in range(PAIRS):
                order = SIDES if (i + wi) % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, env = run_once(checkouts[side], workload, i, seconds,
                                           end_to_end_names, traced=False)
                    runs[workload][side].append(result["metrics"])
                    failed[workload][side] += result["failed"]
                    print(f"{workload} pair {i} {side}: wall_s {result['metrics'].get('wall_s')}",
                          file=sys.stderr, flush=True)
        traced = {}
        for workload in workloads:
            traced[workload] = {}
            for side in SIDES:
                result, _ = run_once(checkouts[side], workload, 0, seconds,
                                     per_layer_names, traced=True)
                traced[workload][side] = {"failed": result["failed"],
                                          "attempted": result["attempted"],
                                          "metrics": result["metrics"]}

    end_to_end = []
    for workload in workloads:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            row = compare([m[name] for m in runs[workload]["parent"]],
                          [m[name] for m in runs[workload]["change"]],
                          metric["bound"], metric["better"])
            end_to_end.append({"workload": workload, "metric": name, **row})
    claimed = None
    if args.claim:
        workload, metric = args.claim.split(":", 1)
        claimed = {"workload": workload, "metric": metric}
    command = f"python3 bench/run.py --workload <w> --seed <i> --seconds {seconds:g}"
    report = {
        "title": args.title,
        "parent": shas["parent"],
        "change": shas["change"],
        "command": command + " --trace 0",
        "method": (f"{PAIRS} pairs per workload, seeds 0-{PAIRS - 1} (pair i uses seed i"
                   " on both sides); the side that runs first alternates with the pair and the"
                   " workload. Parent and change each ran from a clean export of its commit,"
                   " sequentially, one run at a time. Quartiles are"
                   " statistics.quantiles(method='inclusive'). 'unresolved' means the parent's"
                   " quartile spread exceeds the metric's bound as a share of its median and"
                   " not every change run beats every parent run; 'better' means the change won"
                   f" at least 9 of {PAIRS} pairs and the medians differ by more than the"
                   " parent's quartile spread; 'within bound' means the change's median is not"
                   " worse than the parent's by more than the benchmark's bound."),
        "well_formed": WELL_FORMED,
        "claimed": claimed,
        "machine": machine(),
        "env": env,
        "failed_operations": failed,
        "end_to_end": end_to_end,
        "traced_seed0": {"command": command.replace("<i>", "0") + " --trace 1", "runs": traced},
        "notes": [],
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for row in end_to_end:
        print(f"{row['workload']:14s} {row['metric']:12s} {row['parent']['median']:.4g} -> "
              f"{row['change']['median']:.4g} ({row['median_rel_change']:+.1%}, "
              f"{row['change_wins']}/{row['pairs']} wins) {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
