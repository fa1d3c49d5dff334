#!/usr/bin/env python3
"""Benchmark of matw: three batch workloads, their end-to-end metrics, and a
traced run that splits the time over the package's layers.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-scalar --seed 0 --seconds 36 --trace 0

The run imports matw from `src/` of the same checkout, sets up the
workload's inputs from the seed and repeats passes over its operation set
until the next pass would end past `--seconds`; one pass always runs. Every
pass runs the same inputs but sets them up afresh, so caches that the
program keeps on its objects start cold in every pass. Every operation's
result is checked (see workloads.py).

With `--trace 0` it reports the end-to-end metrics:
  setup_s      import time plus the shortest of at least five set-ups, for
               the reason given in op_best
  wall_s       time of one pass over the operation set, checks excluded: the
               sum over operations of each one's shortest time over the passes
               (see op_best for why the shortest)
  op_s.p50     median over operations of the same per-operation times
  op_s.p99     99th percentile of the same; the printed lines give the sample
               count and how many lie beyond it (fewer than ten on the sweeps,
               whose eight or nine records make it the slowest one)
  peak_rss_mb  peak resident memory of the process
With `--trace 1` it spends half the time on untraced passes, then runs one
traced pass and reports the per-layer metrics of spans.py, plus
trace.overhead_frac (the traced pass's time over the median untraced
pass's, minus one). The spans are written to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. failed_frac (failed over attempted) is printed
above it; it is 0 whenever the run is correct.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5  # setup_s takes the shortest of at least this many set-ups


@dataclass
class PassResult:
    setup_s: float
    op_s: list[float] = field(default_factory=list)
    failures: list[tuple[str, list[str]]] = field(default_factory=list)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= cores
        os.environ[var] = current if keep else str(cores)
    return cores


def import_program() -> float:
    """Import matw from this checkout's src/ and return the seconds it took."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of the program's import cost)
    import matw
    import workloads  # noqa: F401  (imports the matw layers the workloads drive)
    elapsed = time.perf_counter() - start
    origin = pathlib.Path(matw.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise ImportError(f"matw was imported from {origin}, not from this checkout")
    return elapsed


def environment(cores: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "nproc": cores, "machine": platform.machine(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def run_pass(workload, seed: int, refs: dict, recorder=None) -> PassResult:
    if recorder is not None:
        recorder.op = -1
    start = time.perf_counter()
    ops = workload.setup(seed, refs)
    result = PassResult(time.perf_counter() - start)
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.op = index
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one, not a crash
            out = exc
        result.op_s.append(time.perf_counter() - start)
        bad = ([f"raised {type(out).__name__}: {out}"] if isinstance(out, Exception)
               else op.check(out))
        if bad:
            result.failures.append((op.label, bad))
    return result


def timed_passes(workload, seed: int, refs: dict, budget_s: float) -> list[PassResult]:
    """Passes until the next one, at the mean pace so far, would end past the budget."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, refs))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def setup_times(workload, seed: int, refs: dict, passes: list[PassResult]) -> list[float]:
    """The set-up time of every pass, topped up to MIN_SETUPS by extra set-ups."""
    times = [p.setup_s for p in passes]
    while len(times) < MIN_SETUPS:
        start = time.perf_counter()
        workload.setup(seed, refs)
        times.append(time.perf_counter() - start)
    return times


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def op_best(passes: list[PassResult]) -> list[float]:
    """Each operation's shortest time over the passes, which all run the same inputs.

    On a shared two-vCPU x86_64 virtual machine, a pure-Python CPU-bound loop
    ran up to 2x slower in bursts of 0.3-7 s that covered a fifth of a
    90-second window. Such a burst only adds time, so the shortest of the
    passes is the steady estimate of what an operation costs; a median would
    follow any burst that hits half of the passes.
    """
    return [min(times) for times in zip(*(p.op_s for p in passes))]


def end_to_end(passes: list[PassResult], setups: list[float],
               import_s: float) -> tuple[dict, list[str]]:
    ops = op_best(passes)
    p99 = percentile(ops, 99)
    metrics = {
        "setup_s": import_s + min(setups),
        "wall_s": sum(ops),
        "op_s.p50": statistics.median(ops),
        "op_s.p99": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"passes {len(passes)}, operations per pass {len(ops)}, "
             f"{sum(t > p99 for t in ops)} beyond op_s.p99, "
             f"import {import_s:.4f} s, set-ups {len(setups)}"]
    return metrics, notes


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("per_node"):
        return "calls/node"
    if name.endswith(("_s", "s_per_iter", ".p50", ".p99")):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cores = limit_blas_threads()
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Recorder

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    env = environment(cores)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        passes = timed_passes(workload, args.seed, refs, args.seconds / 2)
        with Recorder() as recorder:
            traced = run_pass(workload, args.seed, refs, recorder)
        metrics = recorder.metrics()
        untraced = statistics.median(sum(p.op_s) for p in passes)
        metrics["trace.overhead_frac"] = sum(traced.op_s) / untraced - 1.0
        notes = [f"untraced passes {len(passes)}, traced passes 1, spans {len(recorder.spans)}"]
        if recorder.absent:
            notes.append("absent (not in the program): " + ", ".join(recorder.absent))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "metrics": metrics, "absent": recorder.absent,
                       **recorder.dump()}, fh)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
        passes.append(traced)
    else:
        passes = timed_passes(workload, args.seed, refs, args.seconds)
        setups = setup_times(workload, args.seed, refs, passes)
        metrics, notes = end_to_end(passes, setups, import_s)

    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for label, bad in failures[:10]:
        print(f"FAILED {label}: {'; '.join(bad)}", file=sys.stderr)
    for note in notes:
        print(note)
    print(f"failed_frac {len(failures) / attempted:.6g} fraction "
          f"({len(failures)} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:48s} {value!r} {unit(name)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
