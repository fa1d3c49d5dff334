"""Traced peak memory of one call, measured in a fresh Python process."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def traced_peak(setup: str, call: str) -> int:
    """The tracemalloc peak, in bytes, of the statement call, run after setup
    in a fresh process.

    An in-suite peak depends on the state of numpy's small-block caches and
    Python's free lists, that is on the tests that ran before it. Here every
    reading starts from the same state: setup runs, then 200 small arrays are
    made and dropped, then tracing starts. A setup that runs the call once on
    a small input keeps its first-call allocations, a few kB, out of the peak.
    """
    code = "\n".join([setup, "import tracemalloc", "import numpy as np",
                      "warm = [np.zeros((2,) * (k % 3 + 1)) for k in range(200)]", "del warm",
                      "tracemalloc.start()", call, "print(tracemalloc.get_traced_memory()[1])"])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True).stdout
    return int(out.split()[-1])
