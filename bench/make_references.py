#!/usr/bin/env python3
"""Write bench/references.json: the checked outputs of every workload at the default seed.

Run from the root of a checkout, on code whose outputs are trusted:

    python3 bench/make_references.py

The benchmark compares each later run of the default seed against this file
(see workloads.py for the tolerances). Regenerate it only together with a
change that is meant to move these numbers, and say so where the change is
recorded.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {name: w.reference() for name, w in workloads.WORKLOADS.items()}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
