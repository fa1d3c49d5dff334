#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the root of a checkout:

    python3 bench/selftest.py

It shows that the checks behind failed_frac catch what they are meant to:
a sweep record checked against a perturbed reference, and certificates
tampered with between certify and recheck (a flipped trigger, a dropped
node), are each counted as a failed operation by the same pass loop the
benchmark uses, while the untouched record and certificate pass. Exits 0
when every expectation holds.
"""

import copy
import json
import pathlib
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = wl.DEFAULT_SEED


class Fixed:
    """A workload whose operations are given, for feeding the real pass loop."""

    def __init__(self, ops):
        self.ops = ops

    def setup(self, seed, refs):
        return self.ops


def main() -> int:
    refs = wl.load_references()
    results = []

    def expect(what: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    # a sweep record against its reference, then against perturbed copies
    sweep = wl.WORKLOADS["sweep-scalar"]
    label = f"t=0.9 seed={SEED}"
    key = wl.record_key(0.9, SEED)
    [op] = [o for o in sweep.setup(SEED, refs) if o.label == label]
    rec = op.run()
    expect("record passes against the stored reference", op.check(rec) == [])

    def perturbed_check(field: str, rel: float):
        bent = copy.deepcopy(refs)
        bent["sweep-scalar"][key][field] *= 1.0 + rel
        return wl.check_record(rec, bent["sweep-scalar"][key])

    expect("a2 off by 1e-11 fails", perturbed_check("a2", 1e-11) != [])
    expect("ainf_winv_sampled off by 1e-11 fails", perturbed_check("ainf_winv_sampled", 1e-11) != [])
    expect("sw_normsq_est off by 1e-5 fails", perturbed_check("sw_normsq_est", 1e-5) != [])
    expect("sw_normsq_est off by 1e-8 passes", perturbed_check("sw_normsq_est", 1e-8) == [])
    uncertified = copy.copy(rec)
    uncertified.sw_normsq_lower = rec.sw_normsq_est * (1.0 - 1e-15)
    expect("a witness that does not certify the value fails", wl.check_record(uncertified, None) != [])

    # a certificate, untouched and tampered, between certify and recheck
    nodes = refs["certify-pool"][str(SEED)]
    index = max(range(len(nodes)), key=nodes.__getitem__)
    weight, f = wl.make_instance(SEED, index)
    cert = wl.msparse.certify(weight, f, wl.msparse.default_stopping_config(weight.dim))
    cert = json.loads(json.dumps(cert))
    clean = wl.recheck(cert, weight, f)
    expect("untampered certificate passes", wl.check_certificate(clean, nodes[index]) == [])

    flipped = copy.deepcopy(cert)
    node = next(n for n in flipped["family"]["nodes"] if n["trigger"] != "root")
    node["trigger"] = "type2" if node["trigger"] == "type1" else "type1"
    flipped_out = wl.recheck(flipped, weight, f)
    expect("a flipped trigger fails the recheck", wl.check_certificate(flipped_out, nodes[index]) != [])

    # a node dropped from the family; recheck_certificate may raise on it, which
    # the pass loop also counts as a failure
    dropped = copy.deepcopy(cert)
    dropped["family"]["nodes"].pop()

    # the pass loop counts each of them as one failed operation
    bent = copy.deepcopy(refs)
    bent["sweep-scalar"][key]["a2"] *= 1.0 + 1e-9
    ops = [wl.Op("clean record", lambda: rec, op.check),
           wl.Op("perturbed reference", lambda: rec,
                 lambda r: wl.check_record(r, bent["sweep-scalar"][key])),
           wl.Op("clean certificate", lambda: clean,
                 lambda o: wl.check_certificate(o, nodes[index])),
           wl.Op("tampered certificate", lambda: flipped_out,
                 lambda o: wl.check_certificate(o, nodes[index])),
           wl.Op("dropped node", lambda: wl.recheck(dropped, weight, f),
                 lambda o: wl.check_certificate(o, nodes[index]))]
    counted = run.run_pass(Fixed(ops), SEED, refs)
    failed = sorted(label for label, _ in counted.failures)
    expect(f"the pass counts 3 of 5 operations as failed: {failed}",
           failed == ["dropped node", "perturbed reference", "tampered certificate"])
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
