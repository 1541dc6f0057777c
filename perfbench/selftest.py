#!/usr/bin/env python3
"""Quick self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json for SECONDS, untraced twice and traced
once, all with SEED, and checks that:
  * the last stdout line holds exactly correct/attempted/failed/metrics, with
    correct true and failed 0 (the output check passed);
  * every end_to_end metric (untraced) or per_layer metric (traced) is
    emitted with its declared unit and a finite value, and no other metric;
  * the deterministic counts fingerprint repeats across the three runs.
Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 1
SEED = 1


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), r.returncode))
    lines = r.stdout.rstrip("\n").split("\n")
    fingerprint = [l for l in lines if l.startswith("# counts fingerprint:")]
    if len(fingerprint) != 1:
        raise AssertionError("%s: no counts fingerprint line" % workload)
    return json.loads(lines[-1]), fingerprint[0]


def check_result(workload, trace, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError("%s trace=%d: correct=%s failed=%s" % (
            workload, trace, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError("%s: attempted=%r" % (workload, result["attempted"]))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError("%s trace=%d: metrics differ; missing %s, extra %s" % (
            workload, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            raise AssertionError("%s: %s has unit %r, declared %r" % (
                workload, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError("%s: %s value %r" % (workload, name, m.get("value")))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            fingerprints = set()
            for trace in (0, 0, 1):
                result, fp = run(name, trace)
                check_result(name, trace, result,
                             spec["per_layer"] if trace else spec["end_to_end"])
                fingerprints.add(fp)
            if len(fingerprints) != 1:
                raise AssertionError("%s: counts differ between runs: %s" % (
                    name, sorted(fingerprints)))
            print("ok %s %s" % (name, fingerprints.pop()[2:]))
    except AssertionError as e:
        print("FAIL %s" % e)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
