#!/usr/bin/env python3
"""Deterministic work-count gate for the repository benchmark.

    python3 scripts/check_work_counts.py [--record] [--baseline PATH]

Runs every workload of BENCHMARK.json once as

    python3 perfbench/run.py --workload W --seed 1 --seconds 0.5 \\
        --trace 0 --tiny

and reads what depends on the simulated trajectory only, never on the
host: the driver's "work counts per iteration" (cycles, flit hops,
packets, snapshot bytes, coherence memory operations and packets), the
attempted and failed packets per iteration, and the model_* metrics.
These are compared exactly with the committed record
(bench/baselines/WORK_counts.json by default); any difference fails.
A change that is meant to move them rewrites the record with --record
and says why in CHANGES.md.

Run from anywhere; the repository root is this script's parent's
parent. Exits 1 listing every difference, 0 when all match.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "bench", "baselines",
                                "WORK_counts.json")
RUN_ARGS = ["--seed", "1", "--seconds", "0.5", "--trace", "0", "--tiny"]
WORK_LINE = re.compile(
    r"^work counts per iteration \(checked across (\d+) iterations\): "
    r"(.*)$")


def measure(workload):
    """The exact counts of one tiny run of @p workload."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload] + RUN_ARGS
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("check_work_counts: %s exited %d\n%s" % (
            workload, r.returncode, (r.stdout + r.stderr)[-2000:]))
    work = [WORK_LINE.match(line) for line in lines]
    work = [m for m in work if m]
    if len(work) != 1:
        sys.exit("check_work_counts: %s printed no work-count line"
                 % workload)
    iterations = int(work[0].group(1))
    counts = {}
    for field in work[0].group(2).split():
        key, value = field.split("=")
        counts[key] = int(value)
    result = json.loads(lines[-1])
    # attempted/failed are summed over every checked iteration, whose
    # number depends on host speed; per iteration they are exact.
    for key in ("attempted", "failed"):
        total = int(result[key])
        if total % iterations:
            sys.exit("check_work_counts: %s %s=%d is not a multiple of "
                     "its %d iterations" % (workload, key, total,
                                            iterations))
        counts[key + "_per_iteration"] = total // iterations
    for name, metric in sorted(result["metrics"].items()):
        if name.startswith("model_"):
            counts[name] = metric["value"]
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the baseline instead of comparing")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    measured = {w: measure(w) for w in workloads}

    if args.record:
        with open(args.baseline, "w") as f:
            json.dump({"command": "python3 perfbench/run.py --workload W "
                                  + " ".join(RUN_ARGS),
                       "workloads": measured}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print("recorded %d workloads in %s" % (len(measured),
                                               args.baseline))
        return 0

    with open(args.baseline) as f:
        recorded = json.load(f)["workloads"]
    failures = []
    for w in sorted(set(recorded) | set(measured)):
        want, got = recorded.get(w), measured.get(w)
        if want is None or got is None:
            failures.append("%s: %s" % (
                w, "not recorded" if want is None else "not measured"))
            continue
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                failures.append("%s %s: recorded %r, measured %r" % (
                    w, key, want.get(key), got.get(key)))
    for line in failures:
        print("WORK COUNT MISMATCH " + line)
    if failures:
        print("%d mismatch(es); if the change is meant to move these, "
              "rerun with --record and explain why in CHANGES.md"
              % len(failures))
        return 1
    print("work counts match %s for %d workloads" % (
        os.path.relpath(args.baseline, ROOT), len(measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
