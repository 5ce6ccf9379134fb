#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny fleet (40 users, 120 steps).

    python3 perfbench/selftest.py

Runs every workload untraced and traced through run.py and asserts that:
  - the result line says correct, with no failed operation;
  - every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is printed, in the result and in the report, with the
    unit BENCHMARK.json declares;
  - run.py's metric tables and BENCHMARK.json name the same metrics;
  - the traced self-time rows sum to the traced run_s.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def fail(message):
    print("selftest FAILED: " + message)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        fail("run.py's metric tables differ from BENCHMARK.json")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        fail("run.py's workloads differ from BENCHMARK.json")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--users", "40", "--steps", "120"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                fail("%s exited %d: %s" % (label, proc.returncode, proc.stderr[-2000:]))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s: %s\n%s" % (label, lines[-1], proc.stdout))
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                fail("%s: metrics %s" % (label, sorted(set(metrics) ^ set(declared[trace]))))
            report = "\n".join(lines[:-1])
            for name, unit in declared[trace].items():
                if metrics[name]["unit"] != unit:
                    fail("%s: %s has unit %s, not %s" % (label, name, metrics[name]["unit"], unit))
                if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in report.splitlines()):
                    fail("%s: report does not print %s with its unit" % (label, name))
            if trace:
                # "sum (timed pass) <x> s (traced run_s <y>)" of the last traced repetition.
                sums = [line.split() for line in report.splitlines()
                        if line.strip().startswith("sum (timed pass)")]
                if not sums:
                    fail("%s: no self-time accounting printed" % label)
                total, traced = float(sums[0][3]), float(sums[0][-1].rstrip(")"))
                if abs(total - traced) > 0.01 * traced + 1e-4:
                    fail("%s: self times sum to %.4f, traced run_s %.4f" % (label, total, traced))
            print("selftest %-30s ok (%d repetitions)" % (label, result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
