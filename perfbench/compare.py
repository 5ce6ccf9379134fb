#!/usr/bin/env python3
"""Prints a before/after table of two benchmark results.

    python3 perfbench/run.py --workload batch_tail_control --trace 1 | tail -1 > before.json
    # ... switch to the changed checkout ...
    python3 perfbench/run.py --workload batch_tail_control --trace 1 | tail -1 > after.json
    python3 perfbench/compare.py before.json after.json

Each file holds run.py's last output line. Works for traced (per-layer) and
untraced (end-to-end) results alike; rows are sorted by the before value so
the largest layer comes first.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        before = json.load(f)["metrics"]
    with open(sys.argv[2]) as f:
        after = json.load(f)["metrics"]
    names = sorted(set(before) | set(after),
                   key=lambda n: -before.get(n, after.get(n, {"value": 0}))["value"])
    print("%-32s %14s %14s %9s  %s" % ("metric", "before", "after", "change", "unit"))
    for name in names:
        b = before.get(name, {}).get("value")
        a = after.get(name, {}).get("value")
        unit = (before.get(name) or after.get(name))["unit"]
        change = "%+8.1f%%" % (100.0 * (a - b) / b) if a is not None and b else "        -"
        print("%-32s %14s %14s %9s  %s" % (
            name, "-" if b is None else "%.6g" % b, "-" if a is None else "%.6g" % a, change, unit))


if __name__ == "__main__":
    main()
