#!/usr/bin/env python3
"""Regenerates perfbench/inputs.json, the benchmark's table of traffic draws.

    python3 perfbench/vet_inputs.py [--count 16]

--seed n of run.py selects entry (n - 1) mod len(table). Entry 0 is
DcPreset(1) itself (workload seed 2001, rate_scale 1), the default seed.
Every other entry is a later workload seed whose sampled 4 KiB pages per IO
lie within 3% of TARGET_PAGES_PER_IO, with its global rate multiplier tuned
until its sampled IO count is within 0.5% of entry 0's.

Why: per-VD rates and IO sizes are heavy-tailed, so one seed's traffic can
carry 1.6x another's IOs and 2x its pages per IO. The batch and store
workloads' costs follow those two counts (the cache sinks touch every page),
so unsized seeds made the seed, not the code, the largest term in a run's
time. The table states the input size; the seeds still differ in which VDs,
when, and where. TARGET_PAGES_PER_IO is the median over 168 sized seeds
(2002-2217); DcPreset(1) itself sits at 9.47, in the upper tail.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EVENT_TOLERANCE = 0.005
TARGET_PAGES_PER_IO = 7.72
RATIO_TOLERANCE = 0.03


def generate(binary, workload_seed, rate_scale):
    driver = run.Driver(binary, run.DEFAULT_USERS, run.DEFAULT_STEPS,
                        {"workload_seed": workload_seed, "rate_scale": rate_scale})
    record = driver.launch("calibrate", "calibrate")
    if not record.get("ok"):
        sys.exit("calibration failed: %s" % record.get("error"))
    return int(record["checks"]["events"], 16), int(record["checks"]["pages"], 16)


def ratio_ok(events, pages, tolerance):
    return abs(pages / max(events, 1) - TARGET_PAGES_PER_IO) <= tolerance * TARGET_PAGES_PER_IO


def size_seed(binary, workload_seed, target_events):
    """Tunes rate_scale to target_events; None if the seed does not fit."""
    events, pages = generate(binary, workload_seed, 1.0)
    if not ratio_ok(events, pages, 2 * RATIO_TOLERANCE):
        return None
    # Secant steps on the multiplier, falling back to bisection once the
    # target is bracketed (the count is monotone but not linear in it).
    low, high = None, None
    scale = 1.0
    for _ in range(12):
        if abs(events - target_events) <= EVENT_TOLERANCE * target_events:
            break
        if events < target_events:
            low = scale
        else:
            high = scale
        guess = scale * target_events / max(events, 1)
        if low is not None and high is not None and not low < guess < high:
            guess = (low + high) / 2
        scale = float("%.6g" % guess)
        events, pages = generate(binary, workload_seed, scale)
    else:
        return None
    if not ratio_ok(events, pages, RATIO_TOLERANCE):
        return None
    return {"workload_seed": workload_seed, "rate_scale": scale, "events": events, "pages": pages}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=16)
    args = parser.parse_args()
    binary = run.build()

    events0, pages0 = generate(binary, 2001, 1.0)
    table = [{"workload_seed": 2001, "rate_scale": 1.0, "events": events0, "pages": pages0}]
    workload_seed = 2001
    while len(table) < args.count:
        workload_seed += 1
        entry = size_seed(binary, workload_seed, events0)
        print("seed %d: %s" % (workload_seed, entry or "skipped"), file=sys.stderr)
        if entry is not None:
            table.append(entry)

    with open(os.path.join(run.HERE, "inputs.json"), "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
