#!/usr/bin/env python3
"""Benchmark of the ebs-skew toolkit: one workload, once, at one seed.

    python3 perfbench/run.py --workload stream_rollup --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds perfbench_driver and the
toolkit's library from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), derives the
workload's config from --seed, and launches the driver once per repetition
until --seconds is spent. Each repetition is its own process, so its peak RSS
is its own. It prints a human-readable report, then as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over the repetitions):
  run_s        wall seconds of the timed pass
  setup_s      wall seconds of the set-up before it (median of every sample)
  peak_rss_mb  VmHWM of the process that ran the timed pass, MiB
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), plus trace_overhead.

Every repetition is an operation. It fails when the driver throws, a store
cannot be finished, or an output check disagrees: with the other
repetitions of the run, with the recorded store, or with the values pinned in
perfbench/expected.json for the default and held-out seeds.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("stream_rollup", "batch_tail_control", "store_mitigate")

# DcPreset(1): the fleet is fixed, --seed picks the traffic (inputs.json).
FLEET_SEED = 1001
DEFAULT_USERS = 160
DEFAULT_STEPS = 600
DEFAULT_SEED = 1

SETUP_REPS = {"stream_rollup": 15, "batch_tail_control": 15}
MIN_REPS = {"stream_rollup": 3, "batch_tail_control": 3, "store_mitigate": 2}
HARD_LIMIT_S = 150.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics and their units. Every name is printed on every traced
# run; a layer that does no work on a workload reads 0.
PER_LAYER = {
    "topology.build_fleet_s": "s",
    "scenario.build_s": "s",
    "workload.generate_s": "s",
    "workload.records": "count",
    "core.drive_sinks_self_s": "s",
    "qmodel.sink_s": "s",
    "qmodel.events": "count",
    "control.sinks_s": "s",
    "control.decisions": "count",
    "throttle.simulate_lending_s": "s",
    "hypervisor.wt_cov_samples_s": "s",
    "throttle.lending_sink_s": "s",
    "hypervisor.wt_cov_sink_s": "s",
    "cache.sink_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.page_accesses": "count",
    "replay.events": "count",
    "replay.step_ms_p50": "ms",
    "replay.step_ms_p98": "ms",
    "replay.queue_push_wait_s": "s",
    "replay.queue_pop_wait_s": "s",
    "replay.shard_generate_s": "s",
    "replay.shard_init_s": "s",
    "replay.startup_s": "s",
    "replay.merge_self_s": "s",
    "trace.rollup_fold_s": "s",
    "trace.rollup_read_s": "s",
    "core.streaming_finalize_s": "s",
    "store.append_s": "s",
    "store.finish_s": "s",
    "store.bytes": "bytes",
    "store.bytes_per_event": "bytes/event",
    "store.decode_s": "s",
    "analysis.skewness_s": "s",
    "process.cpu_s": "s",
    "process.sys_s": "s",
    "process.minor_faults": "count",
    "run.traced_s": "s",
    "run.unattributed_s": "s",
    "trace_overhead": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail_setup(message):
    """Exits without a result: the benchmark could not run at all."""
    log("perfbench: " + message)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail_setup("build failed")
    return os.path.join(out, "perfbench_driver")


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def load_inputs(seed, users, steps):
    """The traffic draw of --seed: an entry of perfbench/inputs.json.

    The table (written by vet_inputs.py) holds workload seeds whose traffic
    is sized to DcPreset(1)'s sampled IO and page counts; entry 0 is
    DcPreset(1). A self-test fleet (other --users/--steps) takes the raw
    workload seed 2000 + seed instead.
    """
    if users != DEFAULT_USERS or steps != DEFAULT_STEPS:
        return {"workload_seed": 2000 + seed, "rate_scale": 1.0}
    with open(os.path.join(HERE, "inputs.json")) as f:
        table = json.load(f)
    return table[(seed - DEFAULT_SEED) % len(table)]


class Driver:
    def __init__(self, binary, users, steps, entry):
        self.binary = binary
        self.users = users
        self.steps = steps
        self.entry = entry

    def config_args(self):
        return ["--fleet-seed", str(FLEET_SEED),
                "--workload-seed", str(self.entry["workload_seed"]),
                "--users", str(self.users), "--steps", str(self.steps),
                "--rate-scale", repr(self.entry["rate_scale"])]

    def launch(self, workload, phase, extra=()):
        """Runs one driver process; returns its result record."""
        cmd = [self.binary, "--workload", workload, "--phase", phase]
        cmd += self.config_args() + list(extra)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            record = {"ok": False, "error": "driver exited %d without a result" % proc.returncode}
        if proc.returncode != 0:
            record["ok"] = False
        return record


# ---------------------------------------------------------------------------
# Repetitions.
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, driver, args):
        self.driver = driver
        self.workload = args.workload
        self.seconds = args.seconds
        self.trace = args.trace
        self.seed = args.seed
        self.attempted = 0
        self.passed = 0
        self.failures = []
        self.setup_s = []
        self.run_s = []
        self.traced_run_s = []
        self.peak_rss_mb = []
        self.layers = []
        self.accounting = []
        self.detail = []
        self.absent = set()
        self.reference = {}  # phase -> checks of the first repetition
        self.tmp_dir = os.path.join(os.path.dirname(build_dir()), "tmp")
        self.out_dir = os.path.join(os.path.dirname(build_dir()), "traces")

    # -- checks ------------------------------------------------------------

    def check(self, phase, record, label):
        """Returns True when the record ran and its checks agree."""
        if not record.get("ok"):
            self.failures.append("%s: %s" % (label, record.get("error", "failed")))
            return False
        checks = record["checks"]
        ref = self.reference.setdefault(phase, checks)
        if checks != ref:
            self.failures.append("%s: checks differ from the run's first repetition: %s vs %s"
                                 % (label, checks, ref))
            return False
        return True

    def check_pinned(self, expected):
        # The traffic draw's sampled IO count, from the inputs table.
        events = self.driver.entry.get("events")
        for phase in ("run", "record", "replay"):
            got = self.reference.get(phase, {}).get("events")
            if events is not None and got is not None and self.workload != "batch_tail_control" \
                    and int(got, 16) != events:
                self.failures.append("%s/%s: %d events, inputs.json says %d"
                                     % (self.workload, phase, int(got, 16), events))
                self.passed = 0
        pins = expected.get(self.workload, {}).get(str(self.driver.entry["workload_seed"]))
        if pins is None or self.driver.users != DEFAULT_USERS or self.driver.steps != DEFAULT_STEPS:
            return
        for phase, checks in pins.items():
            got = self.reference.get(phase)
            if got is not None and got != checks:
                self.failures.append("pinned checks differ for %s/%s: got %s, expected %s"
                                     % (self.workload, phase, got, checks))
                self.passed = 0  # every repetition produced the same wrong output

    # -- one repetition ----------------------------------------------------

    def trace_args(self, traced, phase):
        if not traced:
            return ["--trace", "0"]
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "%s-%s-seed%d.json" % (self.workload, phase, self.seed))
        run_id = "%s-seed%d-rep%d" % (self.workload, self.seed, self.attempted)
        return ["--trace", "1", "--trace-out", path, "--run-id", run_id]

    def collect(self, record, traced):
        if traced:
            self.traced_run_s.append(record["run_s"])
            self.layers.append(record["layers"])
            self.accounting.append(record["accounting"])
            self.detail = record.get("detail", [])
            self.absent.update(n for n in record.get("absent", []) if n not in record["layers"])
        else:
            self.run_s.append(record["run_s"])
            self.peak_rss_mb.append(record["peak_rss_mb"])
        self.setup_s.extend(record["setup_s"])

    def repetition(self, traced):
        self.attempted += 1
        label = "rep %d%s" % (self.attempted, " (traced)" if traced else "")
        if self.workload != "store_mitigate":
            extra = ["--setup-reps", str(SETUP_REPS[self.workload])]
            record = self.driver.launch(self.workload, "run", extra + self.trace_args(traced, "run"))
            if self.check("run", record, label):
                self.collect(record, traced)
                self.passed += 1
            return
        # store_mitigate: record in one process, replay in another, so the
        # recording's heap never counts toward the replay's peak RSS.
        os.makedirs(self.tmp_dir, exist_ok=True)
        store = os.path.join(self.tmp_dir, "store_mitigate-seed%d.ebst" % self.seed)
        try:
            rec = self.driver.launch(self.workload, "record",
                                     ["--store", store] + self.trace_args(traced, "record"))
            if not self.check("record", rec, label + " record"):
                return
            rep = self.driver.launch(self.workload, "replay",
                                     ["--store", store] + self.trace_args(traced, "replay"))
            if not self.check("replay", rep, label + " replay"):
                return
            shared = ("events", "trace_fp", "rollup_fp", "skew_fp")
            if any(rep["checks"][k] != rec["checks"][k] for k in shared):
                self.failures.append("%s: replay %s differs from the recording %s"
                                     % (label, [rep["checks"][k] for k in shared],
                                        [rec["checks"][k] for k in shared]))
                return
            if traced:
                # The record phase's layers are set-up layers of this workload.
                # Its engine rows (prefixed "setup.") fill the rows the replay
                # has none of: the live generator shards run only while
                # recording.
                for name, value in rec["layers"].items():
                    if not name.startswith("setup."):
                        rep["layers"][name] = value
                    elif name[len("setup."):] not in rep["layers"]:
                        rep["layers"][name[len("setup."):]] = value
                rep["accounting"] = rec["accounting"] + rep["accounting"]
            rep["setup_s"] = rec["setup_s"]
            self.collect(rep, traced)
            self.passed += 1
        finally:
            if os.path.exists(store):
                os.remove(store)

    def go(self):
        start = time.monotonic()
        durations = []
        traced_next = False
        while True:
            elapsed = time.monotonic() - start
            done = len(durations)
            if self.trace:
                enough = len(self.run_s) >= 1 and len(self.traced_run_s) >= 1 and done >= 2
            else:
                enough = done >= MIN_REPS[self.workload]
            typical = statistics.median(durations) if durations else 0.0
            if enough and elapsed + typical > self.seconds:
                break
            if elapsed + typical > HARD_LIMIT_S or len(self.failures) > 0 and done >= 1:
                break
            t0 = time.monotonic()
            self.repetition(traced_next if self.trace else False)
            durations.append(time.monotonic() - t0)
            if self.trace:
                traced_next = not traced_next

    # -- report ------------------------------------------------------------

    def metrics(self):
        if not self.trace:
            if not self.run_s:
                return {}
            return {
                "run_s": statistics.median(self.run_s),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": statistics.median(self.peak_rss_mb),
            }
        values = {}
        for name in PER_LAYER:
            samples = [layers[name] for layers in self.layers if name in layers]
            values[name] = statistics.median(samples) if samples else 0.0
        if self.run_s and self.traced_run_s:
            values["trace_overhead"] = (statistics.median(self.traced_run_s) /
                                        statistics.median(self.run_s))
        return values

    def print_report(self, values):
        units = PER_LAYER if self.trace else END_TO_END
        print("perfbench %s seed=%d trace=%d: %d repetition(s), %d failed"
              % (self.workload, self.seed, self.trace, self.attempted,
                 self.attempted - self.passed))
        print("  inputs %s, untraced run_s %s" % (
            json.dumps(self.driver.entry), " ".join("%.4f" % v for v in self.run_s)))
        if self.traced_run_s:
            print("  traced run_s %s" % " ".join("%.4f" % v for v in self.traced_run_s))
        for phase, checks in sorted(self.reference.items()):
            print("  checks[%s] %s" % (phase, json.dumps(checks, sort_keys=True)))
        for failure in self.failures:
            print("  FAILED " + failure)
        for name in sorted(values):
            print("  %-32s %14.6f %s" % (name, values[name], units[name]))
        if self.absent:
            print("  absent (no such obs timer recorded in this run; reported as 0): " +
                  ", ".join(sorted(self.absent)))
        if self.accounting:
            # Self-time rows of the last traced repetition; they sum to its
            # traced pass (and, on store_mitigate, its set-up).
            rows = self.accounting[-1]
            print("  self-time accounting of the last traced repetition:")
            for name, value in rows:
                print("    %-36s %10.4f s" % (name, value))
            timed = sum(v for k, v in rows if not k.startswith("setup."))
            print("    %-36s %10.4f s (traced run_s %.4f)" % ("sum (timed pass)", timed,
                                                             self.traced_run_s[-1]))
            for name, value in self.detail:
                print("      within: %-28s %10.4f s" % (name, value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A smaller fleet for the self-test; the benchmark itself uses DcPreset(1).
    parser.add_argument("--users", type=int, default=DEFAULT_USERS)
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    args = parser.parse_args()
    # A terminated run still stops its driver and deletes its store file.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.users <= 0 or args.steps <= 0:
        fail_setup("--seed must be >= 0, --users and --steps > 0")

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    driver = Driver(build(), args.users, args.steps,
                    load_inputs(args.seed, args.users, args.steps))
    run = Run(driver, args)
    run.go()
    run.check_pinned(expected)
    values = run.metrics()
    run.print_report(values)

    units = PER_LAYER if args.trace else END_TO_END
    attempted = max(run.attempted, 1)
    failed = attempted - run.passed
    result = {
        "correct": failed == 0 and not run.failures and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
