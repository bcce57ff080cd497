#!/usr/bin/env python3
"""Repository benchmark: host time, set-up time and peak memory of the
simulator on three pinned workloads, plus per-layer counts and spans from a
separate traced pass.

Run from the repository root:

  python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 simbench/run.py --workload all   # every workload, both modes

Workloads: fig1-spray, fig5-allreduce-themis, fct-fattree-themisd (see
simbench/layers.json for why each was chosen and which layer metric should
move which end-to-end metric).

The script builds simbench/ as a Release build into .bench_build/simbench,
then launches one simbench process per pass, so every timed pass runs in a
process that ran only this workload:

  --trace 0  timed passes (no telemetry sink) for about S seconds, at least
             three, then set-up-only passes until there are enough set-up
             samples. Reports the medians of wall_s, setup_s and peak_rss_mb.
  --trace 1  untraced timed passes, one traced pass (spans around each call
             into the library, a timing decorator on every switch's load
             balancer, exact per-layer counts) and one telemetry pass (all
             categories, in memory). Reports the per-layer metrics.

Every pass prints a simulated fingerprint. An operation (a flow, or a
collective group) fails if it did not complete by the workload's deadline;
every operation of a pass fails if the pass's fingerprint differs from the
pin for this seed (simbench/pins.json) or, for a seed without a pin, from
the run's first pass. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A change that alters the model re-pins in a benchmark change of its own:
run each workload on seeds 42 and 7 (and --scale tiny on 42) and copy the
fingerprint the passes print into pins.json.

--scale tiny and --pins PATH exist for simbench/selftest.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD_DIR, "simbench")

WORKLOADS = ("fig1-spray", "fig5-allreduce-themis", "fct-fattree-themisd")
DEFAULT_SEED = 42
MIN_TIMED_PASSES = 3
MIN_SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "sim.run_s": "s",
    "sim.events_executed": "count",
    "sim.events_per_s": "1/s",
    "sim.heap_scheduled": "count",
    "sim.wheel_scheduled": "count",
    "sim.calendar_scheduled": "count",
    "lb.select_calls": "count",
    "lb.self_s": "s",
    "lb.ns_per_select": "ns",
    "lb.run_share": "ratio",
    "net.tx_packets": "count",
    "net.drops": "count",
    "net.ecn_marks": "count",
    "net.pause_transitions": "count",
    "net.max_queue_bytes": "B",
    "topo.switches": "count",
    "topo.forwarded": "count",
    "topo.consumed_by_hook": "count",
    "topo.pfc_pauses_sent": "count",
    "rnic.qps": "count",
    "rnic.data_packets_sent": "count",
    "rnic.rtx_packets": "count",
    "rnic.useful_ratio": "ratio",
    "rnic.ooo_arrivals": "count",
    "rnic.duplicates": "count",
    "rnic.nacks_sent": "count",
    "rnic.timeouts": "count",
    "rnic.cnps_received": "count",
    "cc.rate_decreases": "count",
    "cc.nack_decreases": "count",
    "cc.cnp_received": "count",
    "cc.increase_events": "count",
    "themis.data_tracked": "count",
    "themis.nacks_seen": "count",
    "themis.nacks_blocked": "count",
    "themis.block_ratio": "ratio",
    "themis.compensated_nacks": "count",
    "themis.flow_table.inserts": "count",
    "themis.flow_table.hits": "count",
    "themis.flow_table.peak_occupancy": "count",
    "traffic.epochs": "count",
    "traffic.port_updates": "count",
    "core.build_s": "s",
    "workload.generate_s": "s",
    "workload.post_s": "s",
    "workload.flows": "count",
    "stats.collect_s": "s",
    "telemetry.overhead_s": "s",
    "telemetry.records": "count",
    "trace.overhead_s": "s",
}


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds the Release benchmark; exits 2 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("simbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def child_env():
    # The program gets the default engine settings: no THEMIS_* overrides.
    return {k: v for k, v in os.environ.items() if not k.startswith("THEMIS_")}


class Runner:
    """Launches passes and keeps the run's operation and correctness tally."""

    def __init__(self, workload, seed, scale, pin):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.reference = pin
        self.reference_label = "pin" if pin is not None else "first pass"
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.build_info = None

    def run(self, mode):
        cmd = [BINARY, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--scale", self.scale]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("simbench: %s pass timed out\n" % mode)
            sys.exit(3)
        if proc.returncode != 0:
            sys.stderr.write("simbench: %s pass exited with %d\n" % (mode, proc.returncode))
            sys.exit(3)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = time.monotonic() - start
        if mode != "setup":
            self.check(mode, result)
        return result

    def check(self, mode, result):
        if self.build_info is None:
            self.build_info = result["build"]
            log("build: %s" % json.dumps(self.build_info))
            if self.build_info["build_type"] != "Release" or self.build_info["threads"] != 1:
                sys.stderr.write("simbench: refusing to report from a non-Release build\n")
                sys.exit(3)
        fingerprint = result["fingerprint"]
        failed = result["failed"]
        if self.reference is None:
            self.reference = fingerprint
        diff = [k for k in sorted(set(fingerprint) | set(self.reference))
                if fingerprint.get(k) != self.reference.get(k)]
        for k in diff:
            log("FINGERPRINT MISMATCH (%s pass vs %s): %s = %s, expected %s" % (
                mode, self.reference_label, k, fingerprint.get(k), self.reference.get(k)))
        if diff:
            self.mismatches += 1
            failed = result["attempted"]
        self.attempted += result["attempted"]
        self.failed += failed
        log("%-9s pass: wall %.4f s, %d/%d operations failed, fingerprint %s" % (
            mode, result["wall_s"], failed, result["attempted"], json.dumps(fingerprint)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    log("%s: median %.6g %s, q1 %.6g, q3 %.6g, max %.6g, n=%d" % (
        name, statistics.median(values), unit, q1, q3, max(values), len(values)))


def timed_run(runner, seconds):
    start = time.monotonic()
    passes = []
    while True:
        passes.append(runner.run("timed"))
        elapsed = time.monotonic() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_TIMED_PASSES and elapsed + typical > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.run("setup")["setup_s"])
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {}
    for name, values in samples.items():
        describe(name, values, END_TO_END_UNITS[name])
        metrics[name] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
    return metrics


def traced_run(runner, seconds):
    start = time.monotonic()
    untraced = [runner.run("timed")]
    traced = runner.run("traced")
    telemetry = runner.run("telemetry")
    typical = untraced[0]["elapsed_s"]
    while time.monotonic() - start + typical <= seconds:
        untraced.append(runner.run("timed"))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    describe("untraced wall_s", [p["wall_s"] for p in untraced], "s")
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    values["telemetry.overhead_s"] = telemetry["wall_s"] - untraced_wall
    values["telemetry.records"] = telemetry["telemetry.records"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def measure(workload, trace, args, pins):
    """One workload in one trace mode; returns the runner's tally and metrics."""
    pin = pins.get(args.scale, {}).get(workload, {}).get(str(args.seed))
    log("simbench: workload %s, seed %d, scale %s, trace %d, %s" % (
        workload, args.seed, args.scale, trace,
        "pinned fingerprint" if pin is not None else "no pin for this seed: passes must agree"))
    runner = Runner(workload, args.seed, args.scale, pin)
    metrics = traced_run(runner, args.seconds) if trace else timed_run(runner, args.seconds)
    for name, m in metrics.items():
        log("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    log("operations: %d attempted, %d failed; fingerprint mismatches: %d" % (
        runner.attempted, runner.failed, runner.mismatches))
    return runner, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload with --trace 0 and then 1")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")

    build()
    with open(args.pins) as f:
        pins = json.load(f)
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in plan:
        runner, metrics = measure(workload, trace, args, pins)
        summary["correct"] &= runner.failed == 0 and runner.mismatches == 0
        summary["attempted"] += runner.attempted
        summary["failed"] += runner.failed
        prefix = workload + "/" if len(plan) > 1 else ""
        summary["metrics"].update({prefix + name: m for name, m in metrics.items()})
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
