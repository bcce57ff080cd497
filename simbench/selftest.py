#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark. Run from the repository root:

  python3 simbench/selftest.py

Checks that
  1. every metric BENCHMARK.json names is emitted with its unit, on every
     workload, for --trace 0 (end-to-end) and --trace 1 (per-layer), and
     that simbench/layers.json explains exactly the per-layer metrics;
  2. a deliberately wrong pin is reported as failed operations;
  3. the traced and telemetry passes reproduce the untraced fingerprint;
  4. pins.json pins the default seed and a held-out seed of every workload.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
DEFAULT_SEED = run.DEFAULT_SEED
HELD_OUT_SEED = 7


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run_benchmark(workload, trace, pins=None):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    if pins is not None:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def pass_fingerprint(workload, mode):
    out = subprocess.run([run.BINARY, "--workload", workload, "--seed", str(DEFAULT_SEED),
                          "--mode", mode, "--scale", "tiny"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)["fingerprint"]


def check_metrics(spec):
    with open(os.path.join(run.HERE, "layers.json")) as f:
        layers = json.load(f)
    explained = {m for layer in layers["layers"] for m in layer["metrics"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    if explained != per_layer:
        fail("layers.json and BENCHMARK.json disagree on %s" % sorted(explained ^ per_layer))
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_benchmark(workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s --trace %d: %s" % (workload, trace, result))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail("%s --trace %d emits %s, BENCHMARK.json names %s" % (
                    workload, trace, got, want))
    print("ok: every named metric is emitted with its unit")


def check_wrong_pin():
    with open(os.path.join(run.HERE, "pins.json")) as f:
        pins = json.load(f)
    workload = "fig1-spray"
    pins["tiny"][workload][str(DEFAULT_SEED)]["events"] += 1
    wrong = os.path.join(run.BUILD_DIR, "selftest_wrong_pins.json")
    with open(wrong, "w") as f:
        json.dump(pins, f)
    out, result = run_benchmark(workload, 0, pins=wrong)
    os.remove(wrong)
    if result["correct"] or result["attempted"] < 1 or result["failed"] != result["attempted"]:
        fail("a wrong pin was not reported as failed operations: %s" % result)
    if "FINGERPRINT MISMATCH" not in out or "events = " not in out:
        fail("the mismatch report does not name the differing field")
    print("ok: a wrong pin fails every operation (%d/%d)" % (
        result["failed"], result["attempted"]))


def check_traced_fingerprint():
    for workload in run.WORKLOADS:
        untraced = pass_fingerprint(workload, "timed")
        for mode in ("traced", "telemetry"):
            if pass_fingerprint(workload, mode) != untraced:
                fail("%s: %s fingerprint differs from the untraced one" % (workload, mode))
    print("ok: traced and telemetry fingerprints equal the untraced ones")


def check_pins():
    with open(os.path.join(run.HERE, "pins.json")) as f:
        full = json.load(f)["full"]
    for workload in run.WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            if str(seed) not in full.get(workload, {}):
                fail("no full-scale pin for %s seed %d" % (workload, seed))
    print("ok: default and held-out seeds pinned for every workload")


def main():
    run.build()
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    check_pins()
    check_traced_fingerprint()
    check_wrong_pin()
    check_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
