#!/usr/bin/env python3
"""Host-time benchmark of the KSR-1 simulator (see hostbench/README.md).

    python3 hostbench/run.py --workload nas-sweep --seed 1 --trace 0

Run from the repository root. Builds the simulator libraries and the
benchmark binary from source into .bench_build/hostbench (first run only),
runs one workload in a fresh process for --seconds of timed work (default:
run_seconds of BENCHMARK.json), checks its outputs, and prints the
metrics: a readable table, then one JSON line
{"correct", "attempted", "failed", "metrics"} as the last line of stdout.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to .bench_build/hostbench/traces/).

    python3 hostbench/run.py --pin      # re-record hostbench/pins.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("nas-sweep", "sync-contention", "scaleout-modeB", "serve-replay")
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
PRESET = os.path.join(ROOT, "presets", "is64_warm.ckpt")
PINS = os.path.join(HERE, "pins.json")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    needed = [os.path.join(ROOT, "src", "CMakeLists.txt"),
              os.path.join(ROOT, "include", "ksr"), PRESET,
              os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("simulator sources not found: " + ", ".join(missing))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 3)


def run_binary(args):
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [BINARY] + args + ["--work-dir", os.path.relpath(work, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark binary exited with %d" % proc.returncode, 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed nothing", 4)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed work per run (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-record pins.json (run on the reference code)")
    a = ap.parse_args()

    build()
    if a.pin:
        run_pin()
        return
    if a.workload is None:
        fail("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if a.seconds is None else a.seconds

    args = ["run", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(seconds), "--trace", str(a.trace),
            "--pins", PINS, "--preset", PRESET]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (a.workload, a.seed))]
    raw = run_binary(args)

    checks = stats.check_raw(raw)
    problems = list(raw["errors"]) + checks
    failed = raw["failed"] + len(checks)
    if a.trace:
        wanted = spec["per_layer"]
        values = stats.per_layer(raw, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = stats.end_to_end(raw)
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}

    print("hostbench %s seed=%d trace=%d rounds=%d pid=%d" %
          (a.workload, a.seed, a.trace, len(raw["rounds"]), raw["pid"]))
    for k, m in metrics.items():
        print("  %-28s %16.6g %s" % (k, m["value"], m["unit"]))
    if a.workload == "serve-replay" and not a.trace:
        lat, nh, nm = stats.serve_latencies(raw["rounds"])
        print("  latency (%d hits, %d misses; a percentile needs %d samples "
              "beyond it):" % (nh, nm, stats.MIN_BEYOND))
        for k, v in lat.items():
            print("  %-28s %16.6g %s" % (k, v, k.rsplit("_", 1)[1]))
    if a.trace:
        selfs = stats.self_times(raw["rounds"])
        print("  self time by span layer, median over traced rounds:")
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print("  %-28s %16.6g s" % (k, v))
    for p in problems:
        print("  FAILED: " + p)
    print(json.dumps({"correct": failed == 0, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))


def run_pin():
    cmd = [BINARY, "pin", "--pins-out", PINS, "--preset", PRESET]
    if subprocess.run(cmd, cwd=ROOT).returncode:
        fail("pinning failed", 4)
    print("wrote " + os.path.relpath(PINS, ROOT))


if __name__ == "__main__":
    main()
