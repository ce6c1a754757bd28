#!/usr/bin/env python3
"""Steadiness check for the host-time benchmark.

    python3 hostbench/steady.py [--seeds 10] [--sets 2] [--workloads a,b]

Runs the benchmark command of BENCHMARK.json once per (set, seed, workload),
each with another seed, and reports for every end-to-end metric the median
and quartiles over the seeds, the spread (q3 - q1) / median against the
metric's bound, and how far the second set's median moved from the first's
in the metric's worse direction. Then makes two traced runs per workload
and checks that their exact per-layer counts are identical. Writes the
record to hostbench/STEADINESS.md (--out to change), keeping the
hand-written notes that start at its "## Noise-control evidence" heading.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Per-layer counts that must repeat exactly (run.py cross-checks rounds
# within a run; this checks two runs against each other).
EXACT = ("sim.events", "sim.quanta", "sim.boundary_packets",
         "machine.subcache_misses", "machine.localcache_misses",
         "machine.ring_requests", "machine.ring_nacks",
         "machine.invalidations", "machine.snarfs", "machine.dir_requests",
         "machine.dir_nacks", "net.ring_busy_ppm", "net.inject_wait_ns",
         "net.cross_leaf_ppm", "sync.lock_ops", "sync.barrier_episodes",
         "nas.simulated_s", "ckpt.image_bytes", "serve.requests",
         "serve.executed", "serve.stores", "serve.load_errors",
         "serve.failures", "serve.hit_ratio_ppm")


NOTES_HEADING = "## Noise-control evidence"


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=900)
    elapsed = time.time() - t0
    if p.returncode != 0:
        raise SystemExit("%s seed %d trace %d exited %d" %
                         (workload, seed, trace, p.returncode))
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit("%s seed %d trace %d not correct:\n%s" %
                         (workload, seed, trace, p.stdout))
    return out, elapsed


def worse_shift(m1, m2, better):
    """Relative change from m1 to m2, positive when m2 is worse."""
    if m1 == 0:
        return 0.0
    d = (m2 - m1) / m1
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", type=int, default=2,
                    help="traced runs per workload (0 to skip)")
    ap.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    ap.add_argument("--json", default="",
                    help="also dump every run's output to this file")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in a.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    e2e = spec["end_to_end"]

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in e2e} for w in workloads}
              for _ in range(a.sets)]
    elapsed = {w: [] for w in workloads}
    dump = []
    for s in range(a.sets):
        for i in range(a.seeds):
            seed = a.seed_base + 1000 * s + i
            for w in workloads:
                out, dt = run_once(spec, w, seed, 0)
                elapsed[w].append(dt)
                dump.append({"set": s, "workload": w, "seed": seed,
                             "trace": 0, "elapsed_s": dt, "out": out})
                for m in e2e:
                    values[s][w][m["name"]].append(
                        out["metrics"][m["name"]]["value"])
                print("set %d seed %d %-16s %5.1fs wall_s=%.4g" %
                      (s, seed, w, dt, out["metrics"]["wall_s"]["value"]),
                      flush=True)

    traced = {w: [] for w in workloads}
    for w in workloads:
        for _ in range(a.traced):
            out, dt = run_once(spec, w, a.seed_base, 1)
            dump.append({"workload": w, "seed": a.seed_base, "trace": 1,
                         "elapsed_s": dt, "out": out})
            traced[w].append(out["metrics"])
            print("traced %-16s %5.1fs" % (w, dt), flush=True)

    lines = ["# Steadiness record", "",
             "Produced by `python3 hostbench/steady.py --seeds %d --sets %d` "
             "(run_seconds %d). Spread = (q3 - q1) / median over the seeds of "
             "one set; shift = change of the second set's median against "
             "the first, positive = worse. Each run is a fresh process." %
             (a.seeds, a.sets, spec["run_seconds"]), ""]
    ok = True
    for w in workloads:
        lines += ["## %s" % w, "",
                  "mean elapsed per run %.1f s" % statistics.mean(elapsed[w]),
                  "",
                  "| metric | unit | set | q1 | median | q3 | spread | bound |"
                  " shift |", "|---|---|---|---|---|---|---|---|---|"]
        for m in e2e:
            meds = []
            for s in range(a.sets):
                q1, med, q3 = stats.quartiles(values[s][w][m["name"]])
                meds.append(med)
                spread = (q3 - q1) / med if med else 0.0
                shift = (worse_shift(meds[0], med, m["better"])
                         if s > 0 else 0.0)
                flag = ""
                if spread > m["bound"]:
                    flag, ok = " OVER", False
                elif spread > m["bound"] / 3:
                    flag = " (>1/3)"
                if shift > m["bound"]:
                    flag, ok = flag + " SHIFT", False
                lines.append("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f%s | "
                             "%.2f | %s |" %
                             (m["name"], m["unit"], s + 1, q1, med, q3, spread,
                              flag, m["bound"],
                              "%+.3f" % shift if s > 0 else "-"))
        if traced[w]:
            runs = traced[w]
            diff = [k for k in EXACT
                    if len({r.get(k, {}).get("value") for r in runs}) > 1]
            overhead = [r["obs.trace_overhead_ppm"]["value"] for r in runs
                        if "obs.trace_overhead_ppm" in r]
            lines += ["", "traced runs: %d; exact counts %s; "
                      "obs.trace_overhead_ppm %s" %
                      (len(runs),
                       "identical" if not diff else "DIFFER: " + ", ".join(diff),
                       ", ".join("%.0f" % v for v in overhead))]
            ok = ok and not diff
        lines.append("")
    # Hand-written notes from NOTES_HEADING on survive a re-run.
    notes = ""
    if os.path.exists(a.out):
        with open(a.out) as f:
            old = f.read()
        if NOTES_HEADING in old:
            notes = old[old.index(NOTES_HEADING):]
    with open(a.out, "w") as f:
        f.write("\n".join(lines) + ("\n" + notes if notes else ""))
    if a.json:
        with open(a.json, "w") as f:
            json.dump(dump, f)
    print("\n".join(lines))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
