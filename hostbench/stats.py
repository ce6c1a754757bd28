"""Aggregation for the host-time benchmark: raw rounds -> metrics.

The C++ benchmark binary (hostbench/src) prints raw measurements; this module turns
them into the end-to-end and per-layer metrics named in BENCHMARK.json and
applies the benchmark's own checks. Pure functions, unit-tested by
test_stats.py.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Busy host threads a workload may keep (2 workers, 2 sim threads or 2
# clients); cpu/wall above this plus accounting slack means a third thread.
MAX_BUSY_THREADS = 2
BUSY_SLACK = 0.25

# Largest share of a batch's pinned events one job may carry.
MAX_JOB_SHARE = 0.20

# The preset share must keep p50 inside the plain hits and p90 inside the
# preset hits, each at least this far (as a fraction of all hits) from the
# boundary between the two classes.
PRESET_MARGIN = 0.05

def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p < 100), or None when fewer than
    MIN_BEYOND samples lie strictly beyond its rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_preset_share(hits):
    """hits: [(latency_us, is_preset)]. Returns an error string or None.

    hit_p50 must fall among plain hits and hit_p90 among preset hits, away
    from the boundary: the preset share of hits must lie in
    [0.10 + margin, 0.50 - margin], and the samples at the two ranks must be
    of the expected class.
    """
    n = len(hits)
    if n == 0:
        return "no cache hits"
    preset = sum(1 for _, is_preset in hits if is_preset)
    share = preset / n
    lo, hi = 0.10 + PRESET_MARGIN, 0.50 - PRESET_MARGIN
    if not lo <= share <= hi:
        return "preset share of hits %.3f outside [%.2f, %.2f]" % (share, lo, hi)
    ranked = sorted(hits)
    for p, want in ((50, False), (90, True)):
        rank = max(1, math.ceil(p / 100.0 * n))
        if ranked[rank - 1][1] != want:
            return "hit p%d falls among %s hits" % (
                p, "preset" if ranked[rank - 1][1] else "plain")
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def check_raw(raw):
    """The benchmark's own checks on one run. Returns a list of reasons."""
    problems = []
    for i, r in enumerate(raw["rounds"]):
        if r["wall_s"] > 0 and r["cpu_s"] / r["wall_s"] > MAX_BUSY_THREADS + BUSY_SLACK:
            problems.append("round %d kept %.2f threads busy" %
                            (i + 1, r["cpu_s"] / r["wall_s"]))
    if raw["workload"] in ("nas-sweep", "sync-contention"):
        costs = [c for _, c in raw["order"]]
        if any(b > a for a, b in zip(costs, costs[1:])):
            problems.append("batch not ordered longest first")
        total = sum(costs)
        if total and max(costs) / total > MAX_JOB_SHARE:
            problems.append("one job carries %.0f%% of the batch" %
                            (100.0 * max(costs) / total))
    if raw["workload"] == "serve-replay":
        hits = [tuple(h) for r in raw["rounds"] for h in r["hits_us"]]
        err = check_preset_share(hits)
        if err:
            problems.append(err)
    return problems


def warm_rounds(rounds):
    """Rounds that count: the first warms caches and the allocator and is
    left out when at least two others remain."""
    return rounds[1:] if len(rounds) >= 3 else rounds


def end_to_end(raw):
    rounds = warm_rounds(raw["rounds"])
    walls = [r["wall_s"] for r in rounds]
    return {
        "setup_s": _median(raw["setup_s"]),
        "wall_s": _median(walls),
        "cpu_s": _median([r["cpu_s"] for r in rounds]),
        "events_per_s": _median([r["events"] / r["wall_s"] for r in rounds]),
        "jobs_per_s": _median([r["jobs"] / r["wall_s"] for r in rounds]),
    }


def serve_latencies(rounds):
    """hit p50/p90 (us) and miss p50/p90 (ms) over the given rounds; a
    percentile without 10 samples beyond it is left out."""
    hits = [h[0] for r in rounds for h in r["hits_us"]]
    misses = [m for r in rounds for m in r["misses_us"]]
    out = {}
    for name, vals, p, scale in (("hit_p50_us", hits, 50, 1.0),
                                 ("hit_p90_us", hits, 90, 1.0),
                                 ("miss_p50_ms", misses, 50, 1e-3),
                                 ("miss_p90_ms", misses, 90, 1e-3)):
        v = percentile(vals, p)
        if v is not None:
            out[name] = v * scale
    return out, len(hits), len(misses)


def per_layer(raw, names):
    """Every per-layer metric in `names`; layers a workload does not use
    read 0."""
    rounds = raw["rounds"]
    traced = [r for r in rounds if r["traced"]]
    out = {n: 0.0 for n in names}
    out.update(raw["exact"])
    keys = set()
    for r in traced:
        keys.update(r["host"])
    for k in keys:
        out[k] = _median([r["host"][k] for r in traced if k in r["host"]])
    out.update(raw["probes"])
    out["host.peak_rss_mb"] = raw["peak_rss_mb"]
    if "ckpt.capture" in raw["setup_layers"]:
        out["ckpt.capture_s"] = raw["setup_layers"]["ckpt.capture"]
    if raw["workload"] == "serve-replay":
        lat, _, _ = serve_latencies(traced)
        for k in ("hit_p50_us", "hit_p90_us", "miss_p50_ms", "miss_p90_ms"):
            if k in lat:
                out["serve." + k] = lat[k]
            else:
                out.pop("serve." + k)  # too few samples beyond it
    overhead = trace_overhead(rounds)
    if overhead is not None:
        out["obs.trace_overhead_ppm"] = overhead * 1e6
    return {k: v for k, v in out.items() if k in names}


def trace_overhead(rounds):
    """Median over traced rounds of wall_s / mean wall_s of the adjacent
    untraced rounds, minus 1; None without a pair. Pairing neighbours keeps
    slow host drift out of the ratio. The first round (cold) is no
    neighbour."""
    ratios = []
    for i, r in enumerate(rounds):
        if not r["traced"]:
            continue
        near = [rounds[j]["wall_s"] for j in (i - 1, i + 1)
                if 0 < j < len(rounds) and not rounds[j]["traced"]]
        if near and sum(near) > 0:
            ratios.append(r["wall_s"] * len(near) / sum(near))
    return _median(ratios) - 1.0 if ratios else None


def self_times(rounds):
    """Median self time per span layer over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    layers = set()
    for r in traced:
        layers.update(r["self_s"])
    return {k: _median([r["self_s"].get(k, 0.0) for r in traced])
            for k in layers}
