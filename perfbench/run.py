#!/usr/bin/env python3
"""The repository benchmark: host cost and modeled protocol time per run.

Builds the driver (perfbench/driver.cc, linked against the simulator's
sources in src/) and runs one workload on a 2-node x 2-processor machine:

    python3 perfbench/run.py --workload dsm-orig --seed 1 --seconds 25 --trace 0

Every invocation times untraced passes for --seconds; --trace 0 reports the
end-to-end metrics from them. --trace 1 adds a traced pass set and a
paper-cost pass set and reports the per-layer metrics, with the untraced
passes as the base of trace.overhead. --workload all does both for every
workload and prints every metric. Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. perfbench/README.md lists the metrics and what each
should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("dsm-orig", "dsm-thread", "mpi")
PROCESSES = 5          # driver processes per run, each --seconds / 5 long
SETUPS = 5             # runtime construct+destroy samples per process
TRACED_PASSES = 3      # traced passes folded into the per-layer metrics
PAPER_PASSES = 3       # passes at the paper's cpu_scale (the sim layer)
PAPER_CPU_SCALE = 500.0
# A workload's driver runs must end within --seconds plus this; a driver
# still running then (a hang) is stopped and its run in flight fails.
SLACK_S = 120

# name -> unit, for the end-to-end metrics (--trace 0).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_ms": "ms",
}

# StatsSnapshot counter -> per-layer metric name.
COUNTERS = {
    "page_faults": "tmk.page_faults",
    "mprotect": "tmk.mprotect",
    "twins": "tmk.twins",
    "diffs_created": "tmk.diffs_created",
    "diffs_applied": "tmk.diffs_applied",
    "diff_bytes_created": "tmk.diff_bytes_created",
    "intervals": "tmk.intervals",
    "write_notices_sent": "tmk.write_notices_sent",
    "page_invalidations": "tmk.invalidations",
    "barriers": "tmk.barriers",
    "lock_acquires": "tmk.lock_acquires",
    "lock_remote_acquires": "tmk.lock_remote_acquires",
    "msgs_sent": "net.msgs",
    "bytes_sent": "net.bytes",
    "msgs_offnode": "net.msgs_offnode",
    "bytes_offnode": "net.bytes_offnode",
    "contention_stage_waits": "net.contention_waits",
    "coll_stages": "net.coll_stages",
}

# name -> unit, for the per-layer metrics (--trace 1).
PER_LAYER = {
    "apps.seq_s": "s",
    "apps.checksum_err_max": "ratio",
    "core.regions": "count",
    "host.vol_csw": "count",
    "host.sys_s": "s",
    "host.minflt": "count",
    "host.user_s": "s",
    "tmk.fault_svc_ms": "ms",
    "tmk.sync_wait_ms": "ms",
    "net.lat_mean_us": "us",
    "sim.modeled_paper_ms": "ms",
    "sim.modeled_paper_spread": "ratio",
    "trace.events": "count",
    "trace.dropped": "count",
    "trace.overhead": "ratio",
}
PER_LAYER.update({name: "bytes" if "bytes" in name else "count"
                  for name in COUNTERS.values()})


class BuildError(Exception):
    pass


def build(root):
    """Configure and build the driver; return (driver, omsp-trace) paths."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BuildError("simulator sources (src/) not found beside perfbench/")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    steps = [["cmake", "--build", out, "-j4"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BuildError("build step failed: " + " ".join(cmd))
    return (os.path.join(out, "omsp_perf"),
            os.path.join(out, "omsp", "trace", "omsp-trace"))


def child_env():
    # The simulator reads OMSP_* overrides (topology, transport, tracing,
    # race detection) at construction; the benchmark pins its configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("OMSP_")}


class Tally:
    """Runs attempted and failed over one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0

    def add(self, ok, err=0.0):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.err_max = max(self.err_max, err)


def drive(driver, tally, deadline, workload, seed, *args):
    """Run the driver once; return its records. Every run record counts in
    the tally. An abort (OMSP_CHECK), or a driver stopped at the deadline,
    counts the run in flight as failed."""
    cmd = [driver, "--workload", workload, "--seed", str(seed)]
    cmd += [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
        out, status = proc.stdout, f"exited with {proc.returncode}"
        ended = proc.returncode == 0
    except subprocess.TimeoutExpired as e:
        out, status, ended = e.stdout or "", "stopped at the deadline", False
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # the last line of a driver stopped mid-write
    for r in records:
        if r["span"] == "run":
            tally.add(r["ok"], r["checksum_err"])
    if not ended or not records or records[-1]["span"] != "end":
        print(f"driver {status}: {' '.join(cmd)}", file=sys.stderr)
        tally.add(False)
    return records


def spans(records, kind, warmup=False):
    return [r for r in records
            if r["span"] == kind and r.get("warmup", False) == warmup]


def high_percentile(values):
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def describe(name, values, unit):
    med = statistics.median(values)
    text = f"  {name:26s} {med:14.6g} {unit:6s} median"
    hp = high_percentile(values)
    if hp is not None:
        text += f", p{hp[0]:g} {hp[1]:.6g}"
    return text + f" (n={len(values)})"


# --- --trace 0: end-to-end --------------------------------------------------


def end_to_end(recs, workload, seed):
    passes = spans(recs, "pass")
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["user_s"] + p["sys_s"] for p in passes],
        "setup_s": [s["wall_s"] / s["count"] for s in spans(recs, "setup")],
        "peak_rss_mb": [r["peak_rss_mb"] for r in recs if r["span"] == "end"],
        "modeled_ms": [p["modeled_ms"] for p in passes],
    }
    print(f"{workload} seed {seed}: end-to-end, untraced")
    metrics = {}
    for name, unit in END_TO_END.items():
        if samples[name]:
            print(describe(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}
    return metrics


# --- --trace 1: per layer ---------------------------------------------------


def omsp_trace(tool, cmd, path):
    proc = subprocess.run([tool, cmd, path], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=child_env())
    return proc.returncode, proc.stdout.splitlines()


def fold_trace(tool, path):
    """Fold `omsp-trace summary` and `threads` for one traced run. Returns
    None when the trace drops events or fails the trace/counter audit."""
    rc, lines = omsp_trace(tool, "summary", path)
    if rc != 0 or not lines:
        return None
    head = lines[0].split()
    out = {"events": int(head[0]), "dropped": int(head[2]), "regions": 0,
           "lat_sum": 0.0, "msgs": 0, "fault_us": 0.0, "sync_us": 0.0}
    table = None
    for line in lines[1:]:
        cols = line.split()
        if not cols:
            table = None
        elif len(cols) > 1 and cols[1] in ("count", "events"):
            table = cols[0]  # a table header: event, message or context
        elif table == "event" and cols[0] == "region_begin":
            out["regions"] = int(cols[1])
        elif table == "message":
            out["msgs"] += int(cols[1])
            out["lat_sum"] += int(cols[1]) * float(cols[7])
    rc, lines = omsp_trace(tool, "threads", path)
    if rc != 0:
        return None
    for line in lines:
        cols = line.split()
        if len(cols) == 8 and cols[0].isdigit():
            out["fault_us"] += float(cols[4])
            out["sync_us"] += float(cols[5])
    return out if out["dropped"] == 0 else None


def per_layer(driver, tool, tally, deadline, workload, seed, base, trace_dir):
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced = drive(driver, tally, deadline, workload, seed,
                   "--passes", TRACED_PASSES, "--trace-dir", trace_dir)
    paper = drive(driver, tally, deadline, workload, seed,
                  "--passes", PAPER_PASSES, "--cpu-scale", PAPER_CPU_SCALE)

    per_pass = {}  # pass -> metric -> value summed over the pass's runs
    for run in spans(traced, "run"):
        folded = fold_trace(tool, run["trace"])
        if folded is None:
            print(f"traced run rejected (dropped events or audit failure): "
                  f"{run['trace']}", file=sys.stderr)
            tally.add(False)
            continue
        m = per_pass.setdefault(run["pass"], {})

        def add(name, value):
            m[name] = m.get(name, 0) + value

        for counter, name in COUNTERS.items():
            add(name, run["stats"][counter])
        for key in ("user_s", "sys_s", "minflt", "vol_csw"):
            add("host." + key, run[key])
        add("core.regions", folded["regions"])
        add("tmk.fault_svc_ms", folded["fault_us"] / 1000)
        add("tmk.sync_wait_ms", folded["sync_us"] / 1000)
        add("trace.events", folded["events"])
        add("trace.dropped", folded["dropped"])
        add("lat_sum", folded["lat_sum"])
        add("lat_msgs", folded["msgs"])
    for m in per_pass.values():
        m["net.lat_mean_us"] = m.pop("lat_sum") / max(1, m.pop("lat_msgs"))

    samples = {}
    for m in per_pass.values():
        for name, value in m.items():
            samples.setdefault(name, []).append(value)
    samples["apps.seq_s"] = [sum(s["wall_s"] for s in spans(traced, "seq"))]
    samples["apps.checksum_err_max"] = [tally.err_max]
    traced_walls = [p["wall_s"] for p in spans(traced, "pass")]
    base_walls = [p["wall_s"] for p in spans(base, "pass")]
    if traced_walls and base_walls:
        samples["trace.overhead"] = [statistics.median(traced_walls) /
                                     statistics.median(base_walls)]
    paper_ms = [p["modeled_ms"] for p in spans(paper, "pass")]
    if paper_ms:
        med = statistics.median(paper_ms)
        samples["sim.modeled_paper_ms"] = [med]
        samples["sim.modeled_paper_spread"] = [(max(paper_ms) - min(paper_ms)) / med]

    print(f"{workload} seed {seed}: per layer, {len(per_pass)} traced passes")
    metrics = {}
    for name in sorted(PER_LAYER):
        if name in samples:
            print(describe(name, samples[name], PER_LAYER[name]))
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": PER_LAYER[name]}
    print("  sim.modeled_paper_spread by app (max-min)/median over "
          f"{PAPER_PASSES} passes at cpu_scale {PAPER_CPU_SCALE:g}:")
    runs_ms = {}
    for run in spans(paper, "run"):
        runs_ms.setdefault(run["app"], []).append(run["modeled_us"] / 1000)
    by_app = {}
    for app, ms in runs_ms.items():
        med = statistics.median(ms)
        by_app[app] = {"modeled_paper_ms": med,
                       "spread": (max(ms) - min(ms)) / med}
        print(f"    {app:10s} {med:12.3f} ms  spread {by_app[app]['spread']:.4f}")
    return metrics, by_app


def run_workload(driver, tool, workload, seed, seconds, e2e, layers):
    """Run one workload: the untraced passes, and for the per-layer metrics
    the traced and paper-cost passes too. Returns (tally, metrics, the
    per-app paper-cost spread)."""
    tally = Tally()
    deadline = time.monotonic() + seconds + SLACK_S
    # Thread placement and memory layout differ from process to process and
    # move a pass's wall time by several percent; medians over a few
    # processes average that out.
    untraced = []
    for _ in range(PROCESSES):
        untraced += drive(driver, tally, deadline, workload, seed,
                          "--seconds", seconds / PROCESSES, "--setups", SETUPS)
    metrics, by_app = {}, {}
    if e2e:
        metrics.update(end_to_end(untraced, workload, seed))
    if layers:
        trace_dir = os.path.join(os.path.dirname(driver), "traces", workload)
        found, by_app = per_layer(driver, tool, tally, deadline, workload,
                                  seed, untraced, trace_dir)
        metrics.update(found)
    print(f"{workload} seed {seed}:\n  {'runs_failed':26s} "
          f"{tally.failed / max(1, tally.attempted):14.6g} share  "
          f"({tally.failed} of {tally.attempted} runs)")
    return tally, metrics, by_app


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        driver, tool = build(root)
    except BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    every = args.workload == "all"
    attempted = failed = 0
    metrics = {}
    for w in WORKLOADS if every else (args.workload,):
        tally, found, _ = run_workload(driver, tool, w, args.seed, args.seconds,
                                       every or args.trace == 0,
                                       every or args.trace == 1)
        attempted += tally.attempted
        failed += tally.failed
        prefix = w + "." if every else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    # No run at all counts as one failed run, never as a correct result.
    if attempted == 0:
        attempted = failed = 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
