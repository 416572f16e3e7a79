#!/usr/bin/env python3
"""Steadiness record for the repository benchmark.

Runs every workload once per seed, seeds 1 to 10, for BENCHMARK.json's
run_seconds each, as `perfbench/run.py --trace 0` does, and reports for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) / median
over the seeds, next to the bound BENCHMARK.json allows. The first seed's run
also takes the per-layer passes, which record sim.modeled_paper_spread per
app: the baseline that deterministic virtual time (ROADMAP item 1) must drive
to 0.

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

Run it from the repository root. It takes about 17 minutes. It exits 1 when
a run fails or a spread other than setup_s's exceeds its bound, and marks a
spread above a third of its bound.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEEDS = range(1, 11)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the record as JSON here")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    driver, tool = bench.build(os.getcwd())
    record = {"seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    steady = True
    for w in bench.WORKLOADS:
        entry = {"failed": 0, "attempted": 0, "metrics": {}}
        samples = {name: [] for name in bench.END_TO_END}
        for seed in SEEDS:
            tally, metrics, by_app = bench.run_workload(
                driver, tool, w, seed, seconds, True, seed == SEEDS[0])
            entry["failed"] += tally.failed
            entry["attempted"] += tally.attempted
            for name in samples:
                samples[name].append(metrics[name]["value"])
            if by_app:
                entry["modeled_paper_spread_by_app"] = by_app
        print(f"{w}: {entry['failed']} of {entry['attempted']} runs failed")
        steady = steady and entry["failed"] == 0
        for name, values in samples.items():
            s = summarize(values)
            s["bound"] = bounds[name]
            entry["metrics"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > s["bound"]:
                flag = "  <-- above its bound"
                steady = False
            elif s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}{flag}")
        record["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
