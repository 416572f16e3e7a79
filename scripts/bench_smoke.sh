#!/usr/bin/env bash
# Bench smoke: run the evaluation benches at CI problem sizes, merge their
# machine-readable rows into BENCH_pr10.json, and fail if message counts
# drifted vs the committed baseline under the default (inline, synchronous)
# transport. The JSON names the canonical config string the runs used
# ("config", tmk::Config::to_string). Each bench row also records its host
# WALL-CLOCK seconds ("wall_clock_s") — modeled results answer "is the
# simulation right", the wall-clock column answers "how long does the
# simulator itself take". The diff-kernel microbenchmarks (scalar vs SIMD
# create, apply, twin copy) are folded in under "micro_diff_kernels" when
# bench/micro_dsm is built.
#
#   scripts/bench_smoke.sh [--build-dir <dir>] [--out <file>] [--update-baseline]
#
# Drift policy (see the probe notes in tests/tmk/overlap_test.cc): MPI
# message counts are a pure function of the modeled algorithm and must match
# the baseline EXACTLY. SDSM (OpenMP/orig + OpenMP/thread) counts depend on
# host-scheduling races between fault-time fetches and concurrent interval
# flushes, so they get a +/-25% band — wide enough never to flake, tight
# enough to catch a protocol regression that doubles traffic. TSP's SDSM
# rows are exempt entirely: its branch-and-bound pruning makes message
# counts vary by orders of magnitude run to run.
#
# Baselines are keyed by topology spec AND collective engine
# (bench/bench_smoke_baseline.json maps "sp2", "flat:64x4", "sp2+coll=tree",
# ... to their own table2 rows), so the exact no-loss 4x4 baseline survives
# sweeps over larger machines or coll=tree: a run is compared only against
# ITS key's baseline and fails loudly if none is committed yet.
#
# The beyond-the-SP2 scalability sweep (speedup_curve --scale) runs under
# seeds 1-3; its MPI curves are bit-deterministic per seed (per-link loss
# schedules, named-source SOR), which the script proves by running seed 1
# twice and comparing the MPI subtree exactly.
set -euo pipefail

BUILD_DIR=build
OUT=BENCH_pr10.json
UPDATE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --out) OUT=$2; shift 2 ;;
    --update-baseline) UPDATE=1; shift ;;
    *) echo "usage: $0 [--build-dir <dir>] [--out <file>] [--update-baseline]" >&2
       exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
BASELINE=bench/bench_smoke_baseline.json

command -v python3 >/dev/null || { echo "bench_smoke: python3 required" >&2; exit 1; }
for b in table2_traffic fig1_speedup speedup_curve; do
  [ -x "$BUILD_DIR/bench/$b" ] || {
    echo "bench_smoke: $BUILD_DIR/bench/$b not built" >&2; exit 1; }
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Default transport only: the drift check certifies the bit-for-bit seed
# configuration, so a caller's OMSP_CONFIG may select the machine shape
# (topo) and the collective engine (coll) — legitimate sweeps, each checked
# against its own baseline key — and nothing else.
IFS=';' read -ra entries <<< "${OMSP_CONFIG:-}"
for e in "${entries[@]}"; do
  case "${e%%=*}" in
    topo|coll) ;;
    *) echo "bench_smoke: OMSP_CONFIG may set only topo and coll, got '$e'" >&2
       exit 1 ;;
  esac
done
RACE_CONFIG="${OMSP_CONFIG:+$OMSP_CONFIG;}race=page"

# The no-loss baseline must not engage the reliability layer at all: zero
# losses, zero retransmissions, zero acks (and therefore zero extra wire
# bytes — the inline seed path is byte-for-byte unchanged). Audited from a
# recorded trace so the check covers the same counters CI reconciles.
if [ -x "$BUILD_DIR/src/trace/omsp-trace" ]; then
  echo "== no-loss reliability invariant =="
  "$BUILD_DIR/src/trace/omsp-trace" record sor -o "$TMP/noloss" >/dev/null
  for c in msgs_lost retransmits acks_sent; do
    n=$("$BUILD_DIR/src/trace/omsp-trace" check "$TMP/noloss.trace" \
        | awk -v c="$c" '$1 == c { print $2 }')
    if [ "$n" != "0" ]; then
      echo "bench_smoke: no-loss baseline has $c=$n, want 0" >&2
      exit 1
    fi
  done
  echo "no-loss baseline: zero losses/retransmits/acks"
fi

# Race-detector invariant: the default baseline is race-clean, and switching
# the detector on leaves the message counts unchanged — the detector rides
# the existing diff/flush traffic and adds zero messages of its own. The
# digest's exit code asserts cleanliness (0 = sweeps ran, nothing found);
# the count check reuses the drift policy below on a detector-on table2 run
# (MPI exact — the detector never touches mini-MPI — SDSM within the band).
if [ -x "$BUILD_DIR/src/trace/omsp-trace" ]; then
  echo "== race-detector invariant (race=page) =="
  OMSP_CONFIG="$RACE_CONFIG" "$BUILD_DIR/src/trace/omsp-trace" record sor \
      -o "$TMP/race_sor" >/dev/null
  "$BUILD_DIR/src/trace/omsp-trace" races "$TMP/race_sor.trace" || {
    echo "bench_smoke: default baseline is not race-clean" >&2; exit 1; }
fi
echo "== table2_traffic --smoke, detector on =="
OMSP_CONFIG="$RACE_CONFIG" "$BUILD_DIR/bench/table2_traffic" --smoke \
    --json "$TMP/table2_race.json"

# Host wall-clock per bench (host-side optimizations move this column;
# modeled numbers in the same rows must not move at all).
wallclock() { # wallclock <name> <cmd...>
  local name=$1; shift
  local t0 t1
  t0=$(date +%s.%N)
  "$@"
  t1=$(date +%s.%N)
  printf '%s %s\n' "$name" "$(echo "$t0 $t1" | awk '{printf "%.3f", $2-$1}')" \
      >> "$TMP/wallclock.txt"
}
: > "$TMP/wallclock.txt"

echo "== table2_traffic --smoke =="
wallclock table2_traffic \
    "$BUILD_DIR/bench/table2_traffic" --smoke --json "$TMP/table2.json"
echo "== fig1_speedup --smoke =="
wallclock fig1_speedup \
    "$BUILD_DIR/bench/fig1_speedup" --smoke --json "$TMP/fig1.json"

echo "== speedup_curve --scale (seeds 1-3) =="
for s in 1 2 3; do
  wallclock "speedup_curve_seed$s" \
      "$BUILD_DIR/bench/speedup_curve" --smoke --scale --seed "$s" \
      --json "$TMP/scale_seed$s.json" > "$TMP/scale_seed$s.txt"
done
# Determinism proof: the seed-1 MPI curves must be bit-identical on a rerun.
"$BUILD_DIR/bench/speedup_curve" --smoke --scale --seed 1 \
    --json "$TMP/scale_seed1_rerun.json" >/dev/null

# Diff-kernel microbenches (host nanoseconds): scalar vs SIMD create, the
# checked apply vs the reference loop, the twin copy. Medians over 5
# repetitions with random interleaving so the scalar/SIMD ratio is robust to
# frequency drift.
if [ -x "$BUILD_DIR/bench/micro_dsm" ]; then
  echo "== micro_dsm diff kernels =="
  "$BUILD_DIR/bench/micro_dsm" \
      --benchmark_filter='BM_Diff|BM_Twin' \
      --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json > "$TMP/micro.json"
fi

python3 - "$TMP" "$OUT" "$BASELINE" "$UPDATE" <<'EOF'
import json, os, sys

tmp, out_path, baseline_path, update = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"

table2 = json.load(open(f"{tmp}/table2.json"))
table2_race = json.load(open(f"{tmp}/table2_race.json"))
fig1 = json.load(open(f"{tmp}/fig1.json"))
config = table2["config"]
# The canonical string always names topo and names coll only when it is not
# central, so the key is "<topo>" or "<topo>+coll=<engine>".
entries = dict(e.split("=", 1) for e in config.split(";"))
key = entries["topo"] + (f"+coll={entries['coll']}" if "coll" in entries else "")

scale = {}
for s in (1, 2, 3):
    scale[f"seed{s}"] = json.load(open(f"{tmp}/scale_seed{s}.json"))

# Scalability determinism: the MPI subtree is a pure function of the seed.
rerun = json.load(open(f"{tmp}/scale_seed1_rerun.json"))
if scale["seed1"]["curves"]["mpi"] != rerun["curves"]["mpi"]:
    print("speedup_curve --scale --seed 1: MPI curves differ between runs "
          "(expected bit-identical)", file=sys.stderr)
    sys.exit(1)
print("scale sweep: seed-1 MPI curves bit-identical across runs")

# Hierarchical-collectives acceptance: on the 64- and 256-node fat trees the
# tree engine's modeled barrier and 64 KB allreduce must beat the
# centralized/flat engine strictly; the 8-byte column keeps the size
# crossover visible (flat wins the small-message star at 32/128 ranks).
colls = scale["seed1"]["curves"]["collectives"]
for shape in ("fat:2x8x2", "fat:2x16x2"):
    row = colls[shape]
    if not row["barrier_tree_us"] < row["barrier_central_us"]:
        print(f"{shape}: tree barrier {row['barrier_tree_us']} !< "
              f"central {row['barrier_central_us']}", file=sys.stderr)
        sys.exit(1)
    if not row["allreduce64k_tree_us"] < row["allreduce64k_flat_us"]:
        print(f"{shape}: tree 64K allreduce {row['allreduce64k_tree_us']} !< "
              f"flat {row['allreduce64k_flat_us']}", file=sys.stderr)
        sys.exit(1)
small = colls["fat:2x4x2"]
if not small["allreduce8_flat_us"] < small["allreduce8_tree_us"]:
    print("fat:2x4x2: expected the flat star to win the 8-byte allreduce "
          "(size crossover)", file=sys.stderr)
    sys.exit(1)
print("collectives: tree beats central/flat at 64 and 256 nodes "
      "(barrier + 64K allreduce); 8-byte crossover intact")

# Saturation-shape invariant (per-stage congestion): the cross-switch shift
# permutation must saturate the fat trees' spine trunks strictly before the
# edge NICs (which see only residual reply holds), the flat crossbars must
# never queue a permutation or an incast (private per-node ports), and
# pointing every sender at rank 0 must drag the hot receiver's edge downlink
# into the queueing beyond the permutation's residual level.
incast = scale["seed1"]["curves"]["incast"]
for shape in ("fat:2x8x1", "fat:2x16x1"):
    sh = incast[f"{shape}/shift"]
    if not sh["spine_wait_us"] > sh["edge_wait_us"] > 0:
        print(f"{shape}/shift: expected spine wait {sh['spine_wait_us']} > "
              f"edge wait {sh['edge_wait_us']} > 0 (spine saturates first)",
              file=sys.stderr)
        sys.exit(1)
# The hot-downlink signature needs enough senders to outrun the spine's
# absorption: at 64 nodes the upstream trunk queues delay arrivals enough
# that the shared downlink rarely blocks, so the check is 256-node only.
inc = incast["fat:2x16x1/incast"]
sh = incast["fat:2x16x1/shift"]
if not inc["edge_wait_us"] > sh["edge_wait_us"]:
    print(f"fat:2x16x1: incast edge wait {inc['edge_wait_us']} !> shift "
          f"edge wait {sh['edge_wait_us']} (hot downlink)", file=sys.stderr)
    sys.exit(1)
for shape in ("flat:64x1", "flat:256x1"):
    for pat in ("shift", "incast"):
        row = incast[f"{shape}/{pat}"]
        if row["edge_wait_us"] != 0 or row["spine_wait_us"] != 0:
            print(f"{shape}/{pat}: crossbar queued (edge "
                  f"{row['edge_wait_us']}, spine {row['spine_wait_us']}), "
                  f"expected private ports", file=sys.stderr)
            sys.exit(1)
print("saturation shape: fat-tree spine saturates before edge NICs at 64 and "
      "256 nodes; crossbars never queue; incast lights the hot edge downlink")

# Host wall-clock per bench run, written by the wallclock() wrapper.
wall = {}
try:
    for line in open(f"{tmp}/wallclock.txt"):
        name, secs = line.split()
        wall[name] = float(secs)
except FileNotFoundError:
    pass

# Diff-kernel microbench medians + scalar/SIMD throughput ratios.
micro = None
if os.path.exists(f"{tmp}/micro.json"):
    raw = json.load(open(f"{tmp}/micro.json"))
    med, label = {}, {}
    for b in raw["benchmarks"]:
        if b.get("aggregate_name") == "median":
            med[b["run_name"]] = b["real_time"]
            if b.get("label"):
                label[b["run_name"]] = b["label"]
    def ratio(a, b):
        return round(med[a] / med[b], 2) if a in med and b in med else None
    micro = {
        "kernel": label.get("BM_DiffCreate/5", "unknown"),
        "median_ns": {k: round(v, 1) for k, v in sorted(med.items())},
        "create_scalar_over_simd": {
            f"{p}pct": ratio(f"BM_DiffCreateScalar/{p}", f"BM_DiffCreate/{p}")
            for p in (0, 5, 25, 100)},
        "apply_prepr_over_new": {
            f"{p}pct": ratio(f"BM_DiffApplyRef/{p}", f"BM_DiffApply/{p}")
            for p in (5, 25, 100)},
    }
    c5 = micro["create_scalar_over_simd"]["5pct"]
    c25 = micro["create_scalar_over_simd"]["25pct"]
    if micro["kernel"] != "portable64" and (c5 is None or c5 < 2.0
                                            or c25 is None or c25 < 2.0):
        print(f"micro_dsm: SIMD create speedup below 2x on sparse pages "
              f"(5%: {c5}, 25%: {c25})", file=sys.stderr)
        sys.exit(1)
    print(f"diff kernels [{micro['kernel']}]: create scalar/SIMD "
          f"5%={c5}x 25%={c25}x")

merged = {
    "generated_by": "scripts/bench_smoke.sh",
    "config": config,
    "wall_clock_s": wall,
    "micro_diff_kernels": micro,
    "table2_traffic": table2,
    "table2_traffic_race_on": table2_race,
    "fig1_speedup": fig1,
    "speedup_curve_scale": scale,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")

if update:
    try:
        baselines = json.load(open(baseline_path))
    except FileNotFoundError:
        baselines = {}
    baselines[key] = table2  # other keys' baselines are preserved
    with open(baseline_path, "w") as f:
        json.dump(baselines, f, indent=2)
        f.write("\n")
    print(f"updated {baseline_path} [{key}]")
    sys.exit(0)

baselines = json.load(open(baseline_path))
if key not in baselines:
    print(f"no committed baseline for '{key}' in {baseline_path}; "
          f"run with --update-baseline under that configuration first",
          file=sys.stderr)
    sys.exit(1)
baseline = baselines[key]
SDSM_BAND = 0.25
def drift(run, tag):
    failures = []
    for app, versions in baseline["apps"].items():
        for ver, base_row in versions.items():
            cur = run["apps"][app][ver]["msgs"]
            base = base_row["msgs"]
            if ver == "mpi":
                if cur != base:
                    failures.append(
                        f"{app}/{ver}: msgs {cur} != baseline {base} (exact)")
            elif app == "TSP":
                continue  # speculative search: counts are race-dependent
            else:
                lo, hi = base * (1 - SDSM_BAND), base * (1 + SDSM_BAND)
                if not (lo <= cur <= hi):
                    failures.append(
                        f"{app}/{ver}: msgs {cur} outside [{lo:.0f}, {hi:.0f}] "
                        f"(baseline {base} +/-25%)")
    if failures:
        print(f"message-count drift vs seed baseline [{key}] {tag}:",
              file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        sys.exit(1)

drift(table2, "(detector off)")
# The detector-on run is held to the SAME baseline: race=page adds zero
# messages, so the exact MPI rows and the SDSM band apply unchanged.
drift(table2_race, "(race=page)")
print(f"message counts match the seed baseline [{key}], detector off AND on "
      "(MPI exact, SDSM within 25%, TSP SDSM exempt)")
EOF
