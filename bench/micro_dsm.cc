// Microbenchmarks (google-benchmark) for the DSM's hot primitives: diff
// creation/application, twin copies, message serialization and the
// fault/fetch round trip. These are host-time benchmarks (not virtual time)
// — they size the constant factors behind the cost model.
#include <benchmark/benchmark.h>

#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "tmk/diff.hpp"
#include "tmk/system.hpp"

namespace {

using namespace omsp;
using namespace omsp::tmk;

// Build a (twin, current) pair where `fraction` of the bytes changed, spread
// over `runs` contiguous regions.
void make_pair(std::uint8_t* twin, std::uint8_t* cur, double fraction,
               int runs) {
  Rng rng(99);
  for (std::size_t i = 0; i < kPageSize; ++i)
    twin[i] = cur[i] = static_cast<std::uint8_t>(rng.next_u32());
  const std::size_t change = static_cast<std::size_t>(kPageSize * fraction);
  const std::size_t per_run = std::max<std::size_t>(1, change / runs);
  for (int r = 0; r < runs; ++r) {
    const std::size_t start = (kPageSize / runs) * r;
    for (std::size_t i = start; i < start + per_run && i < kPageSize; ++i)
      cur[i] ^= 0x5a;
  }
}

void BM_DiffCreate(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize];
  make_pair(twin, cur, state.range(0) / 100.0, 8);
  for (auto _ : state) {
    auto d = create_diff(twin, cur);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
  state.SetLabel(diff_kernel_name());
}
BENCHMARK(BM_DiffCreate)->Arg(0)->Arg(5)->Arg(25)->Arg(100);

// The word-at-a-time reference encoder, kept callable as
// create_diff_scalar(): the ratio BM_DiffCreateScalar / BM_DiffCreate at each
// dirtiness level is the SIMD speedup recorded in BENCH_pr8.json. Both encode
// into the same per-thread scratch buffer and copy out exact-size diffs, so
// the ratio measures only the compare kernels.
void BM_DiffCreateScalar(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize];
  make_pair(twin, cur, state.range(0) / 100.0, 8);
  for (auto _ : state) {
    auto d = create_diff_scalar(twin, cur);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_DiffCreateScalar)->Arg(0)->Arg(5)->Arg(25)->Arg(100);

void BM_DiffApply(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize], dst[kPageSize];
  make_pair(twin, cur, state.range(0) / 100.0, 8);
  const auto d = create_diff(twin, cur);
  std::memcpy(dst, twin, kPageSize);
  for (auto _ : state) {
    apply_diff(d, dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(diff_patch_bytes(d)));
}
BENCHMARK(BM_DiffApply)->Arg(5)->Arg(25)->Arg(100);

// Run-heavy sparse page: 25% of the bytes dirty but shattered over 64 runs —
// the per-run (header decode + bounds check + short copy) overhead dominates,
// which is what the checked run-iterator and copy_run fast paths optimize.
void BM_DiffApplyRunHeavy(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize], dst[kPageSize];
  make_pair(twin, cur, 0.25, 64);
  const auto d = create_diff(twin, cur);
  std::memcpy(dst, twin, kPageSize);
  for (auto _ : state) {
    apply_diff(d, dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(diff_patch_bytes(d)));
}
BENCHMARK(BM_DiffApplyRunHeavy);

// The pre-PR apply loop, embedded verbatim (checks included, out of line so
// the call boundary matches the library function) as the wall-clock reference
// for BM_DiffApply. It also documents the bounds bug this PR fixes: no
// offset+length <= page_size check before the memcpy.
__attribute__((noinline)) void apply_diff_ref(std::span<const std::uint8_t> diff,
                                              std::uint8_t* dst) {
  struct RunHeader {
    std::uint16_t offset;
    std::uint16_t length;
  };
  std::size_t pos = 0;
  while (pos < diff.size()) {
    OMSP_CHECK_MSG(pos + sizeof(RunHeader) <= diff.size(),
                   "truncated diff header");
    RunHeader h;
    std::memcpy(&h, diff.data() + pos, sizeof(h));
    pos += sizeof(h);
    OMSP_CHECK_MSG(pos + h.length <= diff.size(), "truncated diff run");
    std::memcpy(dst + h.offset, diff.data() + pos, h.length);
    pos += h.length;
  }
}

void BM_DiffApplyRefRunHeavy(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize], dst[kPageSize];
  make_pair(twin, cur, 0.25, 64);
  const auto d = create_diff(twin, cur);
  std::memcpy(dst, twin, kPageSize);
  for (auto _ : state) {
    apply_diff_ref(d, dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(diff_patch_bytes(d)));
}
BENCHMARK(BM_DiffApplyRefRunHeavy);

void BM_DiffApplyRef(benchmark::State& state) {
  alignas(64) std::uint8_t twin[kPageSize], cur[kPageSize], dst[kPageSize];
  make_pair(twin, cur, state.range(0) / 100.0, 8);
  const auto d = create_diff(twin, cur);
  std::memcpy(dst, twin, kPageSize);
  for (auto _ : state) {
    apply_diff_ref(d, dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(diff_patch_bytes(d)));
}
BENCHMARK(BM_DiffApplyRef)->Arg(5)->Arg(25)->Arg(100);

void BM_TwinCopy(benchmark::State& state) {
  alignas(64) std::uint8_t src[kPageSize], dst[kPageSize];
  std::memset(src, 0x5a, sizeof src);
  for (auto _ : state) {
    std::memcpy(dst, src, kPageSize);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_TwinCopy);

void BM_SerializeRecords(benchmark::State& state) {
  std::vector<IntervalRecord> recs;
  for (int i = 0; i < state.range(0); ++i) {
    IntervalRecord r;
    r.creator = static_cast<ContextId>(i % 4);
    r.seq = static_cast<IntervalSeq>(i + 1);
    r.vt = VectorTime(16);
    for (int k = 0; k < 6; ++k) r.pages.push_back(static_cast<PageId>(k * 7));
    recs.push_back(std::move(r));
  }
  for (auto _ : state) {
    ByteWriter w;
    serialize_records(recs, w);
    ByteReader r(w.bytes());
    auto back = deserialize_records(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SerializeRecords)->Arg(1)->Arg(16)->Arg(128);

void BM_FaultFetchRoundTrip(benchmark::State& state) {
  // One writer context, one reader context; each iteration invalidates the
  // reader and forces a full fault -> diff request -> apply cycle.
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.heap_bytes = 1u << 20;
  DsmSystem dsm(cfg);
  auto data = dsm.alloc_page_aligned<long>(512);
  long expect = 0;
  for (auto _ : state) {
    ++expect;
    dsm.parallel([&](Rank r) {
      if (r == 0) data[0] = expect;
      dsm.barrier();
      if (r == 1) benchmark::DoNotOptimize(data[0]);
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultFetchRoundTrip)->Unit(benchmark::kMicrosecond);

// Multi-writer fetch: four writers each dirty a quarter of one falsely
// shared page; the post-barrier read faults once and fetches diffs from all
// three remote creators. With overlap off the stall is the SUM of the three
// RTTs, with overlap on it is the MAX. Host time measures the transport
// machinery's overhead; the modeled stall is exported as the
// `virtual_us_per_iter` counter — the quantity the overlap work optimizes.
void BM_MultiWriterFetch(benchmark::State& state) {
  Config cfg;
  cfg.topology = sim::Topology(4, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.cost.net_latency_us = 100.0;
  cfg.cost.handler_service_us = 10.0;
  cfg.heap_bytes = 1u << 20;
  cfg.overlap.enabled = state.range(0) != 0;
  DsmSystem dsm(cfg);
  const int P = 4;
  const std::size_t Q = kPageSize / sizeof(long) / P;
  auto data = dsm.alloc_page_aligned<long>(kPageSize / sizeof(long));
  long expect = 0;
  double virtual_us = 0;
  for (auto _ : state) {
    ++expect;
    dsm.parallel([&](Rank r) {
      for (std::size_t i = 0; i < Q; ++i) data[r * Q + i] = expect;
      dsm.barrier();
      long sum = 0;
      for (std::size_t i = 0; i < static_cast<std::size_t>(P) * Q; ++i)
        sum += data[i];
      benchmark::DoNotOptimize(sum);
      dsm.barrier();
    });
    virtual_us = dsm.master_time_us();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virtual_us_per_iter"] =
      benchmark::Counter(virtual_us / static_cast<double>(expect));
}
BENCHMARK(BM_MultiWriterFetch)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("overlap")
    ->Unit(benchmark::kMicrosecond);

// Barrier engine comparison on a 16-node fat tree: arg 0 runs the seed's
// centralized manager, arg 1 the hierarchical tree episode (coll=tree).
// Host time measures the episode machinery; the modeled cost of one barrier
// — the quantity the engine optimizes — is exported as virtual_us_per_iter.
// Per-byte injection occupancy is on, so the manager's 15-message departure
// fan-out serializes while the tree spreads it over node and edge leaders.
void BM_BarrierEpisode(benchmark::State& state) {
  Config cfg;
  cfg.topology = sim::Topology::fat_tree(2, 4, 1); // 16 nodes, 1 proc each
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0;
  cfg.cost.occupancy_byte_us = 0.02;
  cfg.heap_bytes = 1u << 20;
  cfg.coll.tree = state.range(0) != 0;
  DsmSystem dsm(cfg);
  const std::size_t n = kPageSize / sizeof(long);
  auto data = dsm.alloc_page_aligned<long>(n);
  long expect = 0;
  double virtual_us = 0;
  for (auto _ : state) {
    ++expect;
    dsm.parallel([&](Rank r) {
      // Every context dirties a slice of one falsely shared page, so each
      // barrier carries real write notices up (and departures down) the tree.
      data[r * (n / 16)] = expect;
      dsm.barrier();
      benchmark::DoNotOptimize(data[0]);
      dsm.barrier();
    });
    virtual_us = dsm.master_time_us();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virtual_us_per_iter"] =
      benchmark::Counter(virtual_us / static_cast<double>(expect));
}
BENCHMARK(BM_BarrierEpisode)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("tree")
    ->Unit(benchmark::kMicrosecond);

// Detector overhead: the same falsely-shared barrier workload with the
// vector-clock race detector off / page-granular / word-granular. The
// detector's cost is pure host time (race baselines, collection diffs and
// the barrier-time sweep); the exported virtual_us_per_iter must be
// IDENTICAL across the three args — the bit-for-bit knob contract
// (docs/OBSERVABILITY.md, bench_smoke asserts it from the JSON).
void BM_RaceDetectOverhead(benchmark::State& state) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0;
  cfg.heap_bytes = 1u << 20;
  switch (state.range(0)) {
  case 0: cfg.race.mode = race::Mode::kOff; break;
  case 1: cfg.race.mode = race::Mode::kPage; break;
  default: cfg.race.mode = race::Mode::kWord; break;
  }
  DsmSystem dsm(cfg);
  const std::size_t n = kPageSize / sizeof(long);
  auto data = dsm.alloc_page_aligned<long>(4 * n);
  long expect = 0;
  double prev_us = 0, episode_us = 0;
  for (auto _ : state) {
    ++expect;
    dsm.parallel([&](Rank r) {
      // Four falsely shared pages, every rank dirtying its slice of each:
      // each barrier flushes four diffs per context through the detector's
      // collection path and the sweep sees 4 pages x 4 writers.
      for (std::size_t pg = 0; pg < 4; ++pg)
        data[pg * n + r * (n / 4)] = expect;
      dsm.barrier();
      benchmark::DoNotOptimize(data[0]);
      dsm.barrier();
    });
    // Steady-state modeled cost of ONE episode (the last iteration's virtual-
    // time delta, free of cold-fault warm-up). Comparable across the three
    // detector modes because the iteration count is pinned below: periodic
    // protocol work (GC exchanges) gives the episode sequence a cycle longer
    // than one iteration, so only equal counts sample equal phases.
    const double now_us = dsm.master_time_us();
    episode_us = now_us - prev_us;
    prev_us = now_us;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virtual_us_per_iter"] = benchmark::Counter(episode_us);
}
BENCHMARK(BM_RaceDetectOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("race")
    ->Iterations(512)
    ->Unit(benchmark::kMicrosecond);

void BM_Mprotect(benchmark::State& state) {
  Config cfg;
  cfg.topology = sim::Topology(1, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.heap_bytes = 1u << 20;
  DsmSystem dsm(cfg);
  auto& heap = dsm.context(0).heap();
  bool rw = false;
  for (auto _ : state) {
    heap.protect(4, rw ? Protection::kRead : Protection::kReadWrite);
    rw = !rw;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Mprotect)->Unit(benchmark::kNanosecond);

// --- tracing overhead --------------------------------------------------------
// trace::note with no tracer must cost one relaxed load + predicted branch;
// the enabled path one SPSC push. Compare against BM_FaultFetchRoundTrip to see
// that protocol work dwarfs either (docs/OBSERVABILITY.md "Overhead").

void BM_TraceEventDisabled(benchmark::State& state) {
  // No tracer installed: note()'s fast path.
  for (auto _ : state) {
    trace::note(trace::EventKind::kPageFault, 0, 1, 0, trace::kFlagWrite);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventDisabled)->Unit(benchmark::kNanosecond);

void BM_TraceEventEnabled(benchmark::State& state) {
  trace::Options opts;
  opts.enabled = true;
  opts.ring_events = 1u << 16;
  trace::Tracer tracer(opts);
  tracer.install();
  trace::Tracer::bind_thread(0);
  std::size_t n = 0;
  for (auto _ : state) {
    trace::note(trace::EventKind::kPageFault, 0, 1, 0, trace::kFlagWrite);
    if (++n == (1u << 15)) { // drain periodically, as barriers would
      state.PauseTiming();
      tracer.clear();
      n = 0;
      state.ResumeTiming();
    }
  }
  tracer.uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventEnabled)->Unit(benchmark::kNanosecond);

void BM_FaultFetchRoundTripTraced(benchmark::State& state) {
  // BM_FaultFetchRoundTrip with tracing on: the end-to-end overhead check.
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.heap_bytes = 1u << 20;
  cfg.trace.enabled = true;
  DsmSystem dsm(cfg);
  auto data = dsm.alloc_page_aligned<long>(512);
  long expect = 0;
  for (auto _ : state) {
    ++expect;
    dsm.parallel([&](Rank r) {
      if (r == 0) data[0] = expect;
      dsm.barrier();
      if (r == 1) benchmark::DoNotOptimize(data[0]);
    });
    // Bound the collected-event buffer; a real run drains to a sink instead.
    if (expect % 8192 == 0) dsm.reset_stats();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultFetchRoundTripTraced)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
