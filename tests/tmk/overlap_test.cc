// Overlapped diff fetching (Config::overlap, net::QueuedTransport): the
// asynchronous fetch path and the barrier-time batched prefetch must keep
// every computed value exact, keep counters and trace in lossless agreement,
// leave the diff request/reply message counts of the async fetch unchanged
// against the inline path, serve prefetch-hit pages with zero fault-time
// fetch stall, and stay deterministic per seed — including composed with the
// perturbation transport.
#include <gtest/gtest.h>

#include <vector>

#include "../common/env_guard.hpp"
#include "core/runtime.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "trace/sinks.hpp"

namespace omsp::tmk {
namespace {

using test::ScopedEnvClear;

net::OverlapOptions overlap_all() {
  net::OverlapOptions o;
  o.enabled = true;
  return o; // overlapped fetch + prefetch
}

net::OverlapOptions overlap_fetch_only() {
  net::OverlapOptions o;
  o.enabled = true;
  o.prefetch = false;
  return o;
}

// Flat off-node latency with service occupancy and no host-CPU folding:
// makespans are purely modeled protocol time, so timing assertions are exact
// and reproducible.
sim::CostModel latency_model() {
  auto m = sim::CostModel::zero();
  m.net_latency_us = 100.0;
  m.handler_service_us = 10.0;
  return m;
}

// The perturbation suite's triangular elimination: lock-free but heavily
// multi-writer across barriers — the most protocol-hostile value check.
void run_triangular(const Config& base, std::vector<long>& out) {
  const std::int64_t N = 24, D = 64;
  const long M = 1000003;
  Config cfg = base;
  core::OmpRuntime rt(cfg);
  auto a = rt.alloc_page_aligned<long>(N * D);
  for (std::int64_t i = 0; i < N * D; ++i) a[i] = 1;
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t k = 0; k < D; ++k) a[i * D + k] = a[i * D + k] * 3 % M;
    rt.parallel_for(i + 1, N, core::Schedule::static_chunked(1),
                    [&](std::int64_t j) {
                      for (std::int64_t k = 0; k < D; ++k)
                        a[j * D + k] = (a[j * D + k] + a[i * D + k]) % M;
                    });
  }
  out.assign(a.local(), a.local() + N * D);
}

// Phased producer/consumer: each rank owns one page, writes it, and after a
// barrier reads its neighbor's page (always cross-context in process mode).
// Between barriers only one side of each page is active, so message counts
// are a deterministic function of the protocol — not of host scheduling.
// `compute_us` charges modeled private compute between the barrier and the
// first touch of the fetched page: the window batched prefetch overlaps.
struct NeighborResult {
  std::vector<long> sums;
  StatsSnapshot stats;
  double makespan_us = 0;
  std::vector<trace::Event> events; // when the config enables tracing
};

NeighborResult run_neighbor(const Config& base, double compute_us = 0) {
  const int kIters = 6;
  const std::int64_t B = kPageSize / sizeof(long); // one page per rank
  Config cfg = base;
  DsmSystem dsm(cfg);
  const int P = static_cast<int>(dsm.nprocs());
  auto data = dsm.alloc_page_aligned<long>(B * P);
  for (std::int64_t i = 0; i < B * P; ++i) data[i] = 0;
  NeighborResult res;
  res.sums.assign(P, 0);
  dsm.parallel([&](Rank r) {
    // Warm-up: take the rank's own page in a read-only phase. Without this,
    // iteration 0's write faults fetch from the master context while it is
    // itself mid-write-phase with an open written interval, and the content
    // of the service-time twin flush depends on how far its writes got —
    // real wall-clock nondeterminism that would break exact count
    // comparisons below.
    long warm = 0;
    for (std::int64_t i = 0; i < B; ++i) warm += data[r * B + i];
    res.sums[r] += warm;
    dsm.barrier();
    for (int it = 0; it < kIters; ++it) {
      for (std::int64_t i = 0; i < B; ++i)
        data[r * B + i] = data[r * B + i] + (r + 1) * (it + 1);
      dsm.barrier();
      if (compute_us > 0) sim::VirtualClock::current()->charge(compute_us);
      const int nb = (static_cast<int>(r) + 1) % P;
      long s = 0;
      for (std::int64_t i = 0; i < B; ++i) s += data[nb * B + i];
      res.sums[r] += s;
      dsm.barrier();
    }
  });
  res.stats = dsm.stats();
  res.makespan_us = dsm.master_time_us();
  if (dsm.tracer() != nullptr) res.events = dsm.tracer()->snapshot_events();
  return res;
}

// Counters that are a deterministic function of the phased workload. The
// piggyback-dependent quantities (byte totals, intervals closed, write
// notices) are wall-clock dependent even on the seed InlineTransport: a
// service-time twin flush mints an interval carrying the creator's *current*
// vector time, which races with the vt merges of the creator's own
// concurrent fetches. Message counts, faults and diffs are exact.
constexpr Counter kDeterministicCounters[] = {
    Counter::kMsgsSent,         Counter::kMsgsOffNode,
    Counter::kPageFaults,       Counter::kReadFaults,
    Counter::kWriteFaults,      Counter::kTwins,
    Counter::kDiffsCreated,     Counter::kDiffsApplied,
    Counter::kDiffBytesCreated, Counter::kFullPageFetches,
    Counter::kBarriers,         Counter::kPrefetchBatches,
    Counter::kPrefetchPagesFetched, Counter::kPrefetchHits,
};

void expect_deterministic_counters_eq(const StatsSnapshot& a,
                                      const StatsSnapshot& b) {
  for (const Counter c : kDeterministicCounters)
    EXPECT_EQ(a[c], b[c]) << "counter " << counter_name(c);
}

Config neighbor_config() {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = Mode::kProcess; // 4 contexts; neighbor reads always cross
  cfg.cost = latency_model();
  return cfg;
}

// --------------------------------------------------------- exact values -----

struct OverlapParam {
  Mode mode;
  Protocol protocol;
  const char* name;
};

class OverlappedTriangular : public ::testing::TestWithParam<OverlapParam> {};

// The acceptance bar: with the overlapped paths on, the most protocol-hostile
// workload computes bit-exact results in both execution modes. The home-based
// protocol has no overlapped path — the gate must route it through the
// synchronous fetch untouched.
TEST_P(OverlappedTriangular, ExactResultsWithOverlap) {
  const OverlapParam& p = GetParam();
  std::vector<long> ref, overlapped;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = sim::CostModel::zero();
  run_triangular(cfg, ref);
  cfg.overlap = overlap_all();
  run_triangular(cfg, overlapped);
  ASSERT_EQ(overlapped, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, OverlappedTriangular,
    ::testing::Values(
        OverlapParam{Mode::kThread, Protocol::kLazyRC, "ThreadLazy"},
        OverlapParam{Mode::kProcess, Protocol::kLazyRC, "ProcessLazy"},
        OverlapParam{Mode::kThread, Protocol::kHomeLRC, "ThreadHome"},
        OverlapParam{Mode::kProcess, Protocol::kHomeLRC, "ProcessHome"}),
    [](const auto& info) { return info.param.name; });

// Overlap composed with seeded fault injection: jittered/duplicated async
// requests and perturbed one-way traffic, still exact (seeds 1..3).
class PerturbedOverlap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerturbedOverlap, ExactResultsUnderPerturbation) {
  std::vector<long> ref, perturbed;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  run_triangular(cfg, ref);
  cfg.overlap = overlap_all();
  cfg.perturb.enabled = true;
  cfg.perturb.seed = GetParam();
  run_triangular(cfg, perturbed);
  ASSERT_EQ(perturbed, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerturbedOverlap, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

// ------------------------------------------------- unchanged message counts -

// The async fetch issues the same per-creator requests a synchronous round
// would, just concurrently: every counter — messages, bytes, faults, diffs —
// is identical to the inline transport.
TEST(OverlappedFetch, AsyncFetchKeepsCountersIdentical) {
  const ScopedEnvClear env_guard;
  Config cfg = neighbor_config();
  const NeighborResult inline_run = run_neighbor(cfg);
  cfg.overlap = overlap_fetch_only();
  const NeighborResult overlap_run = run_neighbor(cfg);
  EXPECT_EQ(overlap_run.sums, inline_run.sums);
  expect_deterministic_counters_eq(overlap_run.stats, inline_run.stats);
}

// One fetch path: every fault-time fetch round, overlapped or not, traces
// one diff_fetch per creator, so there is exactly one per kDiffRequest round
// trip, whose request and reply are two kMessage events of that type.
TEST(OverlappedFetch, TracesOneDiffFetchPerRoundTrip) {
  const ScopedEnvClear env_guard;
  for (const net::OverlapOptions& overlap :
       {net::OverlapOptions{}, overlap_fetch_only()}) {
    SCOPED_TRACE(overlap.enabled ? "overlapped" : "inline");
    Config cfg = neighbor_config();
    cfg.overlap = overlap;
    cfg.trace.enabled = true;
    const NeighborResult run = run_neighbor(cfg);
    std::size_t fetches = 0, request_msgs = 0;
    for (const trace::Event& e : run.events) {
      if (e.kind == trace::EventKind::kDiffFetch) ++fetches;
      if (e.kind == trace::EventKind::kMessage &&
          net::message_type_of_arg1(e.arg1) == net::MsgType::kDiffRequest)
        ++request_msgs;
    }
    EXPECT_GE(fetches, 1u);
    EXPECT_EQ(2 * fetches, request_msgs);
  }
}

// ----------------------------------------------------- overlapped stalls ----

// Multi-writer page, all-reader fault round: with four creators' diffs to
// fetch, the inline path stalls for the SUM of the round trips while the
// async path stalls for their MAX (plus serialized service). The makespan
// gap is the paper's overlap win; the traffic is identical.
TEST(OverlappedFetch, MultiWriterStallIsMaxNotSumOfRtts) {
  const ScopedEnvClear env_guard;
  const int kIters = 4;
  auto run = [&](const net::OverlapOptions& overlap) {
    Config cfg;
    cfg.topology = sim::Topology(4, 1); // every context on its own node
    cfg.mode = Mode::kProcess;
    cfg.cost = latency_model();
    cfg.overlap = overlap;
    DsmSystem dsm(cfg);
    const int P = static_cast<int>(dsm.nprocs());
    const std::int64_t Q = kPageSize / sizeof(long) / P;
    auto page = dsm.alloc_page_aligned<long>(Q * P); // one falsely-shared page
    for (std::int64_t i = 0; i < Q * P; ++i) page[i] = 0;
    std::vector<long> sums(P, 0);
    dsm.parallel([&](Rank r) {
      // Read-only warm-up (see run_neighbor): keeps every later fetch off
      // contexts with open written intervals, so counts compare exactly.
      long warm = 0;
      for (std::int64_t i = 0; i < Q * P; ++i) warm += page[i];
      sums[r] += warm;
      dsm.barrier();
      for (int it = 0; it < kIters; ++it) {
        for (std::int64_t i = 0; i < Q; ++i)
          page[r * Q + i] = page[r * Q + i] + r + it + 1;
        dsm.barrier();
        long s = 0;
        for (std::int64_t i = 0; i < Q * P; ++i) s += page[i];
        sums[r] += s;
        dsm.barrier();
      }
    });
    return std::tuple{sums, dsm.stats(), dsm.master_time_us()};
  };
  const auto [inline_sums, inline_stats, inline_us] =
      run(net::OverlapOptions{});
  const auto [async_sums, async_stats, async_us] = run(overlap_fetch_only());

  EXPECT_EQ(async_sums, inline_sums);
  // Identical traffic (message counts; byte totals carry the racy piggyback
  // variance described at kDeterministicCounters)...
  expect_deterministic_counters_eq(async_stats, inline_stats);
  // ...but the three-creator fetch rounds overlapped: each saves about two
  // round trips, across four iterations. Require at least a few RTTs of win.
  EXPECT_LT(async_us + 2 * 210.0, inline_us);
}

// Prefetch-hit pages cost zero fault-time fetch: when the modeled compute
// between barrier departure and first touch exceeds the batch round trip,
// the full-overlap run's read phase is pure compute, while the fetch-only
// run still pays the round trip at the fault.
TEST(OverlappedPrefetch, HitPagesHaveZeroFaultTimeStall) {
  const ScopedEnvClear env_guard;
  const double kComputeUs = 400.0; // > RTT (100 + 10 + 100)
  Config cfg = neighbor_config();
  cfg.overlap = overlap_fetch_only();
  const NeighborResult fetch_only = run_neighbor(cfg, kComputeUs);
  cfg.overlap = overlap_all();
  const NeighborResult prefetched = run_neighbor(cfg, kComputeUs);

  EXPECT_EQ(prefetched.sums, fetch_only.sums);
  EXPECT_GT(prefetched.stats[Counter::kPrefetchBatches], 0u);
  EXPECT_GT(prefetched.stats[Counter::kPrefetchPagesFetched], 0u);
  EXPECT_GT(prefetched.stats[Counter::kPrefetchHits], 0u);
  // Several iterations each save ~ one full round trip per rank.
  EXPECT_LT(prefetched.makespan_us + 2 * 210.0, fetch_only.makespan_us);
}

// ------------------------------------------------ bounded prefetch traffic --

// A page that is invalidated once and then left untouched must not be
// re-shipped every barrier. Two guards enforce that: the candidate gate
// (valid->invalid transition since the last round AND a prior local fault)
// admits the page to one round per actual use, and buffered coverage makes a
// later round request only diffs above what is already in hand. Without them
// the batch path re-shipped the page's entire growing diff history at every
// barrier — O(barriers^2) traffic on long runs.
TEST(OverlappedPrefetch, IdlePageIsNotReshippedEveryBarrier) {
  const ScopedEnvClear env_guard;
  const int kEpochs = 12;
  const std::int64_t B = kPageSize / sizeof(long);
  const auto run = [&](net::OverlapOptions overlap) {
    Config cfg = neighbor_config();
    cfg.overlap = overlap;
    DsmSystem dsm(cfg);
    auto data = dsm.alloc_page_aligned<long>(B);
    for (std::int64_t i = 0; i < B; ++i) data[i] = 0;
    std::vector<long> sums(dsm.nprocs(), 0);
    dsm.parallel([&](Rank r) {
      for (int it = 0; it < kEpochs; ++it) {
        if (r == 0)
          for (std::int64_t i = 0; i < B; ++i) data[i] = data[i] + it + 1;
        dsm.barrier();
        // Rank 1 reads in the first epoch (establishing access history) and
        // in the last (forcing a catch-up fetch across the idle stretch);
        // in between the page sits invalid and must be left alone.
        if (r == 1 && (it == 0 || it == kEpochs - 1)) {
          long s = 0;
          for (std::int64_t i = 0; i < B; ++i) s += data[i];
          sums[r] = s;
        }
        dsm.barrier();
      }
    });
    return std::pair{sums[1], dsm.stats()};
  };
  const auto [plain_sum, plain_stats] = run(net::OverlapOptions{});
  const auto [ov_sum, ov_stats] = run(overlap_all());

  // The catch-up read sees every interval minted during the idle stretch.
  EXPECT_EQ(ov_sum, plain_sum);
  // The idle page qualifies for at most one round per read that made it
  // valid — not one per barrier. (A handful of warm-up/stack pages may also
  // qualify once each.)
  EXPECT_LE(ov_stats[Counter::kPrefetchPagesFetched], std::uint64_t{6});
  // Bytes stay in the seed path's regime instead of growing quadratically
  // with the barrier count.
  EXPECT_LE(ov_stats[Counter::kBytesSent],
            2 * plain_stats[Counter::kBytesSent]);
}

// --------------------------------------------------- determinism per seed ---

TEST(OverlappedPrefetch, DeterministicAcrossRuns) {
  const ScopedEnvClear env_guard;
  Config cfg = neighbor_config();
  cfg.overlap = overlap_all();
  const NeighborResult a = run_neighbor(cfg, 150.0);
  const NeighborResult b = run_neighbor(cfg, 150.0);
  EXPECT_EQ(a.sums, b.sums);
  // The latency model's costs are size-independent, so the makespan is a
  // pure function of the deterministic message schedule.
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
  expect_deterministic_counters_eq(a.stats, b.stats);
}

// --------------------------------------------------------- trace audit ------

// With the full overlap stack on (and prefetch actually hitting), the trace
// still reconstructs every counter exactly — the async request, the worker-
// side reply and the prefetch events all keep the add<->event pairing. Both
// execution modes.
class OverlapTraceAudit : public ::testing::TestWithParam<Mode> {};

TEST_P(OverlapTraceAudit, ReconstructsCountersExactly) {
  Config cfg = neighbor_config();
  cfg.mode = GetParam();
  cfg.trace.enabled = true;
  cfg.overlap = overlap_all();
  const int kIters = 6;
  const std::int64_t B = kPageSize / sizeof(long);
  DsmSystem dsm(cfg);
  const int P = static_cast<int>(dsm.nprocs());
  auto data = dsm.alloc_page_aligned<long>(B * P);
  for (std::int64_t i = 0; i < B * P; ++i) data[i] = 0;
  std::vector<long> sums(P, 0);
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < kIters; ++it) {
      for (std::int64_t i = 0; i < B; ++i) data[r * B + i] += r + it + 1;
      dsm.barrier();
      const int nb = (static_cast<int>(r) + 1) % P;
      long s = 0;
      for (std::int64_t i = 0; i < B; ++i) s += data[nb * B + i];
      sums[r] += s;
      dsm.barrier();
    }
  });
  const StatsSnapshot live = dsm.stats();
  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
  // The overlapped paths really ran: async fetches and/or prefetch events
  // are in the trace (thread mode may satisfy neighbor reads locally, so
  // only require them in process mode).
  if (GetParam() == Mode::kProcess) {
    bool saw_prefetch = false;
    for (const auto& e : dsm.tracer()->events())
      if (e.kind == trace::EventKind::kPrefetchBatch) saw_prefetch = true;
    EXPECT_TRUE(saw_prefetch);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, OverlapTraceAudit,
                         ::testing::Values(Mode::kThread, Mode::kProcess),
                         [](const auto& info) {
                           return info.param == Mode::kThread ? "Thread"
                                                              : "Process";
                         });

} // namespace
} // namespace omsp::tmk
