// Vector-clock data-race detection (src/race/, Config::race): the on-line
// detector must (a) find a deliberately racy kernel deterministically — same
// page, same byte ranges, same interval pair on every run, both protocols,
// both execution modes — and (b) stay silent on the six properly synchronized
// benchmark applications even with every protocol stressor stacked on
// (tree collectives, lossy links, perturbed seeds). With race=off (the
// default) the detector must not exist at all: values, modeled time and
// every counter identical to the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "../common/env_guard.hpp"
#include "apps/barnes.hpp"
#include "apps/fft3d.hpp"
#include "apps/mgs.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "race/detector.hpp"
#include "race/options.hpp"
#include "tmk/system.hpp"
#include "trace/sinks.hpp"

namespace omsp::tmk {
namespace {

using test::ScopedEnvClear;

sim::CostModel latency_model() {
  auto m = sim::CostModel::zero();
  m.net_latency_us = 100.0;
  m.handler_service_us = 10.0;
  return m;
}

// ------------------------------------------------- the racy SOR variant ----
//
// A red-black SOR sweep whose row partition is deliberately broken: the first
// and the last rank both update boundary row 0 (cells [0, 8)) in the same
// interval, with no reduction/critical protection and no intervening
// synchronization. The cell patterns differ from zero AND from each other in
// every byte, so the two racing diffs are [0, 64) regardless of which writer
// faulted first (the second writer's twin may hold either zeros or the first
// writer's cells — the delta is the same either way): the detector must
// report exactly ONE byte-precise, interleaving-independent race.
constexpr int kRacyElems = 8;
constexpr std::uint64_t kCellA = 0x0101010101010101ull;
constexpr std::uint64_t kCellB = 0x2323232323232323ull;

struct RacyRun {
  std::vector<race::Report> reports; // sorted by lo
  StatsSnapshot stats;
  std::uint32_t last_ctx = 0; // context of the last rank
};

std::uint32_t context_of_last_rank(const Config& cfg) {
  // Thread mode folds each node into one context.
  return cfg.mode == Mode::kThread ? cfg.topology.nodes() - 1
                                   : cfg.topology.nprocs() - 1;
}

RacyRun run_racy_sor(Config cfg, race::Mode rmode) {
  cfg.race.mode = rmode;
  DsmSystem dsm(cfg);
  const auto P = dsm.nprocs();
  auto row = dsm.alloc_page_aligned<std::uint64_t>(kPageSize /
                                                   sizeof(std::uint64_t));
  dsm.parallel([&](Rank r) {
    if (r == 0) {
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellA; // red sweep...
    } else if (r == P - 1) {
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellB; // ...collides
    }
    dsm.barrier();
  });
  RacyRun res;
  res.reports = dsm.race_detector()->reports();
  std::sort(res.reports.begin(), res.reports.end(),
            [](const race::Report& a, const race::Report& b) {
              return a.lo < b.lo;
            });
  res.stats = dsm.stats();
  res.last_ctx = context_of_last_rank(cfg);
  return res;
}

struct RaceParam {
  Mode mode;
  Protocol protocol;
  const char* name;
};

class RacyKernel : public ::testing::TestWithParam<RaceParam> {};

// Page granularity: the eight racing cells form one maximal overlapping
// range — exactly ONE report covering bytes [0, 64) of page 0, attributed to
// interval 1 of each writer.
TEST_P(RacyKernel, PageModeReportsExactByteRange) {
  ScopedEnvClear env;
  const RaceParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = latency_model();
  const RacyRun run = run_racy_sor(cfg, race::Mode::kPage);

  ASSERT_EQ(run.reports.size(), 1u);
  const race::Report& rep = run.reports[0];
  EXPECT_EQ(rep.page, 0u);
  EXPECT_EQ(rep.lo, 0u);
  EXPECT_EQ(rep.hi, static_cast<std::uint32_t>(kRacyElems * 8));
  EXPECT_EQ(rep.ctx_a, 0u);
  EXPECT_EQ(rep.ctx_b, run.last_ctx);
  EXPECT_EQ(rep.seq_a, 1u);
  EXPECT_EQ(rep.seq_b, 1u);
  // Neither interval's sync vector time covers the other: truly concurrent.
  EXPECT_FALSE(rep.vt_a.covers(rep.ctx_b, rep.seq_b));
  EXPECT_FALSE(rep.vt_b.covers(rep.ctx_a, rep.seq_a));
  EXPECT_EQ(run.stats[Counter::kRacesDetected], 1u);
  EXPECT_GT(run.stats[Counter::kRaceChecks], 0u);
}

// Byte-disjoint writes to the same page: rank 0 stores byte 5, the last rank
// stores byte 6. Page granularity deliberately stays silent (false sharing,
// not a data race); word granularity widens both runs to the containing
// 4-byte word [4, 8) and must flag the collision.
std::pair<std::vector<race::Report>, StatsSnapshot> run_false_sharing(
    Config cfg, race::Mode rmode) {
  cfg.race.mode = rmode;
  DsmSystem dsm(cfg);
  const auto P = dsm.nprocs();
  auto bytes = dsm.alloc_page_aligned<unsigned char>(kPageSize);
  dsm.parallel([&](Rank r) {
    if (r == 0) bytes[5] = 0x11;
    if (r == P - 1) bytes[6] = 0x22;
    dsm.barrier();
  });
  return {dsm.race_detector()->reports(), dsm.stats()};
}

TEST_P(RacyKernel, WordModeFlagsFalseSharingPageModeDoesNot) {
  ScopedEnvClear env;
  const RaceParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = latency_model();

  const auto page = run_false_sharing(cfg, race::Mode::kPage);
  EXPECT_EQ(page.first.size(), 0u);
  EXPECT_EQ(page.second[Counter::kRacesDetected], 0u);
  EXPECT_GT(page.second[Counter::kRaceChecks], 0u); // the pair WAS checked

  const auto word = run_false_sharing(cfg, race::Mode::kWord);
  ASSERT_EQ(word.first.size(), 1u);
  EXPECT_EQ(word.first[0].page, 0u);
  EXPECT_EQ(word.first[0].lo, 4u);
  EXPECT_EQ(word.first[0].hi, 8u);
  EXPECT_EQ(word.second[Counter::kRacesDetected], 1u);
}

// Determinism: the full report list — pages, ranges, contexts, interval
// sequence numbers — is identical across repeated runs.
TEST_P(RacyKernel, ReportsAreDeterministicAcrossRuns) {
  ScopedEnvClear env;
  const RaceParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = latency_model();
  const RacyRun a = run_racy_sor(cfg, race::Mode::kPage);
  const RacyRun b = run_racy_sor(cfg, race::Mode::kPage);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].page, b.reports[i].page);
    EXPECT_EQ(a.reports[i].lo, b.reports[i].lo);
    EXPECT_EQ(a.reports[i].hi, b.reports[i].hi);
    EXPECT_EQ(a.reports[i].ctx_a, b.reports[i].ctx_a);
    EXPECT_EQ(a.reports[i].ctx_b, b.reports[i].ctx_b);
    EXPECT_EQ(a.reports[i].seq_a, b.reports[i].seq_a);
    EXPECT_EQ(a.reports[i].seq_b, b.reports[i].seq_b);
  }
  EXPECT_EQ(a.stats[Counter::kRacesDetected],
            b.stats[Counter::kRacesDetected]);
}

INSTANTIATE_TEST_SUITE_P(
    ModesProtocols, RacyKernel,
    ::testing::Values(
        RaceParam{Mode::kThread, Protocol::kLazyRC, "ThreadLazy"},
        RaceParam{Mode::kThread, Protocol::kHomeLRC, "ThreadHome"},
        RaceParam{Mode::kProcess, Protocol::kLazyRC, "ProcessLazy"},
        RaceParam{Mode::kProcess, Protocol::kHomeLRC, "ProcessHome"}),
    [](const auto& info) { return std::string(info.param.name); });

// A properly synchronized variant of the same kernel — the last rank's sweep
// moved behind a barrier — must be race-free: the happens-before edge through
// the barrier orders the two writes.
TEST(RaceDetect, BarrierOrderedWritesAreNotRaces) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = latency_model();
  cfg.race.mode = race::Mode::kPage;
  DsmSystem dsm(cfg);
  const auto P = dsm.nprocs();
  auto row = dsm.alloc_page_aligned<std::uint64_t>(kPageSize /
                                                   sizeof(std::uint64_t));
  dsm.parallel([&](Rank r) {
    if (r == 0)
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellA;
    dsm.barrier();
    if (r == P - 1)
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellB;
    dsm.barrier();
  });
  EXPECT_EQ(dsm.race_detector()->race_count(), 0u);
  // The ordered value survives: the last write wins everywhere.
  for (int k = 0; k < kRacyElems; ++k) EXPECT_EQ(row[k], kCellB);
}

// ------------------------------------------------- off-mode bit-for-bit ----

struct RunResult {
  std::vector<long> sums;
  StatsSnapshot stats;
  double makespan_us = 0;
};

RunResult run_round_robin(const Config& base) {
  Config cfg = base;
  DsmSystem dsm(cfg);
  const int P = static_cast<int>(dsm.nprocs());
  const std::int64_t B = kPageSize / sizeof(long);
  auto data = dsm.alloc_page_aligned<long>(B * P);
  // One falsely-shared page every rank stripes a disjoint slice of, exactly
  // once, after a read-only warm-up epoch made it valid everywhere: the
  // stripe writes upgrade a valid copy in place and nobody ever reads the
  // page, so no mid-epoch fetch can force a concurrent writer's flush and
  // perturb the pinned counters. The closing barrier's sweep still sees
  // cross-creator write pairs — the detector must CHECK them
  // (kRaceChecks > 0) and confirm none overlap (kRacesDetected == 0).
  auto shared = dsm.alloc_page_aligned<long>(B);
  const std::int64_t stripe = B / P;
  for (std::int64_t i = 0; i < B * P; ++i) data[i] = 0;
  RunResult res;
  res.sums.assign(static_cast<std::size_t>(P), 0);
  dsm.parallel([&](Rank r) {
    volatile long warm = shared[0];
    (void)warm;
    dsm.barrier();
    for (std::int64_t i = 0; i < stripe; ++i)
      shared[r * stripe + i] = static_cast<long>(r) * 1000 + 1;
    for (int it = 0; it < 2 * P; ++it) {
      if (it % P == static_cast<int>(r)) {
        for (std::int64_t i = 0; i < B; ++i) data[r * B + i] += r + it + 1;
        const int prev = (static_cast<int>(r) + P - 1) % P;
        long s = 0;
        for (std::int64_t i = 0; i < B; ++i) s += data[prev * B + i];
        res.sums[r] += s;
      }
      dsm.barrier();
    }
  });
  res.stats = dsm.stats();
  res.makespan_us = dsm.master_time_us();
  return res;
}

// Quantities the workload fixes exactly (the piggyback-dependent byte totals
// vary run-to-run even on the seed, see tests/tmk/overlap_test.cc).
constexpr Counter kDeterministicCounters[] = {
    Counter::kMsgsSent,         Counter::kMsgsOffNode,
    Counter::kPageFaults,       Counter::kReadFaults,
    Counter::kWriteFaults,      Counter::kTwins,
    Counter::kDiffsCreated,     Counter::kDiffsApplied,
    Counter::kDiffBytesCreated, Counter::kFullPageFetches,
    Counter::kBarriers,
};

// The acceptance bar for the knob: detection is passive. Turning the detector
// on may not change a computed value, a modeled microsecond, or any
// pre-existing deterministic counter — and off means off: no detector object,
// zero race counters.
TEST(RaceDetect, OffAndOnAgreeExactlyAndOffMeansOff) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = Mode::kProcess;
  cfg.cost = latency_model();

  const RunResult off = run_round_robin(cfg);
  Config on = cfg;
  on.race.mode = race::Mode::kPage;
  const RunResult traced = run_round_robin(on);

  EXPECT_EQ(off.sums, traced.sums);
  EXPECT_DOUBLE_EQ(off.makespan_us, traced.makespan_us);
  for (const Counter c : kDeterministicCounters)
    EXPECT_EQ(off.stats[c], traced.stats[c]) << "counter " << counter_name(c);
  EXPECT_EQ(off.stats[Counter::kRaceChecks], 0u);
  EXPECT_EQ(off.stats[Counter::kRacesDetected], 0u);
  EXPECT_EQ(traced.stats[Counter::kRacesDetected], 0u); // round-robin is clean
  EXPECT_GT(traced.stats[Counter::kRaceChecks], 0u);

  Config off_cfg = cfg;
  DsmSystem plain(off_cfg);
  EXPECT_EQ(plain.race_detector(), nullptr);
}

// ---------------------------------------------- stats <-> trace audit ------

// Every kRaceChecks/kRacesDetected increment has a paired trace event and
// folding the trace reproduces the live board exactly (trace version 7).
TEST(RaceDetect, TraceReconstructsRaceCounters) {
  ScopedEnvClear env;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = latency_model();
  cfg.trace.enabled = true;
  cfg.race.mode = race::Mode::kPage;
  DsmSystem dsm(cfg);
  const auto P = dsm.nprocs();
  auto row = dsm.alloc_page_aligned<std::uint64_t>(kPageSize /
                                                   sizeof(std::uint64_t));
  dsm.parallel([&](Rank r) {
    if (r == 0)
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellA;
    if (r == P - 1)
      for (int k = 0; k < kRacyElems; ++k) row[k] = kCellB;
    dsm.barrier();
  });
  const StatsSnapshot live = dsm.stats();
  EXPECT_EQ(live[Counter::kRacesDetected], 1u);
  ASSERT_NE(dsm.tracer(), nullptr);
  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
}

// ------------------------------------------------- apps stay race-clean ----

// Loss-only perturbation, as the loss suite configures it.
net::PerturbOptions loss_with(std::uint64_t seed, double prob) {
  net::PerturbOptions o;
  o.enabled = true;
  o.seed = seed;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  o.loss_prob = prob;
  o.max_retries = 20;
  return o;
}

// Every stressor from the CI matrix stacked at once: tree collectives, 5%
// message loss, seeds 1..3 — and the detector at page granularity on top.
// All six applications must compute the reference checksum with ZERO race
// reports: no false positives from retransmitted diffs, piggybacked
// intervals or segmented broadcasts.
class AppsRaceClean : public ::testing::TestWithParam<std::uint64_t> {
protected:
  tmk::Config stacked_cfg(tmk::Mode mode) {
    tmk::Config cfg;
    cfg.topology = sim::Topology(2, 2);
    cfg.mode = mode;
    cfg.cost = sim::CostModel::zero();
    cfg.race.mode = race::Mode::kPage;
    cfg.coll.tree = true;
    cfg.perturb = loss_with(GetParam(), 0.05);
    return cfg;
  }

  static void expect_clean(const apps::Result& run, double want,
                           const char* app) {
    const double scale =
        std::max({std::abs(run.checksum), std::abs(want), 1.0});
    EXPECT_NEAR(run.checksum, want, 1e-8 * scale) << app;
    EXPECT_EQ(run.stats[Counter::kRacesDetected], 0u) << app;
    EXPECT_GT(run.stats[Counter::kRaceChecks], 0u) << app;
  }
};

TEST_P(AppsRaceClean, AllSixAppsZeroReports) {
  ScopedEnvClear env;
  {
    apps::sor::Params p{64, 48, 4, 1.0};
    const double want = apps::sor::run_seq(p, 1.0).checksum;
    expect_clean(apps::sor::run_omp(p, stacked_cfg(Mode::kThread)), want,
                 "sor");
  }
  {
    apps::mgs::Params p{48, 64, 3};
    const double want = apps::mgs::run_seq(p, 1.0).checksum;
    expect_clean(apps::mgs::run_omp(p, stacked_cfg(Mode::kProcess)), want,
                 "mgs");
  }
  {
    apps::tsp::Params p{11, 42, 7};
    const double want = apps::tsp::run_seq(p, 1.0).checksum;
    expect_clean(apps::tsp::run_omp(p, stacked_cfg(Mode::kThread)), want,
                 "tsp");
  }
  {
    apps::water::Params p{96, 2, 1e-3, 0.45, 11};
    const double want = apps::water::run_seq(p, 1.0).checksum;
    expect_clean(apps::water::run_omp(p, stacked_cfg(Mode::kProcess)), want,
                 "water");
  }
  {
    apps::fft3d::Params p{16, 16, 8, 2, 5};
    const double want = apps::fft3d::run_seq(p, 1.0).checksum;
    expect_clean(apps::fft3d::run_omp(p, stacked_cfg(Mode::kThread)), want,
                 "fft3d");
  }
  {
    apps::barnes::Params p{192, 2, 0.7, 0.02, 0.05, 17};
    const double want = apps::barnes::run_seq(p, 1.0).checksum;
    expect_clean(apps::barnes::run_omp(p, stacked_cfg(Mode::kProcess)), want,
                 "barnes");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppsRaceClean, ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

// The MPI versions never construct a DsmSystem: race=page in OMSP_CONFIG
// must be inert there — same checksum, no detector, no crash.
TEST(RaceDetect, MpiVersionsIgnoreRaceKnob) {
  ScopedEnvClear env;
  ::setenv("OMSP_CONFIG", "race=page", 1);
  apps::sor::Params p{64, 48, 4, 1.0};
  const double want = apps::sor::run_seq(p, 1.0).checksum;
  const auto mpi =
      apps::sor::run_mpi(p, sim::Topology(2, 2), sim::CostModel::zero());
  EXPECT_NEAR(mpi.checksum, want, 1e-9 * std::max(std::abs(want), 1.0));
  EXPECT_EQ(mpi.stats[Counter::kRacesDetected], 0u);
  ::unsetenv("OMSP_CONFIG");
}

// ------------------------------------------------------- the knob ----------

TEST(RaceEnv, ParsesOffPageWord) {
  EXPECT_FALSE(Config::parse("").race.enabled()); // no race key -> off
  const auto parsed = [](const char* v) {
    const auto o = race::Options::parse(v);
    return o.has_value() ? std::optional<race::Mode>(o->mode) : std::nullopt;
  };
  EXPECT_EQ(parsed("off"), race::Mode::kOff);
  EXPECT_EQ(parsed("page"), race::Mode::kPage);
  EXPECT_EQ(parsed("word"), race::Mode::kWord);
  EXPECT_EQ(parsed("bogus"), std::nullopt);
  EXPECT_EQ(parsed(""), std::nullopt);
  EXPECT_EQ(Config::parse("race=word").race.mode, race::Mode::kWord);
}

// Malformed specs are a hard error naming the key: die loudly instead of
// silently running without the correctness oracle.
TEST(RaceEnvDeathTest, MalformedSpecDiesLoudly) {
  EXPECT_DEATH((void)Config::parse("race=pages"),
               "bad value 'pages' for key 'race'");
}

} // namespace
} // namespace omsp::tmk
