// Protocol correctness on lossy links: with seeded message loss the
// reliable-delivery layer (seq/ack, RTO + exponential backoff, idempotent
// re-service) must deliver exact computed values on both protocols, both
// execution modes and both transports; loss schedules are a pure function of
// the seed, so reliability counters reproduce bit-for-bit; exhausting the
// retry cap surfaces net::TransportError instead of hanging; and the
// stats<->trace audit stays exact with retransmissions in flight.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "../common/env_guard.hpp"
#include "core/runtime.hpp"
#include "net/transport.hpp"
#include "trace/sinks.hpp"

namespace omsp::tmk {
namespace {

using test::ScopedEnvClear;

// Loss-only perturbation: jitter/duplicate/reorder off, so the only injected
// fault is dropped deliveries and everything else matches a clean run.
net::PerturbOptions loss_with(std::uint64_t seed, double prob) {
  net::PerturbOptions o;
  o.enabled = true;
  o.seed = seed;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  o.loss_prob = prob;
  // At p=0.2 an attempt fails with probability 1-(1-p)^2 = 0.36; the default
  // cap of 8 retries leaves ~1e-4 residual exhaustion odds per exchange,
  // enough to trip on a long run. Tests that WANT exhaustion set the cap to
  // 0 explicitly; here delivery must succeed.
  o.max_retries = 20;
  return o;
}

net::PerturbOptions drop_every_first(std::uint64_t seed) {
  net::PerturbOptions o = loss_with(seed, 0);
  // Adversarial mode: the first copy of every exchange is dropped in each
  // direction, so every single protocol message walks the full retransmit
  // path (request lost, reply/ack lost, third copy through).
  o.drop_first = true;
  o.max_retries = 8;
  return o;
}

// The protocol-hostile workload shared with perturb/overlap tests: a
// triangular elimination pattern where every iteration's writes are read by
// every later iteration across all contexts.
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

struct LossParam {
  std::uint64_t seed;
  Protocol protocol;
  bool overlap; // false: InlineTransport; true: QueuedTransport
  const char* name;
};

class LossyTriangular : public ::testing::TestWithParam<LossParam> {};

// The acceptance bar: seeds 1..3, both protocols, both transports, loss
// rates 0.05 and 0.2 plus the adversarial drop-first mode — every computed
// value identical to the clean reference run.
TEST_P(LossyTriangular, ExactResultsUnderSeededLoss) {
  const ScopedEnvClear env_guard;
  const LossParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.protocol = p.protocol;
  cfg.cost = sim::CostModel::zero();
  cfg.overlap.enabled = p.overlap;
  std::vector<long> ref;
  run_triangular(cfg, ref); // loss_prob = 0: the clean reference

  for (const double prob : {0.05, 0.2}) {
    std::vector<long> lossy;
    cfg.perturb = loss_with(p.seed, prob);
    run_triangular(cfg, lossy);
    ASSERT_EQ(lossy, ref) << "loss_prob=" << prob;
  }
  std::vector<long> adversarial;
  cfg.perturb = drop_every_first(p.seed);
  run_triangular(cfg, adversarial);
  ASSERT_EQ(adversarial, ref) << "drop_first";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LossyTriangular,
    ::testing::Values(
        LossParam{1, Protocol::kLazyRC, false, "LazySeed1Inline"},
        LossParam{2, Protocol::kLazyRC, false, "LazySeed2Inline"},
        LossParam{3, Protocol::kLazyRC, false, "LazySeed3Inline"},
        LossParam{1, Protocol::kHomeLRC, false, "HomeSeed1Inline"},
        LossParam{2, Protocol::kHomeLRC, false, "HomeSeed2Inline"},
        LossParam{3, Protocol::kHomeLRC, false, "HomeSeed3Inline"},
        LossParam{1, Protocol::kLazyRC, true, "LazySeed1Queued"},
        LossParam{2, Protocol::kLazyRC, true, "LazySeed2Queued"},
        LossParam{3, Protocol::kLazyRC, true, "LazySeed3Queued"},
        LossParam{1, Protocol::kHomeLRC, true, "HomeSeed1Queued"},
        LossParam{2, Protocol::kHomeLRC, true, "HomeSeed2Queued"},
        LossParam{3, Protocol::kHomeLRC, true, "HomeSeed3Queued"}),
    [](const auto& info) { return info.param.name; });

// Both execution modes under the adversarial mode (process mode moves every
// rank to its own context, so every exchange is cross-context traffic).
struct ModeParam {
  Mode mode;
  Protocol protocol;
  const char* name;
};

class DropFirstModes : public ::testing::TestWithParam<ModeParam> {};

TEST_P(DropFirstModes, ExactResultsInBothModes) {
  const ScopedEnvClear env_guard;
  const ModeParam& p = GetParam();
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = p.mode;
  cfg.protocol = p.protocol;
  cfg.cost = sim::CostModel::zero();
  std::vector<long> ref, lossy;
  run_triangular(cfg, ref);
  cfg.perturb = drop_every_first(1);
  run_triangular(cfg, lossy);
  ASSERT_EQ(lossy, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DropFirstModes,
    ::testing::Values(ModeParam{Mode::kThread, Protocol::kLazyRC, "ThreadLazy"},
                      ModeParam{Mode::kProcess, Protocol::kLazyRC,
                                "ProcessLazy"},
                      ModeParam{Mode::kThread, Protocol::kHomeLRC,
                                "ThreadHome"},
                      ModeParam{Mode::kProcess, Protocol::kHomeLRC,
                                "ProcessHome"}),
    [](const auto& info) { return info.param.name; });

// Loss schedules come from per-link seeded streams, so a heavy loss rate
// changes nothing about the computed data — run over run, per seed. (Exact
// counter reproduction is a net-layer property — see
// PerturbingTransport.SameSeedSameLossSchedule — because even the clean
// system's message count is service-time dependent; here the system-level
// claim is bit-identical results plus real, audited loss traffic.)
TEST(LossDeterminism, SameSeedSameResultsWithRealLossTraffic) {
  const ScopedEnvClear env_guard;
  auto run = [] {
    Config cfg;
    cfg.topology = sim::Topology(4, 1); // every context on its own node
    cfg.cost = sim::CostModel::zero();
    cfg.perturb = loss_with(2, 0.2);
    std::vector<long> vals;
    run_triangular(cfg, vals);
    return vals;
  };
  EXPECT_EQ(run(), run());

  Config cfg;
  cfg.topology = sim::Topology(4, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.perturb = loss_with(2, 0.2);
  DsmSystem dsm(cfg);
  auto data = dsm.alloc_page_aligned<long>(1024);
  for (int i = 0; i < 1024; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 8; ++it) {
      for (int i = 0; i < 256; ++i) {
        const int idx = static_cast<int>(r) * 256 + i;
        data[idx] = data[idx] + i + it;
      }
      dsm.barrier();
    }
  });
  for (int i = 0; i < 1024; ++i)
    ASSERT_EQ(data[i], 8 * (i % 256) + 28) << "cell " << i;
  const auto s = dsm.stats();
  // p=0.2 across a whole run: losses certainly happened, every loss has its
  // retransmission, and notice-channel recoveries were acked.
  EXPECT_GT(s[Counter::kMsgsLost], 0u);
  EXPECT_GT(s[Counter::kRetransmits], 0u);
  EXPECT_GT(s[Counter::kAcksSent], 0u);
}

// Retry-cap exhaustion surfaces as net::TransportError from the protocol
// operation that needed the exchange — a typed failure, never a hang.
TEST(LossHardFailure, RetryCapExhaustionSurfacesNotHangs) {
  const ScopedEnvClear env_guard;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  cfg.perturb = drop_every_first(1);
  cfg.perturb.max_retries = 0; // one copy per exchange, and it always drops
  DsmSystem dsm(cfg);
  // The fork descriptor is the first message of any parallel region; with an
  // undeliverable link the region must fail loudly on the master thread.
  EXPECT_THROW(dsm.parallel([&](Rank) {}), net::TransportError);
}

// With loss on, every counter bump still has its paired trace event:
// the trace reconstructs the boards exactly, including the new
// loss/retransmit/ack counters, and both loss markers appear.
TEST(LossyTrace, ReconstructsCountersExactly) {
  const ScopedEnvClear env_guard;
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  cfg.trace.enabled = true;
  cfg.perturb = loss_with(2, 0.2);
  DsmSystem dsm(cfg);
  auto data = dsm.alloc_page_aligned<long>(512);
  for (int i = 0; i < 512; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 10; ++it) {
      for (int i = 0; i < 128; ++i) {
        const int idx = static_cast<int>(r) * 128 + i;
        data[idx] = data[idx] + i + it;
      }
      dsm.barrier();
    }
  });
  const StatsSnapshot live = dsm.stats();
  EXPECT_GT(live[Counter::kMsgsLost], 0u);
  EXPECT_GT(live[Counter::kRetransmits], 0u);
  EXPECT_GT(live[Counter::kAcksSent], 0u);
  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
  bool saw_lost = false, saw_retransmit = false;
  for (const auto& e : dsm.tracer()->events()) {
    if (e.kind == trace::EventKind::kMessageLost) saw_lost = true;
    if (e.kind == trace::EventKind::kRetransmit) saw_retransmit = true;
  }
  EXPECT_TRUE(saw_lost);
  EXPECT_TRUE(saw_retransmit);
}

// `loss=<p>` in OMSP_CONFIG is a code-free enable: DsmSystem stacks the
// loss-only perturbing transport from the environment, and reset_stats()
// clears the transport-local tallies together with boards and trace
// (system-level).
TEST(LossFromEnv, SystemStacksLossOnlyTransportAndResetsStats) {
  const ScopedEnvClear env_guard;
  ::setenv("OMSP_CONFIG", "loss=0.1", 1);
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.cost = sim::CostModel::zero();
  cfg.cost.rto_us = 1; // a nonzero RTO, so losses leave rto_wait_us > 0
  DsmSystem dsm(cfg);
  auto& pt = dynamic_cast<net::PerturbingTransport&>(dsm.router().transport());
  EXPECT_TRUE(pt.options().lossy());
  EXPECT_DOUBLE_EQ(pt.options().loss_prob, 0.1);
  EXPECT_EQ(pt.options().duplicate_prob, 0.0); // loss-only mode

  auto data = dsm.alloc_page_aligned<long>(256);
  for (int i = 0; i < 256; ++i) data[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 6; ++it) {
      for (int i = 0; i < 128; ++i) {
        const int idx = static_cast<int>(r) * 128 + i;
        data[idx] = data[idx] + 1;
      }
      dsm.barrier();
    }
  });
  EXPECT_GT(pt.stats().rto_wait_us, 0.0);
  dsm.reset_stats();
  EXPECT_EQ(pt.stats().rto_wait_us, 0.0);
  EXPECT_EQ(dsm.stats()[Counter::kMsgsLost], 0u);
}

} // namespace
} // namespace omsp::tmk
