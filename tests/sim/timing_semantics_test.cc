// Virtual-time semantics at the system level: the makespan rules that make
// Figure 1 measurable on a single-core host. All tests use cpu_scale = 0 so
// only modeled costs move the clocks, making outcomes exact.
#include <gtest/gtest.h>

#include <vector>

#include "../common/env_guard.hpp"
#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

Config timing_cfg(std::uint32_t nodes = 2, std::uint32_t ppn = 1) {
  Config cfg;
  cfg.topology = sim::Topology(nodes, ppn);
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  cfg.cost.cpu_scale = 0;
  return cfg;
}

TEST(TimingSemantics, LockGrantWaitsForReleaseTime) {
  Config cfg = timing_cfg();
  DsmSystem dsm(cfg);
  std::vector<double> t_after(2, 0);
  dsm.parallel([&](Rank r) {
    if (r == 0) {
      dsm.lock_acquire(4);
      dsm.clock(0).charge(10000); // hold the lock for 10ms of virtual time
      dsm.barrier();              // let rank 1 start its acquire attempt
      dsm.lock_release(4);
    } else {
      dsm.barrier();
      dsm.lock_acquire(4); // must wait for rank 0's virtual release time
      t_after[1] = dsm.clock(1).now_us();
      dsm.lock_release(4);
    }
  });
  EXPECT_GE(t_after[1], 10000.0);
}

TEST(TimingSemantics, MessageLatencyChargesAcquirer) {
  Config cfg = timing_cfg();
  cfg.cost.net_latency_us = 500;
  DsmSystem dsm(cfg);
  std::vector<double> taken(2, 0);
  dsm.parallel([&](Rank r) {
    if (r == 1) {
      const double before = dsm.clock(1).now_us();
      dsm.lock_acquire(0); // manager & token on context 0: remote acquire
      taken[1] = dsm.clock(1).now_us() - before;
      dsm.lock_release(0);
    }
  });
  // At least the request message latency must have been charged.
  EXPECT_GE(taken[1], 500.0);
}

// One-way cost of a `payload`-byte message between contexts a and b of `dsm`.
double hop_us(DsmSystem& dsm, ContextId a, ContextId b, std::size_t payload) {
  auto& router = dsm.router();
  return router.topology().message_us(router.model(),
                                      payload + net::kHeaderBytes,
                                      router.node_of(a), router.node_of(b));
}

TEST(TimingSemantics, BusyTryChargesOneRequestRoundTrip) {
  // A try of a lock another context holds asks the remote manager and gets
  // "busy" back: one accounted request, two charged hops, no acquire. Exact
  // hop costs assume the seed transport: pin the environment.
  const test::ScopedEnvClear env_guard;
  Config cfg = timing_cfg(3, 1);
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0;
  DsmSystem dsm(cfg);
  constexpr LockId kLock = 2; // manager: context 2
  const StatsBoard& board = dsm.context_stats(0);
  bool got = true;
  double took = -1;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t acquires = 0;
  dsm.parallel([&](Rank r) {
    if (r == 1) dsm.lock_acquire(kLock);
    dsm.barrier();
    if (r == 0) {
      const std::uint64_t m0 = board.get(Counter::kMsgsSent);
      const std::uint64_t b0 = board.get(Counter::kBytesSent);
      const std::uint64_t a0 = board.get(Counter::kLockAcquires) +
                               board.get(Counter::kLockRemoteAcquires);
      const double t0 = dsm.clock(0).now_us();
      got = dsm.lock_try_acquire(kLock);
      took = dsm.clock(0).now_us() - t0;
      msgs = board.get(Counter::kMsgsSent) - m0;
      bytes = board.get(Counter::kBytesSent) - b0;
      acquires = board.get(Counter::kLockAcquires) +
                 board.get(Counter::kLockRemoteAcquires) - a0;
    }
    dsm.barrier();
    if (r == 1) dsm.lock_release(kLock);
  });
  const std::size_t request = net::msg_fixed_bytes(net::MsgType::kLockRequest);
  EXPECT_FALSE(got);
  EXPECT_EQ(msgs, 1u);
  EXPECT_EQ(bytes, request + net::kHeaderBytes);
  EXPECT_EQ(acquires, 0u);
  EXPECT_DOUBLE_EQ(took, 2 * hop_us(dsm, 0, 2, request));
}

TEST(TimingSemantics, RemoteAcquireOfFreeLockPaysTheGrant) {
  // The lock was released long before the acquire, so its grant leaves when
  // the forwarded request reaches the last holder: the acquirer pays request,
  // manager service, forward and grant. lock_try_acquire takes the same path.
  // Exact hop costs assume the seed transport: pin the environment.
  const test::ScopedEnvClear env_guard;
  struct Run {
    double took = -1;
    double expected = 0;
    StatsSnapshot stats;
  };
  const auto run = [](bool try_lock) {
    Config cfg = timing_cfg(3, 1);
    cfg.cost = sim::CostModel::sp2_default();
    cfg.cost.cpu_scale = 0;
    DsmSystem dsm(cfg);
    constexpr LockId kLock = 1; // manager: context 1
    Run out;
    dsm.parallel([&](Rank r) {
      if (r == 2) { // leaves the token cached at context 2
        dsm.lock_acquire(kLock);
        dsm.lock_release(kLock);
      }
      dsm.barrier();
      if (r == 0) {
        const double t0 = dsm.clock(0).now_us();
        if (try_lock)
          EXPECT_TRUE(dsm.lock_try_acquire(kLock));
        else
          dsm.lock_acquire(kLock);
        out.took = dsm.clock(0).now_us() - t0;
        dsm.lock_release(kLock);
      }
    });
    const std::size_t request =
        net::msg_fixed_bytes(net::MsgType::kLockRequest) +
        VectorTime::wire_size(dsm.num_contexts());
    const std::size_t grant = net::msg_fixed_bytes(net::MsgType::kLockGrant) +
                              records_wire_size({});
    out.expected = hop_us(dsm, 0, 1, request) + cfg.cost.lock_service_us +
                   hop_us(dsm, 1, 2, request) + hop_us(dsm, 2, 0, grant);
    out.stats = dsm.stats();
    return out;
  };
  const Run acquired = run(false);
  const Run tried = run(true);
  EXPECT_NEAR(acquired.took, acquired.expected, 1e-9);
  EXPECT_EQ(tried.took, acquired.took);
  EXPECT_EQ(tried.stats.v, acquired.stats.v);
}

TEST(TimingSemantics, JoinDominatesSlowestWorker) {
  Config cfg = timing_cfg(2, 2);
  DsmSystem dsm(cfg);
  dsm.parallel([&](Rank r) {
    if (r == 3) dsm.clock(3).charge(42000); // one slow worker
  });
  EXPECT_GE(dsm.master_time_us(), 42000.0);
}

TEST(TimingSemantics, ClocksNeverRegressAcrossRegions) {
  Config cfg = timing_cfg(2, 2);
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 1.0;
  DsmSystem dsm(cfg);
  auto x = dsm.alloc_page_aligned<long>(512);
  double last = 0;
  for (int round = 0; round < 5; ++round) {
    dsm.parallel([&](Rank r) {
      x[r] = x[r] + 1;
      dsm.barrier();
    });
    const double now = dsm.master_time_us();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(TimingSemantics, OffNodeCostsMoreThanIntraNode) {
  // Same workload on one node (2 procs) vs two nodes (1 proc each): the
  // cross-node version pays switch latencies and must take longer. The
  // margin assumes the seed fetch path — pin the environment.
  const test::ScopedEnvClear env_guard;
  const auto run = [](std::uint32_t nodes, std::uint32_t ppn) {
    Config cfg;
    cfg.topology = sim::Topology(nodes, ppn);
    cfg.heap_bytes = 1u << 20;
    cfg.cost = sim::CostModel::sp2_default();
    cfg.cost.cpu_scale = 0;
    DsmSystem dsm(cfg);
    auto x = dsm.alloc_page_aligned<long>(1024);
    dsm.parallel([&](Rank r) {
      for (int round = 0; round < 5; ++round) {
        x[r * 512] = round;
        dsm.barrier();
        volatile long v = x[(1 - r) * 512];
        (void)v;
        dsm.barrier();
      }
    });
    return dsm.master_time_us();
  };
  const double intra = run(1, 2);
  const double inter = run(2, 1);
  EXPECT_GT(inter, intra);
}

TEST(TimingSemantics, ThreadModeBeatsProcessModeOnSharedReads) {
  // Four readers of one page: thread mode faults once per node, process mode
  // once per processor — the Table 3 effect expressed in time. The margin is
  // small enough that env-forced overlapped fetching can flip it; pin the
  // environment so the test measures the mode effect it names.
  const test::ScopedEnvClear env_guard;
  const auto run = [](Mode mode) {
    Config cfg;
    cfg.topology = sim::Topology(2, 2);
    cfg.mode = mode;
    cfg.heap_bytes = 1u << 20;
    cfg.cost = sim::CostModel::sp2_default();
    cfg.cost.cpu_scale = 0;
    DsmSystem dsm(cfg);
    auto x = dsm.alloc_page_aligned<long>(512);
    x[0] = 7;
    dsm.parallel([&](Rank r) {
      for (int round = 0; round < 10; ++round) {
        if (r == 0) x[round] = round;
        dsm.barrier();
        volatile long v = x[round];
        (void)v;
        dsm.barrier();
      }
    });
    return dsm.master_time_us();
  };
  EXPECT_LT(run(Mode::kThread), run(Mode::kProcess));
}

} // namespace
} // namespace omsp::tmk
