// Unit tests for the simulation substrate: topology math, cost model, and
// the virtual clock (including the compute-exclusion brackets).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "sim/virtual_clock.hpp"

namespace omsp::sim {
namespace {

TEST(Topology, RankMapping) {
  Topology t(4, 4);
  EXPECT_EQ(t.nprocs(), 16u);
  EXPECT_EQ(t.node_of_rank(0), 0u);
  EXPECT_EQ(t.node_of_rank(3), 0u);
  EXPECT_EQ(t.node_of_rank(4), 1u);
  EXPECT_EQ(t.node_of_rank(15), 3u);
  EXPECT_EQ(t.proc_of_rank(5), 1u);
  EXPECT_EQ(t.rank_of(2, 3), 11u);
  for (Rank r = 0; r < t.nprocs(); ++r)
    EXPECT_EQ(t.rank_of(t.node_of_rank(r), t.proc_of_rank(r)), r);
}

TEST(Topology, SameNode) {
  Topology t(2, 2);
  EXPECT_TRUE(t.same_node(0, 1));
  EXPECT_FALSE(t.same_node(1, 2));
  EXPECT_TRUE(t.same_node(2, 3));
}

TEST(Topology, Sp2IsFourByFour) {
  EXPECT_EQ(Topology::sp2().nodes(), 4u);
  EXPECT_EQ(Topology::sp2().procs_per_node(), 4u);
}

TEST(CostModel, MessageCostsSplitByLocality) {
  CostModel m = CostModel::sp2_default();
  const double local = m.message_us(1024, true);
  const double remote = m.message_us(1024, false);
  EXPECT_LT(local, remote);
  // Latency floor even for empty messages.
  EXPECT_GE(m.message_us(0, false), m.net_latency_us);
  // Bandwidth term grows linearly.
  const double big = m.message_us(1 << 20, false);
  EXPECT_NEAR(big - remote,
              ((1 << 20) - 1024) / m.net_bw_bytes_per_us, 1e-6);
}

TEST(CostModel, ZeroModelIsFree) {
  CostModel z = CostModel::zero();
  EXPECT_LT(z.message_us(1 << 20, false), 1e-9);
  EXPECT_EQ(z.mprotect_us, 0.0);
  EXPECT_EQ(z.cpu_scale, 0.0);
}

TEST(VirtualClock, ChargeAndMerge) {
  VirtualClock c(1.0);
  c.charge(100);
  EXPECT_DOUBLE_EQ(c.now_us(), 100);
  c.advance_to(50); // merge never goes backwards
  EXPECT_DOUBLE_EQ(c.now_us(), 100);
  c.advance_to(400);
  EXPECT_DOUBLE_EQ(c.now_us(), 400);
}

TEST(VirtualClock, CpuAccrualScales) {
  VirtualClock c(10.0);
  volatile double sink = 0;
  for (int i = 0; i < 4000000; ++i) sink = sink + 1;
  c.sync_cpu();
  const double t1 = c.now_us();
  EXPECT_GT(t1, 0);
  // skip_cpu drops the elapsed CPU instead of accruing it.
  for (int i = 0; i < 4000000; ++i) sink = sink + 1;
  c.skip_cpu();
  EXPECT_DOUBLE_EQ(c.now_us(), t1);
}

TEST(VirtualClock, DiscountScalesWithCpuScale) {
  VirtualClock c(50.0);
  c.charge(1000);
  c.discount_cpu(2.0); // 2 host-us at scale 50 = 100 simulated us
  EXPECT_DOUBLE_EQ(c.now_us(), 900);
}

TEST(VirtualClock, ThreadLocalBinding) {
  EXPECT_EQ(VirtualClock::current(), nullptr);
  VirtualClock c(1.0);
  {
    VirtualClock::Binder bind(&c);
    EXPECT_EQ(VirtualClock::current(), &c);
    {
      VirtualClock inner(1.0);
      VirtualClock::Binder bind2(&inner);
      EXPECT_EQ(VirtualClock::current(), &inner);
    }
    EXPECT_EQ(VirtualClock::current(), &c);
  }
  EXPECT_EQ(VirtualClock::current(), nullptr);
}

TEST(VirtualClock, RuntimeSectionExcludesHostWork) {
  VirtualClock c(1000.0);
  VirtualClock::Binder bind(&c);
  // Host noise only ever adds CPU time to the bracket, so the least of
  // several trials is its overhead; a counted loop would show in every one.
  // The loop stays well under a millisecond: on a VM the first kernel exit
  // after a long user-mode run costs microseconds more the longer the run.
  double least = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 20; ++trial) {
    c.sync_cpu();
    const double before = c.now_us();
    {
      RuntimeSection rs;
      // "Runtime work" — must not count as scaled app compute.
      volatile double sink = 0;
      for (int i = 0; i < 200000; ++i) sink = sink + 1;
    }
    c.sync_cpu();
    least = std::min(least, c.now_us() - before);
  }
  // Only the (tiny) bracket overhead may have accrued, not the loop at
  // 1000x scale (which would be hundreds of milliseconds of virtual time).
  EXPECT_LT(least, 3000.0);
}

} // namespace
} // namespace omsp::sim
