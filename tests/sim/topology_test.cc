// Hierarchical topology descriptor: rank <-> leaf round trips for every
// preset, path-stage enumeration, the bit-for-bit sp2 == legacy-cost
// guarantee and spec parsing. The worked cost
// examples in docs/TOPOLOGY.md are asserted here (FatTreeWorkedExamples) so
// the documented numbers cannot drift from the code.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/topology.hpp"

namespace omsp::sim {
namespace {

std::vector<Topology> all_presets() {
  return {Topology::sp2(), Topology::flat_switch(64, 4),
          Topology::fat_tree(2, 4, 2), Topology::fat_tree(3, 2, 4),
          Topology::asymmetric({4, 2, 2, 1})};
}

TEST(TopologyDescriptor, RankLeafRoundTripEveryPreset) {
  for (const auto& t : all_presets()) {
    SCOPED_TRACE(t.spec());
    std::uint32_t total = 0;
    for (NodeId n = 0; n < t.nodes(); ++n) total += t.procs_on_node(n);
    EXPECT_EQ(t.nprocs(), total);
    for (Rank r = 0; r < t.nprocs(); ++r) {
      const NodeId n = t.node_of_rank(r);
      const ProcId p = t.proc_of_rank(r);
      EXPECT_LT(n, t.nodes());
      EXPECT_LT(p, t.procs_on_node(n));
      EXPECT_EQ(t.rank_of(n, p), r);
    }
    // Node-major: consecutive ranks fill a node before spilling over.
    for (Rank r = 0; r + 1 < t.nprocs(); ++r)
      EXPECT_LE(t.node_of_rank(r), t.node_of_rank(r + 1));
  }
}

TEST(TopologyDescriptor, PathStagesSymmetricAndShaped) {
  for (const auto& t : all_presets()) {
    SCOPED_TRACE(t.spec());
    for (NodeId a = 0; a < t.nodes(); ++a) {
      for (NodeId b = 0; b < t.nodes(); ++b) {
        EXPECT_EQ(t.top_stage(a, b), t.top_stage(b, a));
        EXPECT_EQ(t.path_stages(a, b), t.path_stages(b, a));
        const auto path = t.path_stages(a, b);
        if (a == b) {
          EXPECT_EQ(path, std::vector<std::uint32_t>{0});
        } else {
          // Up through 1..k, down through k-1..1: palindromic, length 2k-1,
          // peaking at the top stage.
          const std::uint32_t k = t.top_stage(a, b);
          ASSERT_EQ(path.size(), 2u * k - 1);
          for (std::size_t i = 0; i < path.size(); ++i) {
            EXPECT_EQ(path[i], path[path.size() - 1 - i]);
            EXPECT_EQ(path[i], i < k ? i + 1 : 2 * k - 1 - i);
          }
        }
      }
    }
  }
}

TEST(TopologyDescriptor, FatTreeGrouping) {
  const Topology t = Topology::fat_tree(2, 4, 2);
  EXPECT_EQ(t.nodes(), 16u);
  EXPECT_EQ(t.nprocs(), 32u);
  EXPECT_EQ(t.top_stage(0, 0), 0u);  // same node
  EXPECT_EQ(t.top_stage(0, 3), 1u);  // same edge switch (nodes 0-3)
  EXPECT_EQ(t.top_stage(0, 4), 2u);  // crosses the spine
  EXPECT_EQ(t.top_stage(12, 15), 1u);
  EXPECT_EQ(t.top_stage(3, 12), 2u);
}

// The tier-1 guard: the sp2 preset must reproduce the legacy binary
// intra/inter cost split EXACTLY (EXPECT_EQ on doubles, not NEAR) for a
// grid of message sizes, under both the default and the zero cost model.
TEST(TopologyDescriptor, Sp2CostBitForBitMatchesLegacy) {
  const Topology sp2 = Topology::sp2();
  for (const CostModel& m : {CostModel::sp2_default(), CostModel::zero()}) {
    for (const std::size_t bytes :
         {std::size_t{0}, std::size_t{1}, std::size_t{64}, std::size_t{1024},
          std::size_t{4096}, std::size_t{65536}, std::size_t{1} << 20}) {
      EXPECT_EQ(sp2.message_us(m, bytes, 0, 0), m.message_us(bytes, true));
      EXPECT_EQ(sp2.message_us(m, bytes, 1, 1), m.message_us(bytes, true));
      EXPECT_EQ(sp2.message_us(m, bytes, 0, 3), m.message_us(bytes, false));
      EXPECT_EQ(sp2.message_us(m, bytes, 2, 1), m.message_us(bytes, false));
    }
  }
  // The legacy two-arg constructor and the preset are the same machine.
  EXPECT_EQ(sp2, Topology(4, 4));
  EXPECT_EQ(sp2.nodes(), 4u);
  EXPECT_EQ(sp2.procs_per_node(), 4u);
}

// The exact numbers documented in docs/TOPOLOGY.md "Worked cost examples".
// fat_tree(2, 4, 2), default cost model, 1024-byte message:
//   intra-node:    10 + 1024/150                    = 16.8267 us
//   same switch:   60 + 1024/35                     = 89.2571 us
//   cross-switch:  2*(60 + 1024/35) + 25 + 1024/300 = 206.9276 us
TEST(TopologyDescriptor, FatTreeWorkedExamples) {
  const Topology t = Topology::fat_tree(2, 4, 2);
  const CostModel m = CostModel::sp2_default();
  const double intra = t.message_us(m, 1024, 0, 0);
  const double edge = t.message_us(m, 1024, 0, 3);
  const double spine = t.message_us(m, 1024, 0, 5);
  EXPECT_DOUBLE_EQ(intra, 10.0 + 1024.0 / 150.0);
  EXPECT_DOUBLE_EQ(edge, 60.0 + 1024.0 / 35.0);
  EXPECT_DOUBLE_EQ(spine,
                   2.0 * (60.0 + 1024.0 / 35.0) + 25.0 + 1024.0 / 300.0);
  EXPECT_NEAR(intra, 16.8267, 1e-4);
  EXPECT_NEAR(edge, 89.2571, 1e-4);
  EXPECT_NEAR(spine, 206.9276, 1e-4);
}

TEST(TopologyDescriptor, PerStageOverridesAndOccupancy) {
  // Explicit stage parameters beat the CostModel; occupancy is additive.
  std::vector<Stage> stages = {Stage{2, 5.0, 100.0, 1.0},
                               Stage{3, 40.0, 50.0, 2.0}};
  const Topology t(std::move(stages), "custom");
  const CostModel m = CostModel::zero(); // must not matter for pinned stages
  EXPECT_DOUBLE_EQ(t.message_us(m, 1000, 1, 1), 5.0 + 10.0 + 1.0);
  EXPECT_DOUBLE_EQ(t.message_us(m, 1000, 0, 2), 40.0 + 20.0 + 2.0);
}

TEST(TopologyDescriptor, AsymmetricMix) {
  const Topology t = Topology::asymmetric({4, 2, 2});
  EXPECT_FALSE(t.uniform());
  EXPECT_EQ(t.nodes(), 3u);
  EXPECT_EQ(t.nprocs(), 8u);
  EXPECT_EQ(t.procs_on_node(0), 4u);
  EXPECT_EQ(t.procs_on_node(2), 2u);
  EXPECT_EQ(t.node_of_rank(3), 0u);
  EXPECT_EQ(t.node_of_rank(4), 1u);
  EXPECT_EQ(t.node_of_rank(6), 2u);
  EXPECT_EQ(t.proc_of_rank(5), 1u);
  EXPECT_EQ(t.rank_of(2, 1), 7u);
  EXPECT_TRUE(t.same_node(0, 3));
  EXPECT_FALSE(t.same_node(3, 4));
}

TEST(TopologyDescriptor, ParseRoundTripsAndRejectsMalformed) {
  for (const auto& t : all_presets()) {
    const auto parsed = Topology::parse(t.spec());
    ASSERT_TRUE(parsed.has_value()) << t.spec();
    EXPECT_EQ(*parsed, t) << t.spec();
    EXPECT_EQ(parsed->spec(), t.spec());
  }
  EXPECT_EQ(Topology::parse("flat:64x4")->nodes(), 64u);
  EXPECT_EQ(Topology::parse("fat:2x8x2")->nprocs(), 128u);
  EXPECT_EQ(Topology::parse("asym:4+2+1")->nprocs(), 7u);
  for (const char* bad :
       {"", "bogus", "flat:", "flat:4", "flat:4x", "flat:0x4", "flat:4x4x2",
        "fat:2x4", "fat:2x4x4x4", "asym:", "asym:4+", "asym:4+0",
        "flat:4x4junk", "sp3"}) {
    EXPECT_FALSE(Topology::parse(bad).has_value()) << bad;
  }
}

TEST(TopologyDescriptor, LinkSegments) {
  const Topology flat = Topology::flat_switch(4, 2);
  // Same node: stage 0, keyed by the node itself.
  EXPECT_EQ(flat.link_segment(2, 2), (std::uint64_t{0} << 32) | 2);
  // Off node: stage 1, keyed by the SENDER's uplink — destination-agnostic.
  EXPECT_EQ(flat.link_segment(1, 0), flat.link_segment(1, 3));
  EXPECT_EQ(flat.link_segment(1, 0), (std::uint64_t{1} << 32) | 1);

  const Topology fat = Topology::fat_tree(2, 4, 2);
  // Within one edge group: the sender node's NIC.
  EXPECT_EQ(fat.link_segment(0, 3), (std::uint64_t{1} << 32) | 0);
  // Across the spine: the sender's edge-switch trunk (group of 4), shared
  // by every cross-spine sender in that group.
  EXPECT_EQ(fat.link_segment(0, 5), fat.link_segment(3, 12));
  EXPECT_EQ(fat.link_segment(0, 5), (std::uint64_t{2} << 32) | 0);
  EXPECT_NE(fat.link_segment(0, 5), fat.link_segment(5, 0));
}

// For ANY two-stage topology the contended path is the single uplink window
// Router::link_segment names — the guarantee that keeps flat presets (sp2
// included) on exactly one busy window per message, bit-for-bit with the
// pre-stage-aware transport.
TEST(TopologyDescriptor, PathSegmentsCollapseToLinkSegmentOnTwoStages) {
  for (const auto& t : {Topology::sp2(), Topology::flat_switch(8, 2),
                        Topology::asymmetric({4, 2, 2, 1})}) {
    SCOPED_TRACE(t.spec());
    for (NodeId a = 0; a < t.nodes(); ++a)
      for (NodeId b = 0; b < t.nodes(); ++b)
        EXPECT_EQ(t.path_segments(a, b),
                  std::vector<std::uint64_t>{t.link_segment(a, b)});
  }
}

TEST(TopologyDescriptor, PathSegmentsWalkFatTreeUpAndDown) {
  const Topology t = Topology::fat_tree(2, 4, 2); // 16 nodes, groups of 4
  // Same edge group: just the sender's NIC.
  EXPECT_EQ(t.path_segments(1, 3),
            (std::vector<std::uint64_t>{(std::uint64_t{1} << 32) | 1}));
  // Cross-spine 1 -> 14: up node 1's NIC and edge switch 0's trunk, down
  // node 14's NIC — in path order.
  const std::vector<std::uint64_t> expect = {(std::uint64_t{1} << 32) | 1,
                                             (std::uint64_t{2} << 32) | 0,
                                             (std::uint64_t{1} << 32) | 14};
  EXPECT_EQ(t.path_segments(1, 14), expect);
  for (const std::uint64_t seg : expect)
    EXPECT_EQ(Topology::segment_stage(seg),
              static_cast<std::uint32_t>(seg >> 32));
  // Same node: the single intra-node segment.
  EXPECT_EQ(t.path_segments(2, 2), (std::vector<std::uint64_t>{2}));
}

// sp2 stays all-kInherit: the per-stage congestion helpers must resolve
// EXACTLY (EXPECT_EQ on doubles) to the CostModel scalars, and per-message
// occupancy must equal the single-scalar model for every node pair. This is
// the bit-for-bit half of the stage-aware congestion contract.
TEST(TopologyDescriptor, InheritedCongestionResolvesToCostModelExactly) {
  CostModel m = CostModel::sp2_default();
  m.send_occupancy_us = 3.0;
  m.occupancy_byte_us = 0.25;
  m.link_contention_us = 9.0;
  const Topology sp2 = Topology::sp2();
  for (std::uint32_t i = 0; i < sp2.num_stages(); ++i) {
    EXPECT_EQ(sp2.stage_send_occupancy_us(m, i), m.send_occupancy_us);
    EXPECT_EQ(sp2.stage_occupancy_byte_us(m, i), m.occupancy_byte_us);
    EXPECT_EQ(sp2.stage_link_contention_us(m, i), m.link_contention_us);
    EXPECT_EQ(sp2.stage_occupancy_us(m, i, 100), m.occupancy_us(100));
  }
  for (NodeId a = 0; a < sp2.nodes(); ++a)
    for (NodeId b = 0; b < sp2.nodes(); ++b)
      EXPECT_EQ(sp2.message_occupancy_us(m, 1024, a, b), m.occupancy_us(1024));
}

TEST(TopologyDescriptor, Sp2CalibratedPinsSwitchCongestion) {
  const CostModel m = CostModel::sp2_default();
  const Topology sp2 = Topology::sp2();
  const Topology cal = Topology::sp2_calibrated();
  EXPECT_EQ(cal.spec(), "sp2cal");
  ASSERT_TRUE(Topology::parse("sp2cal").has_value());
  EXPECT_EQ(*Topology::parse("sp2cal"), cal);
  EXPECT_NE(cal, sp2);
  // Same machine shape, latency and bandwidth as sp2...
  EXPECT_EQ(cal.nodes(), 4u);
  EXPECT_EQ(cal.procs_per_node(), 4u);
  EXPECT_EQ(cal.message_us(m, 4096, 0, 3), sp2.message_us(m, 4096, 0, 3));
  // ...with the switch stage's congestion triple pinned to the documented
  // SP2 numbers (docs/TOPOLOGY.md "Per-stage congestion and calibration"):
  EXPECT_DOUBLE_EQ(cal.stage_send_occupancy_us(m, 1), 25.0);
  EXPECT_DOUBLE_EQ(cal.stage_occupancy_byte_us(m, 1), 0.01);
  EXPECT_DOUBLE_EQ(cal.stage_link_contention_us(m, 1), 30.0);
  // The node stage still inherits — intra-node costs are untouched.
  EXPECT_EQ(cal.stage_send_occupancy_us(m, 0), m.send_occupancy_us);
  EXPECT_EQ(cal.stage_link_contention_us(m, 0), m.link_contention_us);
}

// The worked calibration example from docs/TOPOLOGY.md "Per-stage congestion
// and calibration", asserted so the documented numbers cannot drift.
//
// Price the paper's Table 2 message traffic on sp2cal's switch stage and
// fold it into the paper's Table 1 sequential times across 16 processors:
//
//   comm(msgs, MB) = msgs * (latency 60 + send occupancy 25)
//                  + MB * 1e6 * (1/35 per-byte wire + 0.01 per-byte stack)
//   T16 = (T_seq + comm) / 16,  predicted speedup = T_seq / T16
//
// Every application must land in the paper's observed envelope: speedups in
// (1, 16] for both program versions, comfortably parallel (>= 5x) for the
// translator's thread-optimized version, strictly better than the original
// (whose traffic is larger in every row of Table 2), and Barnes — the
// paper's headline restructuring win — at >= 1.3x the original's speedup.
// Barnes's worked numbers are pinned tight as the docs example.
TEST(TopologyDescriptor, Sp2CalibrationReproducesTable1Band) {
  const CostModel m = CostModel::sp2_default();
  const Topology cal = Topology::sp2_calibrated();

  const double per_msg_us =
      cal.stage_cost_us(m, 1, 0) + cal.stage_occupancy_us(m, 1, 0);
  EXPECT_DOUBLE_EQ(per_msg_us, 60.0 + 25.0);
  const double per_byte_us = 1.0 / 35.0 + cal.stage_occupancy_byte_us(m, 1);

  struct Row {
    const char* app;
    double seq_s;      // Table 1 sequential seconds
    double thr_msgs;   // Table 2 thread-version messages
    double thr_mb;     // Table 2 thread-version MB
    double orig_msgs;  // Table 2 original-version messages
    double orig_mb;    // Table 2 original-version MB
  };
  const Row rows[] = {
      {"Barnes", 158.0, 100259, 166.4, 841565, 543.0},
      {"3D-FFT", 65.2, 31694, 126.5, 40975, 159.4},
      {"Water", 760.3, 24667, 42.7, 78402, 192.3},
      {"SOR", 149.0, 735, 0.07, 3637, 0.64},
      {"TSP", 248.1, 4853, 0.55, 9227, 2.8},
      {"MGS", 563.3, 37041, 102.2, 184583, 508.6},
  };
  auto speedup = [&](double seq_s, double msgs, double mb) {
    const double comm_s =
        (msgs * per_msg_us + mb * 1e6 * per_byte_us) / 1e6;
    return seq_s / ((seq_s + comm_s) / 16.0);
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.app);
    const double thr = speedup(r.seq_s, r.thr_msgs, r.thr_mb);
    const double orig = speedup(r.seq_s, r.orig_msgs, r.orig_mb);
    EXPECT_GT(thr, 5.0);
    EXPECT_LE(thr, 16.0);
    EXPECT_GT(orig, 1.0);
    EXPECT_LE(orig, 16.0);
    // Table 2's thread version sends less in every row, so it must predict
    // a strictly better runtime under the calibrated switch.
    EXPECT_GT(thr, orig);
  }
  // The docs' worked Barnes numbers: ~14.9s of modeled switch time for the
  // thread version against ~92.5s for the original — a 14.6x vs 10.1x
  // predicted speedup, mirroring the paper's Barnes restructuring win.
  const double barnes_thr = speedup(158.0, 100259, 166.4);
  const double barnes_orig = speedup(158.0, 841565, 543.0);
  EXPECT_NEAR(barnes_thr, 14.6, 0.1);
  EXPECT_NEAR(barnes_orig, 10.1, 0.1);
  EXPECT_GE(barnes_thr / barnes_orig, 1.3);
}

} // namespace
} // namespace omsp::sim
