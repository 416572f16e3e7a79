// coll::Schedule derivation on every topology preset (leaders, levels,
// fan-out shape, asymmetric node sizes), the flat-vs-tree switchover and the
// `coll` spec grammar. The worked
// schedule-derivation example in docs/TOPOLOGY.md is asserted here
// (FatTreeWorkedExample) so the documented numbers cannot drift.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "../common/env_guard.hpp"
#include "common/env_config.hpp"
#include "net/collective.hpp"
#include "sim/topology.hpp"

namespace omsp::coll {
namespace {

// Schedule over the ranks of `t` placed by node_of_rank — the MPI shape and
// the process-mode DSM shape (thread mode maps members to nodes instead).
Schedule rank_schedule(const sim::Topology& t) {
  return Schedule::tree(t, t.nprocs(),
                        [&t](std::uint32_t m) { return t.node_of_rank(m); });
}

std::vector<sim::Topology> all_presets() {
  return {sim::Topology::sp2(), sim::Topology::flat_switch(64, 4),
          sim::Topology::fat_tree(2, 4, 2), sim::Topology::fat_tree(3, 2, 4),
          sim::Topology::asymmetric({4, 2, 2, 1})};
}

TEST(CollOptions, SpecGrammarRoundTrip) {
  auto central = Options::parse("central");
  ASSERT_TRUE(central.has_value());
  EXPECT_FALSE(central->tree);

  auto tree = Options::parse("tree");
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->tree);
  EXPECT_EQ(tree->flat_max_bytes, Options{}.flat_max_bytes);

  auto sized = Options::parse("tree:4096");
  ASSERT_TRUE(sized.has_value());
  EXPECT_TRUE(sized->tree);
  EXPECT_EQ(sized->flat_max_bytes, 4096u);

  // tree:0 is legal: every payload takes the hierarchy.
  auto always = Options::parse("tree:0");
  ASSERT_TRUE(always.has_value());
  EXPECT_EQ(always->flat_max_bytes, 0u);
}

TEST(CollOptions, MalformedSpecsRejected) {
  for (const char* bad : {"", "Tree", "flat", "central:1", "tree:", "tree:abc",
                          "tree:12x", "tree::4", "tree:-1", "tree: 4",
                          "tree:99999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(Options::parse(bad).has_value());
  }
}

// The `coll` key as MpiWorld resolves it: found among the other entries of
// OMSP_CONFIG, parsed by Options::parse; unset or empty means no entries.
TEST(CollOptions, EnvResolution) {
  const test::ScopedEnvClear env_guard;
  EXPECT_EQ(env_config(), nullptr);
  ::setenv("OMSP_CONFIG", "", 1);
  EXPECT_EQ(env_config(), nullptr);
  ::setenv("OMSP_CONFIG", "race=page;coll=tree:2048", 1);
  const auto entries = split_config(env_config());
  ::unsetenv("OMSP_CONFIG");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].key, "coll");
  const Options o = parse_config_value(entries[1], Options::parse);
  EXPECT_TRUE(o.tree);
  EXPECT_EQ(o.flat_max_bytes, 2048u);
}

TEST(CollOptionsDeathTest, MalformedEnvIsHardError) {
  // A typo must not silently fall back to the centralized engine.
  EXPECT_DEATH((void)parse_config_value(split_config("coll=ring")[0],
                                        Options::parse),
               "bad value 'ring' for key 'coll'");
}

TEST(CollSchedule, FlatStar) {
  const Schedule s = Schedule::flat(5);
  EXPECT_FALSE(s.is_tree());
  EXPECT_EQ(s.depth(), 1u);
  EXPECT_EQ(s.parent(0), -1);
  ASSERT_EQ(s.children(0).size(), 4u);
  for (std::uint32_t m = 1; m < 5; ++m) {
    EXPECT_EQ(s.parent(m), 0);
    EXPECT_EQ(s.level(m), 0u);
    EXPECT_TRUE(s.children(m).empty());
  }
}

TEST(CollSchedule, BuildAppliesSizeSwitchover) {
  const auto topo = sim::Topology::fat_tree(2, 4, 2);
  const auto node_of = [&topo](std::uint32_t m) { return topo.node_of_rank(m); };
  Options central;
  EXPECT_FALSE(
      Schedule::build(topo, topo.nprocs(), 1 << 20, central, node_of).is_tree());
  Options tree;
  tree.tree = true;
  tree.flat_max_bytes = 1024;
  EXPECT_FALSE(
      Schedule::build(topo, topo.nprocs(), 1024, tree, node_of).is_tree());
  EXPECT_TRUE(
      Schedule::build(topo, topo.nprocs(), 1025, tree, node_of).is_tree());
}

// Structural invariants on every preset: member 0 is the root; parents are
// lower-indexed (the leader rule); an edge's level is exactly the top stage
// between the two endpoints' nodes; leaders really are the lowest member of
// their group; traversal orders visit children before/after parents.
TEST(CollSchedule, LeaderDerivationEveryPreset) {
  for (const auto& t : all_presets()) {
    SCOPED_TRACE(t.spec());
    const Schedule s = rank_schedule(t);
    ASSERT_EQ(s.size(), t.nprocs());
    EXPECT_TRUE(s.is_tree());
    EXPECT_EQ(s.parent(0), -1);
    std::uint32_t edges = 0;
    for (std::uint32_t m = 1; m < s.size(); ++m) {
      const int parent = s.parent(m);
      ASSERT_GE(parent, 0);
      EXPECT_LT(static_cast<std::uint32_t>(parent), m); // leader = lowest index
      const NodeId nm = t.node_of_rank(m);
      const NodeId np = t.node_of_rank(static_cast<Rank>(parent));
      EXPECT_EQ(s.level(m), t.top_stage(nm, np));
      // The parent really is the leader: no member below it shares m's group
      // at the edge level, and no member below m shares a strictly cheaper
      // level (else m would have attached there instead).
      for (std::uint32_t o = 0; o < m; ++o) {
        const std::uint32_t shared = t.top_stage(t.node_of_rank(o), nm);
        if (o < static_cast<std::uint32_t>(parent)) {
          EXPECT_GT(shared, s.level(m))
              << "member " << o << " undercuts the leader of " << m;
        } else {
          EXPECT_GE(shared, s.level(m))
              << "member " << o << " offers " << m << " a cheaper attachment";
        }
      }
      ++edges;
    }
    EXPECT_EQ(edges, s.size() - 1); // spanning tree

    // Traversal orders respect the tree.
    std::vector<std::uint32_t> pos_up(s.size()), pos_down(s.size());
    const auto up = s.up_order(), down = s.down_order();
    ASSERT_EQ(up.size(), s.size());
    ASSERT_EQ(down.size(), s.size());
    for (std::uint32_t i = 0; i < s.size(); ++i) {
      pos_up[up[i]] = i;
      pos_down[down[i]] = i;
    }
    for (std::uint32_t m = 1; m < s.size(); ++m) {
      EXPECT_LT(pos_up[m], pos_up[static_cast<std::uint32_t>(s.parent(m))]);
      EXPECT_GT(pos_down[m], pos_down[static_cast<std::uint32_t>(s.parent(m))]);
    }
  }
}

// The docs/TOPOLOGY.md worked example: fat:2x4x2 (16 nodes x 2 procs, 4
// nodes per edge switch, 4 edge switches under one spine) over all 32 ranks.
TEST(CollSchedule, FatTreeWorkedExample) {
  const auto t = sim::Topology::fat_tree(2, 4, 2);
  const Schedule s = rank_schedule(t);
  EXPECT_EQ(s.depth(), 3u);

  // 16 intra-node edges, 12 edge-switch edges, 3 spine edges = 31 = p-1.
  std::map<std::uint32_t, std::uint32_t> edges_by_level;
  for (std::uint32_t m = 1; m < s.size(); ++m) ++edges_by_level[s.level(m)];
  EXPECT_EQ(edges_by_level[0], 16u);
  EXPECT_EQ(edges_by_level[1], 12u);
  EXPECT_EQ(edges_by_level[2], 3u);

  // Rank 11 (node 5): 11 -> 10 intra-node, 10 -> 8 across the edge switch,
  // 8 -> 0 across the spine.
  EXPECT_EQ(s.parent(11), 10);
  EXPECT_EQ(s.level(11), 0u);
  EXPECT_EQ(s.parent(10), 8);
  EXPECT_EQ(s.level(10), 1u);
  EXPECT_EQ(s.parent(8), 0);
  EXPECT_EQ(s.level(8), 2u);

  // Root fan-out, far-first: spine leaders 8/16/24, then edge-switch
  // leaders 2/4/6, then the root's own node peer 1.
  const std::vector<std::uint32_t> expect_kids = {8, 16, 24, 2, 4, 6, 1};
  EXPECT_EQ(s.children(0), expect_kids);
}

// Asymmetric node sizes: leaders follow the rank blocks (4+2+2+1).
TEST(CollSchedule, AsymmetricNodeSizes) {
  const auto t = sim::Topology::asymmetric({4, 2, 2, 1});
  const Schedule s = rank_schedule(t);
  EXPECT_EQ(s.depth(), 2u);
  // Node leaders are the first rank of each block: 0, 4, 6, 8.
  for (std::uint32_t m : {1u, 2u, 3u}) {
    EXPECT_EQ(s.parent(m), 0);
    EXPECT_EQ(s.level(m), 0u);
  }
  EXPECT_EQ(s.parent(5), 4);
  EXPECT_EQ(s.parent(7), 6);
  for (std::uint32_t m : {4u, 6u, 8u}) {
    EXPECT_EQ(s.parent(m), 0);
    EXPECT_EQ(s.level(m), 1u);
  }
  // Node 3 hosts a single rank: it is its own node leader and attaches at
  // the switch level like any other node leader.
  EXPECT_TRUE(s.children(8).empty());
}

// Thread-mode shape: members are nodes (the DSM barrier's mapping). A
// 3-level fat tree chains one hop per tier.
TEST(CollSchedule, NodeMembersDeepFatTree) {
  const auto t = sim::Topology::fat_tree(3, 2, 4);
  const Schedule s =
      Schedule::tree(t, t.nodes(), [](std::uint32_t m) { return m; });
  EXPECT_EQ(s.depth(), 3u);
  const std::vector<int> expect_parent = {-1, 0, 0, 2, 0, 4, 4, 6};
  const std::vector<std::uint32_t> expect_level = {0, 1, 2, 1, 3, 1, 2, 1};
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(s.parent(m), expect_parent[m]) << "member " << m;
    if (m > 0) {
      EXPECT_EQ(s.level(m), expect_level[m]) << "member " << m;
    }
  }
}

// On a flat switch the hierarchy degenerates to the centralized star of
// node leaders — the schedule adds no artificial depth.
TEST(CollSchedule, FlatSwitchDegeneratesToStar) {
  const auto t = sim::Topology::flat_switch(64, 4);
  const Schedule s =
      Schedule::tree(t, t.nodes(), [](std::uint32_t m) { return m; });
  EXPECT_EQ(s.depth(), 1u);
  for (std::uint32_t m = 1; m < 64; ++m) {
    EXPECT_EQ(s.parent(m), 0);
    EXPECT_EQ(s.level(m), 1u);
  }
}

} // namespace
} // namespace omsp::coll
