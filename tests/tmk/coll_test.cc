// DSM barrier on the hierarchical collective engine: coll=tree reduces
// interval/write-notice metadata up the topology tree and broadcasts
// departures down it. These tests pin (1) central as the untouched default,
// (2) exact value equivalence between central and tree episodes on both
// protocols, (3) determinism of the tree episode under seeded loss, (4) the
// coll_stages/coll_bytes counter gating, and (5) the modeled-time win of the
// tree episode on a deep machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../common/env_guard.hpp"
#include "core/runtime.hpp"
#include "net/collective.hpp"

namespace omsp::tmk {
namespace {

using test::ScopedEnvClear;

struct RunResult {
  std::vector<long> values;
  StatsSnapshot stats;
  double master_us = 0;
};

// A barrier-heavy ring stencil inside ONE parallel region: each iteration
// every rank reads its left neighbor's slice, barriers, rewrites its own
// slice, barriers again. The write notices of iteration i must reach the
// ring neighbor through the barrier for iteration i+1 to compute the right
// values — exactly the metadata the tree episode merges at leaders.
RunResult run_ring_stencil(const Config& base) {
  const int I = 8;
  const std::int64_t D = 64;
  const long M = 1000003;
  Config cfg = base;
  core::OmpRuntime rt(cfg);
  const std::int64_t P = rt.max_threads();
  auto a = rt.alloc_page_aligned<long>(P * D);
  for (std::int64_t i = 0; i < P * D; ++i) a[i] = i % 7 + 1;
  rt.parallel([&](core::Team& t) {
    const std::int64_t r = t.thread_num();
    const std::int64_t left = (r + P - 1) % P;
    for (int it = 0; it < I; ++it) {
      long acc = 0;
      for (std::int64_t k = 0; k < D; ++k)
        acc = (acc * 31 + a[left * D + k]) % M;
      t.barrier(); // everyone done reading iteration it's values
      for (std::int64_t k = 0; k < D; ++k)
        a[r * D + k] = (a[r * D + k] * 3 + acc + k) % M;
      t.barrier(); // everyone done writing iteration it+1's inputs
    }
  });
  RunResult r;
  r.values.assign(a.local(), a.local() + P * D);
  r.stats = rt.dsm().stats();
  r.master_us = rt.dsm().master_time_us();
  return r;
}

Config tree_config(Config cfg) {
  cfg.coll.tree = true;
  return cfg;
}

TEST(DsmColl, CentralIsDefaultAndEmitsNoCollStages) {
  const ScopedEnvClear env_guard;
  Config cfg;
  EXPECT_FALSE(cfg.coll.tree); // no coll key: the seed barrier, untouched
  cfg.topology = sim::Topology::fat_tree(2, 2, 2);
  cfg.cost = sim::CostModel::zero();
  const RunResult r = run_ring_stencil(cfg);
  EXPECT_EQ(r.stats[Counter::kCollStages], 0u);
  EXPECT_EQ(r.stats[Counter::kCollBytes], 0u);
}

TEST(DsmColl, TreeBarrierExactResultsBothProtocols) {
  const ScopedEnvClear env_guard;
  for (const Protocol proto : {Protocol::kLazyRC, Protocol::kHomeLRC}) {
    SCOPED_TRACE(static_cast<int>(proto));
    Config cfg;
    cfg.protocol = proto;
    cfg.topology = sim::Topology::fat_tree(2, 2, 2);
    cfg.cost = sim::CostModel::zero();
    const RunResult central = run_ring_stencil(cfg);
    const RunResult tree = run_ring_stencil(tree_config(cfg));
    ASSERT_EQ(tree.values, central.values);
    // Leader-merged metadata still reaches everyone: the tree episode emits
    // schedule-edge messages, the central one none.
    EXPECT_GT(tree.stats[Counter::kCollStages], 0u);
    EXPECT_EQ(central.stats[Counter::kCollStages], 0u);
  }
}

TEST(DsmColl, TreeBarrierExactResultsOnAsymmetricNodes) {
  const ScopedEnvClear env_guard;
  Config cfg;
  cfg.topology = sim::Topology::asymmetric({4, 2, 2, 1});
  cfg.cost = sim::CostModel::zero();
  const RunResult central = run_ring_stencil(cfg);
  const RunResult tree = run_ring_stencil(tree_config(cfg));
  ASSERT_EQ(tree.values, central.values);
}

TEST(DsmColl, TreeBarrierDeterministicUnderSeededLoss) {
  // The whole tree episode is modeled by the last-arriving thread in a fixed
  // traversal order, so its transport draws are a pure function of the seed:
  // same seed, bit-identical reliability and collective counters (the
  // contract the loss suite pins for the centralized path) — and the
  // computed values still match the clean central reference.
  const ScopedEnvClear env_guard;
  Config cfg;
  // One rank per node: each context's message order is program-ordered, so
  // the per-link RNG streams give every message the same draws in both runs.
  cfg.topology = sim::Topology::fat_tree(2, 2, 1);
  cfg.cost = sim::CostModel::zero();
  const RunResult ref = run_ring_stencil(cfg);

  net::PerturbOptions po;
  po.enabled = true;
  po.seed = 2;
  po.jitter_max_us = 0;
  po.duplicate_prob = 0;
  po.reorder_prob = 0;
  po.loss_prob = 0.2;
  po.max_retries = 20;
  Config lossy = tree_config(cfg);
  lossy.perturb = po;
  const RunResult a = run_ring_stencil(lossy);
  const RunResult b = run_ring_stencil(lossy);
  ASSERT_EQ(a.values, ref.values);
  ASSERT_EQ(b.values, ref.values);
  EXPECT_EQ(a.stats[Counter::kMsgsLost], b.stats[Counter::kMsgsLost]);
  EXPECT_EQ(a.stats[Counter::kRetransmits], b.stats[Counter::kRetransmits]);
  EXPECT_EQ(a.stats[Counter::kCollStages], b.stats[Counter::kCollStages]);
  EXPECT_GT(a.stats[Counter::kRetransmits], 0u);
}

TEST(DsmColl, TreeBarrierCheaperOnWideMachineWithOccupancy) {
  // With the occupancy knobs off both engines price a message by latency
  // alone, and the centralized star (one spine hop) beats the tree's chained
  // hops. Turn injection occupancy on — each message holds its sender's link
  // for send_occupancy_us + occupancy_byte_us * bytes — and the manager's
  // 63-message departure fan-out serializes while the tree spreads the same
  // work over node and edge-switch leaders (radix 8). fat:2x8x1, paper wire
  // costs, zero cpu_scale: modeled time must drop strictly.
  const ScopedEnvClear env_guard;
  Config cfg;
  cfg.topology = sim::Topology::fat_tree(2, 8, 1); // 64 nodes, 64 ranks
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0;
  cfg.cost.send_occupancy_us = 10;
  cfg.cost.occupancy_byte_us = 0.01;
  const RunResult central = run_ring_stencil(cfg);
  const RunResult tree = run_ring_stencil(tree_config(cfg));
  ASSERT_EQ(tree.values, central.values);
  EXPECT_LT(tree.master_us, central.master_us);
}

// topo= + coll=tree stacking in one OMSP_CONFIG: the topology is resolved at
// config-assembly time (Config::parse(...).topology — the bench path) and
// the collective engine inside DsmSystem, and the tree schedule must be
// derived from the OVERRIDING topology — never cached from the config
// default.
TEST(DsmColl, EnvTopologyStacksWithEnvTreeColl) {
  const ScopedEnvClear env_guard;
  ::setenv("OMSP_CONFIG", "coll=tree;topo=fat:2x2x2", 1);
  Config env_cfg;
  env_cfg.topology = Config::parse(std::getenv("OMSP_CONFIG")).topology;
  env_cfg.cost = sim::CostModel::zero();
  const RunResult from_env = run_ring_stencil(env_cfg);
  ::unsetenv("OMSP_CONFIG");

  // The same machine selected in code, tree mode selected in code, must run
  // the identical episode: same values, same schedule-edge traffic.
  Config code_cfg;
  code_cfg.topology = sim::Topology::fat_tree(2, 2, 2);
  code_cfg.cost = sim::CostModel::zero();
  const RunResult reference = run_ring_stencil(tree_config(code_cfg));
  EXPECT_EQ(from_env.values, reference.values);
  EXPECT_EQ(from_env.stats[Counter::kCollStages],
            reference.stats[Counter::kCollStages]);
  EXPECT_EQ(from_env.stats[Counter::kCollBytes],
            reference.stats[Counter::kCollBytes]);
  EXPECT_EQ(from_env.stats[Counter::kMsgsOffNode],
            reference.stats[Counter::kMsgsOffNode]);
  EXPECT_GT(from_env.stats[Counter::kCollStages], 0u);

  // And it is NOT the default machine's episode: sp2 is a 16-rank machine,
  // fat:2x2x2 an 8-rank one, so a stale cached default would have run twice
  // as many ranks (and a different stencil) as the override.
  Config stale_cfg;
  stale_cfg.cost = sim::CostModel::zero();
  const RunResult stale = run_ring_stencil(tree_config(stale_cfg));
  EXPECT_NE(from_env.values.size(), stale.values.size());
}

TEST(DsmCollDeathTest, MalformedEnvTopologyIsHardError) {
  // A typo'd machine must never silently bench the default one — and the
  // DSM path, which does not apply topo itself, still rejects it.
  const ScopedEnvClear env_guard;
  ::setenv("OMSP_CONFIG", "coll=tree;topo=fat:2x", 1);
  EXPECT_DEATH((void)Config{}.with_env(), "bad value 'fat:2x' for key 'topo'");
  ::unsetenv("OMSP_CONFIG");
}

} // namespace
} // namespace omsp::tmk
