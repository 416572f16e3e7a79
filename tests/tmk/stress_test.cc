// Protocol stress tests. The triangular-update pattern (Modified
// Gram-Schmidt's access shape) is the single most protocol-hostile workload
// we know: every page has multiple concurrent writers whose ownership
// rotates each region, the master interleaves sequential writes, and data
// migrates through fork/join, flushes and false sharing simultaneously.
// During development this pattern exposed six distinct consistency bugs —
// each of which is now impossible by construction (see the "correctness
// cornerstones" comment in context.hpp). These tests keep them impossible.
#include <gtest/gtest.h>

#include <vector>

#include "core/runtime.hpp"

namespace omsp::tmk {
namespace {

struct StressParam {
  std::uint32_t nodes;
  std::uint32_t ppn;
  Mode mode;
  std::optional<bool> alias;
  const char* name;
  Protocol protocol = Protocol::kLazyRC;
};

class TriangularStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(TriangularStress, ExactIntegerAgreementOverManyTrials) {
  const StressParam& sp = GetParam();
  const std::int64_t N = 48, D = 64; // 8 vectors per page: heavy false sharing
  const long M = 1000003;

  // Reference, computed once.
  std::vector<long> ref(N * D, 1);
  {
    std::vector<long> work = ref;
    for (std::int64_t i = 0; i < N; ++i) {
      for (std::int64_t k = 0; k < D; ++k) work[i * D + k] = work[i * D + k] * 3 % M;
      for (std::int64_t j = i + 1; j < N; ++j)
        for (std::int64_t k = 0; k < D; ++k)
          work[j * D + k] = (work[j * D + k] + work[i * D + k]) % M;
    }
    ref = work;
  }

  for (int trial = 0; trial < 6; ++trial) {
    Config cfg;
    cfg.topology = sim::Topology(sp.nodes, sp.ppn);
    cfg.mode = sp.mode;
    cfg.alias_mapping = sp.alias;
    cfg.protocol = sp.protocol;
    cfg.cost = sim::CostModel::zero();
    core::OmpRuntime rt(cfg);
    auto a = rt.alloc_page_aligned<long>(N * D);
    for (std::int64_t i = 0; i < N * D; ++i) a[i] = 1;
    for (std::int64_t i = 0; i < N; ++i) {
      for (std::int64_t k = 0; k < D; ++k) a[i * D + k] = a[i * D + k] * 3 % M;
      rt.parallel_for(i + 1, N, core::Schedule::static_chunked(1),
                      [&](std::int64_t j) {
                        for (std::int64_t k = 0; k < D; ++k)
                          a[j * D + k] =
                              (a[j * D + k] + a[i * D + k]) % M;
                      });
    }
    for (std::int64_t x = 0; x < N * D; ++x)
      ASSERT_EQ(a[x], ref[x]) << "trial " << trial << " index " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TriangularStress,
    ::testing::Values(
        StressParam{2, 2, Mode::kThread, std::nullopt, "Thread2x2"},
        StressParam{4, 1, Mode::kThread, std::nullopt, "Thread4x1"},
        StressParam{2, 2, Mode::kProcess, std::nullopt, "Process2x2"},
        StressParam{4, 1, Mode::kProcess, std::nullopt, "Process4x1"},
        StressParam{2, 2, Mode::kProcess, true, "ProcessAliased"},
        StressParam{2, 1, Mode::kThread, false, "ThreadNoAlias"},
        // Alias mapping off with sibling threads: a fetch's write-enable is
        // modeled only, so the page stays inaccessible to a sibling's store
        // until the fault path installs its final protection.
        StressParam{2, 2, Mode::kThread, false, "ThreadNoAlias2x2"},
        StressParam{2, 2, Mode::kThread, std::nullopt, "HomeThread",
                    Protocol::kHomeLRC},
        StressParam{4, 1, Mode::kProcess, std::nullopt, "HomeProcess",
                    Protocol::kHomeLRC}),
    [](const auto& info) { return info.param.name; });

TEST(LockStress, MigratoryCounterUnderContention) {
  // Migratory data under a lock: the classic TreadMarks lock-handoff path.
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  auto counters = dsm.alloc_page_aligned<long>(8);
  for (int i = 0; i < 8; ++i) counters[i] = 0;
  constexpr int kRounds = 120;
  dsm.parallel([&](Rank r) {
    for (int k = 0; k < kRounds; ++k) {
      const LockId l = static_cast<LockId>(k % 3);
      dsm.lock_acquire(l);
      counters[l] = counters[l] + 1;
      counters[3 + (r % 5)] = counters[3 + (r % 5)] + 1;
      dsm.lock_release(l);
    }
  });
  long total = 0;
  for (int i = 0; i < 3; ++i) total += counters[i];
  EXPECT_EQ(total, 4 * kRounds);
}

TEST(BarrierStress, ManyTinyRegionsAndBarriers) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  auto cells = dsm.alloc_page_aligned<long>(4);
  for (int i = 0; i < 4; ++i) cells[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int it = 0; it < 60; ++it) {
      cells[r] = cells[r] + static_cast<long>(r) + 1;
      dsm.barrier();
      long sum = 0;
      for (int i = 0; i < 4; ++i) sum += cells[i];
      ASSERT_EQ(sum, static_cast<long>(it + 1) * (1 + 2 + 3 + 4));
      dsm.barrier();
    }
  });
}

} // namespace
} // namespace omsp::tmk
