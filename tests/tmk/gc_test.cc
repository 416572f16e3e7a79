// Garbage-collection tests: correctness is unchanged with GC on, stored-diff
// memory is actually reclaimed, and the post-GC protocol keeps working.
#include <gtest/gtest.h>

#include <vector>

#include "core/runtime.hpp"
#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

Config gc_cfg(std::size_t threshold) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  cfg.gc_threshold_bytes = threshold;
  return cfg;
}

std::size_t total_stored(DsmSystem& dsm) {
  std::size_t n = 0;
  for (ContextId c = 0; c < dsm.num_contexts(); ++c)
    n += dsm.context(c).stored_diff_bytes();
  return n;
}

TEST(GarbageCollection, ReclaimsStoredDiffs) {
  DsmSystem dsm(gc_cfg(/*threshold=*/1)); // GC at every barrier
  auto x = dsm.alloc_page_aligned<long>(2048);
  for (int i = 0; i < 2048; ++i) x[i] = 0;
  dsm.parallel([&](Rank r) {
    for (int round = 0; round < 6; ++round) {
      for (int i = static_cast<int>(r); i < 2048; i += 4)
        x[i] = x[i] + 1;
      dsm.barrier(); // everyone reads a peer's cell -> diffs get stored
      volatile long v = x[(r * 512 + 1) % 2048];
      (void)v;
      dsm.barrier(); // ... and this barrier GCs them
    }
  });
  EXPECT_EQ(total_stored(dsm), 0u);
  for (int i = 0; i < 2048; ++i) ASSERT_EQ(x[i], 6) << i;
}

TEST(GarbageCollection, DisabledKeepsHistory) {
  DsmSystem dsm(gc_cfg(/*threshold=*/0));
  auto x = dsm.alloc_page_aligned<long>(1024);
  dsm.parallel([&](Rank r) {
    x[r * 256] = 1;
    dsm.barrier();
    volatile long v = x[((r + 1) % 4) * 256];
    (void)v;
    dsm.barrier();
  });
  EXPECT_GT(total_stored(dsm), 0u);
}

// GC subtracts each stored diff's modeled size, also for diffs whose host
// bytes a join already released.
TEST(GarbageCollection, AfterDiffReleaseDropsModeledVolume) {
  DsmSystem dsm(gc_cfg(/*threshold=*/1));
  const std::uint32_t np = dsm.nprocs();
  const std::uint32_t kLongs = kPageSize / sizeof(long);
  auto x = dsm.alloc_page_aligned<long>(np * kLongs);
  dsm.parallel([&](Rank r) {
    for (std::uint32_t i = 0; i < kLongs; i += 2) x[r * kLongs + i] = r + 1;
  });
  dsm.parallel([&](Rank) {
    for (std::uint32_t i = 0; i < np * kLongs; i += 2)
      EXPECT_EQ(x[i], static_cast<long>(i / kLongs) + 1) << i;
  });
  std::size_t held = 0;
  for (ContextId c = 0; c < dsm.num_contexts(); ++c)
    held += dsm.context(c).held_diff_bytes();
  EXPECT_EQ(held, 0u) << "every context applied every diff";
  ASSERT_GT(total_stored(dsm), 0u);

  dsm.parallel([&](Rank) { dsm.barrier(); }); // GCs
  EXPECT_EQ(total_stored(dsm), 0u);
}

TEST(GarbageCollection, TriangularStressWithAggressiveGc) {
  // The protocol-hostile MGS pattern with GC at every barrier: results must
  // be identical to the reference (GC may never lose a byte).
  const std::int64_t N = 32, D = 64;
  const long M = 1000003;
  std::vector<long> ref(N * D, 1);
  for (std::int64_t i = 0; i < N; ++i) {
    for (std::int64_t k = 0; k < D; ++k) ref[i * D + k] = ref[i * D + k] * 3 % M;
    for (std::int64_t j = i + 1; j < N; ++j)
      for (std::int64_t k = 0; k < D; ++k)
        ref[j * D + k] = (ref[j * D + k] + ref[i * D + k]) % M;
  }

  tmk::Config cfg = gc_cfg(1);
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
  for (std::int64_t x = 0; x < N * D; ++x) ASSERT_EQ(a[x], ref[x]) << x;
}

TEST(GarbageCollection, MemoryBoundedUnderChurn) {
  // Without GC, stored diffs grow with every round; with GC they stay near
  // zero across many rounds.
  Config with = gc_cfg(4096);
  Config without = gc_cfg(0);
  std::size_t peak_with = 0, peak_without = 0;
  for (auto* mode : {&with, &without}) {
    DsmSystem dsm(*mode);
    auto x = dsm.alloc_page_aligned<long>(4096);
    std::size_t peak = 0;
    dsm.parallel([&](Rank r) {
      for (int round = 0; round < 12; ++round) {
        for (int i = static_cast<int>(r); i < 4096; i += 4) x[i] = x[i] + round;
        dsm.barrier();
        volatile long v = x[(r + 1) % 4096];
        (void)v;
        dsm.barrier();
      }
    });
    peak = total_stored(dsm);
    if (mode == &with)
      peak_with = peak;
    else
      peak_without = peak;
  }
  EXPECT_LT(peak_with, peak_without);
}

} // namespace
} // namespace omsp::tmk
