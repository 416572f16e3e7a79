// End-to-end DsmSystem tests: fork/join memory semantics, cross-node
// propagation through barriers, false sharing under the multiple-writer
// protocol, and both execution modes.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "../common/env_guard.hpp"
#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

Config small_config(Mode mode, std::uint32_t nodes = 2,
                    std::uint32_t ppn = 2) {
  Config cfg;
  cfg.topology = sim::Topology(nodes, ppn);
  cfg.mode = mode;
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  return cfg;
}

class DsmSystemTest : public ::testing::TestWithParam<Mode> {};

TEST_P(DsmSystemTest, MasterWritesVisibleToAllRanks) {
  DsmSystem dsm(small_config(GetParam()));
  auto data = dsm.alloc<int>(1024);
  for (int i = 0; i < 1024; ++i) data[i] = i * 3;

  std::atomic<int> mismatches{0};
  dsm.parallel([&](Rank) {
    for (int i = 0; i < 1024; ++i)
      if (data[i] != i * 3) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_P(DsmSystemTest, WorkerWritesVisibleToMasterAfterJoin) {
  DsmSystem dsm(small_config(GetParam()));
  const std::uint32_t np = dsm.nprocs();
  auto data = dsm.alloc<int>(np * 256);

  dsm.parallel([&](Rank r) {
    for (std::uint32_t i = 0; i < 256; ++i)
      data[r * 256 + i] = static_cast<int>(r * 1000 + i);
  });
  for (std::uint32_t r = 0; r < np; ++r)
    for (std::uint32_t i = 0; i < 256; ++i)
      ASSERT_EQ(data[r * 256 + i], static_cast<int>(r * 1000 + i));
}

TEST_P(DsmSystemTest, BarrierPropagatesPeerWrites) {
  DsmSystem dsm(small_config(GetParam()));
  const std::uint32_t np = dsm.nprocs();
  // One page-aligned slot per rank to avoid false sharing in this test.
  auto slots = dsm.alloc_page_aligned<int>(np * 1024);

  std::atomic<int> mismatches{0};
  dsm.parallel([&](Rank r) {
    slots[r * 1024] = static_cast<int>(100 + r);
    dsm.barrier();
    for (std::uint32_t o = 0; o < np; ++o)
      if (slots[o * 1024] != static_cast<int>(100 + o)) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_P(DsmSystemTest, FalseSharingMergesConcurrentWriters) {
  // All ranks write disjoint ints within the SAME page; the multiple-writer
  // protocol must merge every write at the barrier.
  DsmSystem dsm(small_config(GetParam()));
  const std::uint32_t np = dsm.nprocs();
  auto page = dsm.alloc_page_aligned<int>(1024);

  std::atomic<int> mismatches{0};
  dsm.parallel([&](Rank r) {
    // 1024/np ints per rank, interleaved by rank to maximize false sharing.
    for (std::uint32_t i = r; i < 1024; i += np)
      page[i] = static_cast<int>(i * 7 + 1);
    dsm.barrier();
    for (std::uint32_t i = 0; i < 1024; ++i)
      if (page[i] != static_cast<int>(i * 7 + 1)) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (std::uint32_t i = 0; i < 1024; ++i)
    ASSERT_EQ(page[i], static_cast<int>(i * 7 + 1)) << i;
}

TEST_P(DsmSystemTest, IterativeNeighborExchange) {
  // SOR-like: each rank repeatedly reads neighbours' boundary values written
  // in the previous iteration.
  DsmSystem dsm(small_config(GetParam()));
  const std::uint32_t np = dsm.nprocs();
  const int iters = 8;
  auto cur = dsm.alloc_page_aligned<long>(np);
  for (std::uint32_t i = 0; i < np; ++i) cur[i] = static_cast<long>(i);

  dsm.parallel([&](Rank r) {
    for (int it = 0; it < iters; ++it) {
      dsm.barrier();
      const long left = cur[(r + np - 1) % np];
      const long right = cur[(r + 1) % np];
      dsm.barrier();
      cur[r] = left + right;
    }
  });
  dsm.parallel([&](Rank) {});

  // Reference computation.
  std::vector<long> ref(np), next(np);
  std::iota(ref.begin(), ref.end(), 0L);
  for (int it = 0; it < iters; ++it) {
    for (std::uint32_t i = 0; i < np; ++i)
      next[i] = ref[(i + np - 1) % np] + ref[(i + 1) % np];
    ref = next;
  }
  for (std::uint32_t i = 0; i < np; ++i) EXPECT_EQ(cur[i], ref[i]) << i;
}

TEST_P(DsmSystemTest, MultipleRegionsReuseWorkers) {
  DsmSystem dsm(small_config(GetParam()));
  auto acc = dsm.alloc<long>(dsm.nprocs());
  for (std::uint32_t i = 0; i < dsm.nprocs(); ++i) acc[i] = 0;
  for (int round = 0; round < 5; ++round) {
    dsm.parallel([&](Rank r) { acc[r] = acc[r] + (round + 1); });
  }
  for (std::uint32_t i = 0; i < dsm.nprocs(); ++i) EXPECT_EQ(acc[i], 15);
}

TEST_P(DsmSystemTest, StatsCountCommunication) {
  DsmSystem dsm(small_config(GetParam()));
  dsm.reset_stats();
  auto x = dsm.alloc_page_aligned<int>(1024);
  x[0] = 41;
  dsm.parallel([&](Rank r) {
    if (r == dsm.nprocs() - 1) x[1] = x[0] + 1;
  });
  EXPECT_EQ(x[1], 42);
  auto s = dsm.stats();
  EXPECT_GT(s[Counter::kMsgsSent], 0u);
  EXPECT_GT(s[Counter::kBytesSent], 0u);
  EXPECT_GT(s[Counter::kPageFaults], 0u);
  EXPECT_GT(s[Counter::kDiffsCreated], 0u);
}

// An asymmetric node mix (4+2+2 ranks across three nodes) must run
// correctly in thread mode: rank_epilogue and the barrier count
// threads_in_context(cid) per context, not a uniform procs_per_node().
TEST(DsmAsymmetricTest, AsymmetricNodeMixThreadMode) {
  Config cfg;
  cfg.mode = Mode::kThread;
  cfg.topology = sim::Topology::asymmetric({4, 2, 2});
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);
  ASSERT_EQ(dsm.nprocs(), 8u);

  auto x = dsm.alloc_page_aligned<int>(dsm.nprocs());
  std::atomic<int> mismatches{0};
  dsm.parallel([&](Rank r) {
    x[r] = 100 + static_cast<int>(r);
    dsm.barrier();
    // Every rank sees every other rank's write after the barrier.
    for (Rank o = 0; o < dsm.nprocs(); ++o)
      if (x[o] != 100 + static_cast<int>(o)) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (Rank r = 0; r < dsm.nprocs(); ++r)
    EXPECT_EQ(x[r], 100 + static_cast<int>(r));
}

// The modeled VM operations (Table 3) of a fixed process-mode program are
// exact, while the host issues fewer mprotect calls than it models: a
// fetch's write-enable is charged without a syscall, and an invalidation
// protects each run of consecutive pages with one call.
TEST(DsmVmAccounting, ProcessModeCountsExactHostCallsFewer) {
  const test::ScopedEnvClear env_guard; // the counts are the seed config's
  Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = Mode::kProcess;
  cfg.heap_bytes = 1u << 20;
  cfg.cost = sim::CostModel::sp2_default();
  cfg.cost.cpu_scale = 0;
  DsmSystem dsm(cfg);
  const std::uint32_t np = dsm.nprocs();
  const std::uint32_t kPages = 16; // per rank
  const std::uint32_t kInts = kPageSize / sizeof(int);
  auto a = dsm.alloc_page_aligned<int>(np * kPages * kInts);

  dsm.parallel([&](Rank r) {
    for (std::uint32_t pg = 0; pg < kPages; ++pg)
      a[(r * kPages + pg) * kInts] = static_cast<int>(r + 1);
    dsm.barrier();
    const Rank next = (r + 1) % np;
    for (std::uint32_t pg = 0; pg < kPages; ++pg) {
      const std::uint32_t at = (next * kPages + pg) * kInts;
      a[at + 1] = a[at] + 10;
    }
    dsm.barrier();
  });
  for (std::uint32_t pg = 0; pg < np * kPages; ++pg) {
    const int owner = static_cast<int>(pg / kPages) + 1;
    ASSERT_EQ(a[pg * kInts], owner) << pg;
    ASSERT_EQ(a[pg * kInts + 1], owner + 10) << pg;
  }

  const auto s = dsm.stats();
  EXPECT_EQ(s[Counter::kMprotect], 720u);
  EXPECT_EQ(s[Counter::kPageFaults], 240u);
  EXPECT_EQ(s[Counter::kPageInvalidations], 256u);
  EXPECT_EQ(s[Counter::kTwins], 128u);
  EXPECT_EQ(s[Counter::kDiffsCreated], 112u);
  EXPECT_EQ(s[Counter::kDiffsApplied], 144u);
  EXPECT_EQ(s[Counter::kMsgsSent], 306u);
  std::uint64_t host = 0;
  for (ContextId c = 0; c < dsm.num_contexts(); ++c)
    host += dsm.context(c).heap().host_mprotects();
  EXPECT_LT(host, s[Counter::kMprotect]);
}

// A stored diff's host bytes are freed at the first quiescent point after
// every other context has applied it, and not before; its modeled size stays
// in stored_diff_bytes() (the GC trigger) until GC. The last region ships a
// newer diff of the same page past the released one (under overlap=on, from
// barrier-time prefetch).
TEST(DiffRelease, LateConsumerHoldsUntilApplied) {
  DsmSystem dsm(small_config(Mode::kProcess)); // one context per rank
  DsmContext& master = dsm.context(0);
  auto x = dsm.alloc_page_aligned<long>(kPageSize / sizeof(long));
  const PageId p = static_cast<PageId>(x.addr() / kPageSize);
  x[0] = 42;
  dsm.parallel([&](Rank r) {
    if (r == 1 || r == 2) {
      EXPECT_EQ(x[0], 42);
    }
  });
  const std::size_t stored = master.stored_diff_bytes();
  ASSERT_GT(stored, 0u);
  EXPECT_EQ(master.stored_diff_count(p), 1u);
  EXPECT_EQ(master.held_diff_bytes(), stored) << "rank 3 has not applied it";

  dsm.parallel([&](Rank r) {
    if (r == 3) {
      EXPECT_EQ(x[0], 42);
    }
  });
  EXPECT_EQ(master.held_diff_bytes(), 0u);
  EXPECT_EQ(master.stored_diff_bytes(), stored);
  EXPECT_EQ(master.stored_diff_count(p), 1u);

  dsm.parallel([&](Rank r) {
    if (r == 0) x[1] = 43;
    dsm.barrier();
    if (r != 0) {
      EXPECT_EQ(x[0] + x[1], 85);
    }
  });
  EXPECT_EQ(master.stored_diff_count(p), 2u);
  EXPECT_GT(master.stored_diff_bytes(), stored);
  EXPECT_EQ(master.held_diff_bytes(), 0u);
}

class PageTable : public ::testing::TestWithParam<Mode> {};

const auto kModes = ::testing::Values(Mode::kThread, Mode::kProcess);
std::string mode_name(const ::testing::TestParamInfo<Mode>& info) {
  return info.param == Mode::kThread ? "Thread" : "Process";
}

// Each context's page table covers the pages the allocator has handed out,
// not the heap's reservation, and every context grows at a later allocation.
TEST_P(PageTable, CoversAllocatedPagesOnly) {
  Config cfg = small_config(GetParam());
  cfg.heap_bytes = std::size_t{256} << 20; // 65,536 pages reserved
  DsmSystem dsm(cfg);
  const std::uint32_t np = dsm.nprocs();
  const std::size_t kInts = kPageSize / sizeof(int);
  const std::size_t na = 10 * kInts, nb = 6 * kInts;
  auto a = dsm.alloc_page_aligned<int>(na);
  ASSERT_EQ(a.addr(), 0u);
  for (ContextId c = 0; c < dsm.num_contexts(); ++c)
    EXPECT_EQ(dsm.context(c).num_pages(), 10u) << c;

  dsm.parallel([&](Rank r) {
    for (std::size_t i = r; i < na; i += np) a[i] = static_cast<int>(i);
  });
  auto b = dsm.alloc_page_aligned<int>(nb);
  ASSERT_EQ(b.addr(), 10 * kPageSize);
  for (ContextId c = 0; c < dsm.num_contexts(); ++c)
    EXPECT_EQ(dsm.context(c).num_pages(), 16u) << c;

  // Interleaved ownership: every page of both arrays has writers in every
  // context, and each phase reads what other contexts wrote.
  dsm.parallel([&](Rank r) {
    for (std::size_t i = r; i < nb; i += np) b[i] = a[na - 1 - i] + 1;
    dsm.barrier();
    for (std::size_t i = r; i < na; i += np) a[i] = 2 * b[i % nb] - a[i];
  });
  std::vector<int> ea(na), eb(nb);
  for (std::size_t i = 0; i < na; ++i) ea[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < nb; ++i) eb[i] = ea[na - 1 - i] + 1;
  for (std::size_t i = 0; i < na; ++i) ea[i] = 2 * eb[i % nb] - ea[i];
  for (std::size_t i = 0; i < na; ++i) ASSERT_EQ(a[i], ea[i]) << i;
  for (std::size_t i = 0; i < nb; ++i) ASSERT_EQ(b[i], eb[i]) << i;
}

// A store to memory no allocation covers lies past every page table.
TEST_P(PageTable, StorePastAllocatedPrefixAborts) {
  EXPECT_DEATH(
      {
        DsmSystem dsm(small_config(GetParam()));
        auto a = dsm.alloc_page_aligned<int>(kPageSize / sizeof(int));
        a[kPageSize / sizeof(int)] = 1; // first int of the next page
      },
      "access to unallocated shared heap");
}

INSTANTIATE_TEST_SUITE_P(Modes, PageTable, kModes, mode_name);

INSTANTIATE_TEST_SUITE_P(Modes, DsmSystemTest, kModes, mode_name);

} // namespace
} // namespace omsp::tmk
