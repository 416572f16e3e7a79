// Unit tests for the TreadMarks building blocks that don't need a running
// cluster: diffs, vector times, interval records, the heap allocator, heap
// mappings and the fault registry.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sys/mman.h>

#include "sim/virtual_clock.hpp"

#include "common/rng.hpp"
#include "tmk/diff.hpp"
#include "tmk/fault_registry.hpp"
#include "tmk/heap_alloc.hpp"
#include "tmk/heap_mapping.hpp"
#include "tmk/interval.hpp"
#include "tmk/vclock.hpp"

namespace omsp::tmk {
namespace {

// ---------------------------------------------------------------- diffs ----

class DiffRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DiffRoundTrip, RandomPagesReconstructExactly) {
  // Property: apply(create(twin, cur), twin) == cur, and the diff touches
  // only changed bytes.
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> twin(kPageSize), cur(kPageSize);
    for (auto& b : twin) b = static_cast<std::uint8_t>(rng.next_u32());
    cur = twin;
    const int changes = static_cast<int>(rng.next_below(200));
    for (int c = 0; c < changes; ++c) {
      const auto at = rng.next_below(kPageSize);
      cur[at] = static_cast<std::uint8_t>(rng.next_u32());
    }
    const auto diff = create_diff(twin.data(), cur.data());
    std::vector<std::uint8_t> rebuilt = twin;
    apply_diff(diff, rebuilt.data());
    ASSERT_EQ(rebuilt, cur);
    ASSERT_LE(diff_patch_bytes(diff), kPageSize);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(Diff, EmptyWhenIdentical) {
  std::vector<std::uint8_t> page(kPageSize, 0x42);
  const auto diff = create_diff(page.data(), page.data());
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff_run_count(diff), 0u);
}

TEST(Diff, ByteExactness) {
  // A diff must never carry an unchanged byte — the multiple-writer merge
  // depends on it (two concurrent writers of one page patch disjoint bytes).
  std::vector<std::uint8_t> twin(kPageSize, 0), cur(kPageSize, 0);
  cur[100] = 1;
  cur[101] = 2;
  cur[500] = 3;
  const auto diff = create_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_patch_bytes(diff), 3u);
  EXPECT_EQ(diff_run_count(diff), 2u); // {100,101} and {500}

  // Applying onto a page with OTHER bytes changed must preserve them.
  std::vector<std::uint8_t> other(kPageSize, 0);
  other[200] = 77;
  apply_diff(diff, other.data());
  EXPECT_EQ(other[100], 1);
  EXPECT_EQ(other[101], 2);
  EXPECT_EQ(other[500], 3);
  EXPECT_EQ(other[200], 77);
}

TEST(Diff, FullPageChange) {
  std::vector<std::uint8_t> twin(kPageSize, 0), cur(kPageSize, 0xff);
  const auto diff = create_diff(twin.data(), cur.data());
  EXPECT_EQ(diff_patch_bytes(diff), kPageSize);
  EXPECT_EQ(diff_run_count(diff), 1u);
}

TEST(Diff, WordBoundarySubByteChanges) {
  // One byte per 8-byte word, at every offset within the word.
  for (int off = 0; off < 8; ++off) {
    std::vector<std::uint8_t> twin(kPageSize, 0), cur(kPageSize, 0);
    cur[64 + off] = 9;
    const auto diff = create_diff(twin.data(), cur.data());
    EXPECT_EQ(diff_patch_bytes(diff), 1u) << off;
    std::vector<std::uint8_t> rebuilt = twin;
    apply_diff(diff, rebuilt.data());
    EXPECT_EQ(rebuilt, cur);
  }
}

// ------------------------------------------------------------- vclock ----

TEST(VectorTime, CoversAndMerge) {
  VectorTime a(3), b(3);
  a[0] = 5;
  a[1] = 2;
  b[0] = 3;
  b[1] = 4;
  EXPECT_TRUE(a.covers(0, 5));
  EXPECT_FALSE(a.covers(0, 6));
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  a.merge(b);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 4u);
  EXPECT_TRUE(a.covers(b));
}

TEST(VectorTime, SumLinearizesHappensBefore) {
  VectorTime a(4), b(4);
  a[0] = 1;
  b = a;
  b[2] = 3; // a < b componentwise
  EXPECT_LT(a.sum(), b.sum());
}

TEST(VectorTime, SerializeRoundTrip) {
  VectorTime a(5);
  for (ContextId c = 0; c < 5; ++c) a[c] = c * 11;
  ByteWriter w;
  a.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(VectorTime::deserialize(r), a);
}

// ------------------------------------------------------------ intervals ----

TEST(Interval, RecordRoundTripAndWireSize) {
  IntervalRecord rec;
  rec.creator = 2;
  rec.seq = 9;
  rec.vt = VectorTime(4);
  rec.vt[2] = 9;
  rec.pages = {1, 5, 42};
  ByteWriter w;
  rec.serialize(w);
  EXPECT_EQ(w.size(), rec.wire_size());
  ByteReader r(w.bytes());
  const auto back = IntervalRecord::deserialize(r);
  EXPECT_EQ(back.creator, rec.creator);
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.vt, rec.vt);
  EXPECT_EQ(back.pages, rec.pages);
}

TEST(Interval, BatchHelpers) {
  std::vector<IntervalRecord> recs(3);
  for (int i = 0; i < 3; ++i) {
    recs[i].creator = 0;
    recs[i].seq = static_cast<IntervalSeq>(i + 1);
    recs[i].vt = VectorTime(2);
    recs[i].pages = std::vector<PageId>(static_cast<std::size_t>(i), 7);
  }
  EXPECT_EQ(records_notice_count(recs), 0u + 1u + 2u);
  ByteWriter w;
  serialize_records(recs, w);
  EXPECT_EQ(w.size(), records_wire_size(recs));
  ByteReader r(w.bytes());
  const auto back = deserialize_records(r);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[2].pages.size(), 2u);
}

// ------------------------------------------------------------ allocator ----

TEST(HeapAlloc, AllocateAlignedAndFree) {
  HeapAllocator alloc(1 << 16);
  const auto a = alloc.allocate(100, 16);
  const auto b = alloc.allocate(200, 64);
  ASSERT_NE(a, kNullGlobalAddr);
  ASSERT_NE(b, kNullGlobalAddr);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_EQ(alloc.bytes_in_use(), 300u);
  alloc.free(a);
  alloc.free(b);
  EXPECT_EQ(alloc.bytes_in_use(), 0u);
  EXPECT_EQ(alloc.allocation_count(), 0u);
}

TEST(HeapAlloc, ExhaustionReturnsNull) {
  HeapAllocator alloc(4096);
  EXPECT_NE(alloc.allocate(4096, 1), kNullGlobalAddr);
  EXPECT_EQ(alloc.allocate(1, 1), kNullGlobalAddr);
}

// A request near SIZE_MAX must not wrap the fit test around: it would hand
// out a block that a later allocation overlaps.
TEST(HeapAlloc, OversizedRequestReturnsNull) {
  HeapAllocator alloc(1 << 20);
  EXPECT_EQ(alloc.allocate(100), 0u);
  EXPECT_EQ(alloc.allocate(std::numeric_limits<std::size_t>::max() - 8, 64),
            kNullGlobalAddr);
  EXPECT_EQ(alloc.allocate(4096), 112u);
  EXPECT_EQ(alloc.bytes_in_use(), 4196u);
  EXPECT_EQ(alloc.high_water(), 112u + 4096u);
}

TEST(HeapAlloc, CoalescingAllowsReuse) {
  HeapAllocator alloc(4096);
  const auto a = alloc.allocate(1024, 16);
  const auto b = alloc.allocate(1024, 16);
  const auto c = alloc.allocate(1024, 16);
  alloc.free(b);
  alloc.free(a); // coalesces with b's block
  alloc.free(c);
  // The whole heap must be reusable as one block again.
  EXPECT_NE(alloc.allocate(4000, 16), kNullGlobalAddr);
}

TEST(HeapAlloc, RandomizedAllocFreeNeverOverlaps) {
  HeapAllocator alloc(1 << 18);
  Rng rng(5);
  struct Block {
    GlobalAddr at;
    std::size_t size;
  };
  std::vector<Block> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_bool(0.6)) {
      const std::size_t size = 1 + rng.next_below(2000);
      const std::size_t align = std::size_t{1} << rng.next_below(8);
      const auto at = alloc.allocate(size, align);
      if (at == kNullGlobalAddr) continue;
      EXPECT_EQ(at % align, 0u);
      for (const auto& blk : live) {
        const bool overlap = at < blk.at + blk.size && blk.at < at + size;
        ASSERT_FALSE(overlap);
      }
      live.push_back({at, size});
    } else {
      const auto idx = rng.next_below(live.size());
      alloc.free(live[idx].at);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
}

// ---------------------------------------------------------- heap mapping ----

TEST(HeapMapping, AliasSharesBacking) {
  StatsBoard stats;
  sim::CostModel cost = sim::CostModel::zero();
  HeapMapping heap(4 * HeapMapping::kHeapPageSize, /*alias=*/true, /*owner=*/0,
                   stats, &cost);
  ASSERT_TRUE(heap.has_alias());
  // Write via the runtime view while the app view is read-only.
  heap.runtime_page(1)[10] = 0x5a;
  EXPECT_EQ(heap.app_page(1)[10], 0x5a);
}

TEST(HeapMapping, ProtectCountsAndCharges) {
  StatsBoard stats;
  sim::CostModel cost = sim::CostModel::zero();
  cost.mprotect_us = 7;
  HeapMapping heap(2 * HeapMapping::kHeapPageSize, true, /*owner=*/0, stats, &cost);
  sim::VirtualClock clock(1.0);
  sim::VirtualClock::Binder bind(&clock);
  heap.protect(0, Protection::kReadWrite);
  heap.protect(0, Protection::kRead);
  EXPECT_EQ(stats.get(Counter::kMprotect), 2u);
  EXPECT_DOUBLE_EQ(clock.now_us(), 14.0);
}

TEST(HeapMapping, SnapshotWithoutAlias) {
  StatsBoard stats;
  sim::CostModel cost = sim::CostModel::zero();
  HeapMapping heap(2 * HeapMapping::kHeapPageSize, /*alias=*/false, /*owner=*/0,
                   stats, &cost);
  heap.protect(0, Protection::kReadWrite);
  std::memset(heap.app_page(0), 0x7e, HeapMapping::kHeapPageSize);
  heap.protect(0, Protection::kNone); // invalid page...
  std::vector<std::uint8_t> snap(HeapMapping::kHeapPageSize);
  heap.snapshot_page(0, snap.data()); // ...still snapshotable
  for (auto b : snap) ASSERT_EQ(b, 0x7e);
}

TEST(HeapMapping, ContainsAndPageOf) {
  StatsBoard stats;
  sim::CostModel cost = sim::CostModel::zero();
  HeapMapping heap(4 * HeapMapping::kHeapPageSize, true, /*owner=*/0, stats, &cost);
  EXPECT_TRUE(heap.contains(heap.app_base()));
  EXPECT_TRUE(heap.contains(heap.app_base() + heap.bytes() - 1));
  EXPECT_FALSE(heap.contains(heap.app_base() + heap.bytes()));
  EXPECT_EQ(heap.page_of(heap.app_page(3) + 5), 3u);
}

// -------------------------------------------------------- fault registry ----

struct CountingTarget : FaultTarget {
  void on_fault(void* addr, bool is_write) override {
    ++faults;
    last_write = is_write;
    auto base = reinterpret_cast<std::uintptr_t>(addr) & ~std::uintptr_t{4095};
    ::mprotect(reinterpret_cast<void*>(base), 4096, PROT_READ | PROT_WRITE);
  }
  int faults = 0;
  bool last_write = false;
};

TEST(FaultRegistry, DispatchesToOwningRegion) {
  void* mem = ::mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  CountingTarget target;
  FaultRegistry::add_region(mem, 4096, &target);
  static_cast<volatile char*>(mem)[0] = 1; // write fault
  EXPECT_EQ(target.faults, 1);
  EXPECT_TRUE(target.last_write);
  ::mprotect(mem, 4096, PROT_READ);
  (void)static_cast<volatile char*>(mem)[0]; // no fault: readable
  EXPECT_EQ(target.faults, 1);
  FaultRegistry::remove_region(mem);
  ::munmap(mem, 4096);
}

TEST(FaultRegistry, ReadFaultClassified) {
  void* mem = ::mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  CountingTarget target;
  FaultRegistry::add_region(mem, 4096, &target);
  volatile char sink = static_cast<volatile char*>(mem)[8];
  (void)sink;
  EXPECT_EQ(target.faults, 1);
  EXPECT_FALSE(target.last_write);
  FaultRegistry::remove_region(mem);
  ::munmap(mem, 4096);
}

TEST(FaultRegistry, TrapOverheadCalibrated) {
  const double us = FaultRegistry::fault_trap_overhead_us();
  EXPECT_GE(us, 0.0);
  EXPECT_LT(us, 1000.0); // sanity: well under a millisecond
  // Stable across calls (cached).
  EXPECT_EQ(us, FaultRegistry::fault_trap_overhead_us());
}

} // namespace
} // namespace omsp::tmk
