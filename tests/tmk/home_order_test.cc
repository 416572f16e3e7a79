// Regression tests for the HomeLRC home-apply ordering hole.
//
// apply_bytes_at_home runs on another context's host thread, concurrently
// with the home's own application threads. The pre-fix process-mode code
// write-enabled the home's APPLICATION mapping around the diff apply (the
// original TreadMarks protection dance — safe there only because the SIGIO
// handler interrupts the lone application thread). During that window a
// concurrent application store landed without faulting: no twin, no dirty
// bit, no write notice. The value reached the home copy, but with the
// notice lost no other context ever invalidated, and the next writer's
// diff — computed from a stale base — silently reverted the store. That
// lost update is the TriangularStress/HomeProcess ~2% miscompute the tsan
// CI job absorbed with `--repeat until-pass:2` until this fix.
//
// The test drives the exact interleaving deterministically through the
// testing_home_apply_hook seam: it parks the home's diff apply mid-window,
// lets the home's application thread store into the same page, then runs a
// second region whose writer would revert the store if the notice were
// lost. Pre-fix this fails with a[0] == 2; with the runtime-mapping fix
// the store faults, is twin-tracked, and the final value is exact.
//
// The same seam pins a second ordering: an interval's record must not reach
// anyone (the home included) before its diffs reached their homes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "tmk/system.hpp"

namespace omsp::tmk {
namespace {

struct Rendezvous {
  std::mutex m;
  std::condition_variable cv;
  bool in_window = false;
  bool store_done = false;
  std::atomic<bool> armed{false};
  std::atomic<bool> fired{false};
  std::atomic<PageId> page{0};
};

Rendezvous* g_rv = nullptr;

void park_in_apply_window(ContextId home, PageId page) {
  Rendezvous* rv = g_rv;
  if (rv == nullptr || home != 0 || page != rv->page.load()) return;
  if (!rv->armed.exchange(false)) return; // one-shot
  rv->fired.store(true);
  std::unique_lock<std::mutex> lk(rv->m);
  rv->in_window = true;
  rv->cv.notify_all();
  // Wait for the home application thread's store. Bounded: post-fix the
  // store faults and blocks on the page lock this handler holds, so
  // store_done cannot be signalled until the apply finishes — the timeout
  // is what lets the fixed runtime make progress.
  rv->cv.wait_for(lk, std::chrono::milliseconds(300),
                  [rv] { return rv->store_done; });
}

TEST(HomeApplyOrdering, HomeStoreDuringDiffApplyIsNeverLost) {
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.mode = Mode::kProcess;
  cfg.protocol = Protocol::kHomeLRC;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);

  // Two full pages; use whichever page ctx0 is home of. (GlobalPtr resolves
  // per calling thread, so all accesses below index through `a`.)
  auto a = dsm.alloc_page_aligned<long>(1024);
  const PageId first = static_cast<PageId>(a.addr() / 4096);
  const std::size_t base = (first % 2 == 0) ? 0 : 512;
  const PageId target = (first % 2 == 0) ? first : first + 1;
  ASSERT_EQ(target % 2, 0u) << "test needs a page homed at ctx0";

  const std::size_t xi = base;      // the contended location
  const std::size_t yi = base + 64; // same page, disjoint bytes
  a[xi] = 1;
  a[yi] = 1;

  Rendezvous rv;
  rv.page.store(target);
  g_rv = &rv;
  testing_home_apply_hook = &park_in_apply_window;
  rv.armed.store(true);

  // Region 1: rank 1 dirties the page; its close-time diff-to-home parks in
  // the apply window while rank 0 (the home's application thread) stores x.
  dsm.parallel([&](Rank r) {
    if (r == 1) {
      a[yi] = 7;
      return;
    }
    {
      std::unique_lock<std::mutex> lk(rv.m);
      if (!rv.cv.wait_for(lk, std::chrono::seconds(10),
                          [&] { return rv.in_window; }))
        return; // hook never fired; rv.fired assert below reports it
    }
    a[xi] = 41;
    {
      std::lock_guard<std::mutex> lk(rv.m);
      rv.store_done = true;
    }
    rv.cv.notify_all();
  });
  ASSERT_TRUE(rv.fired.load())
      << "rank 1's close-time diff never reached the home apply hook";

  // Region 2: rank 1 increments x. If rank 0's store above slipped past
  // access detection (no write notice), rank 1 still holds its stale
  // region-1 copy, computes 1+1, and its diff reverts the home to 2.
  dsm.parallel([&](Rank r) {
    if (r == 1) a[xi] = a[xi] + 1;
  });

  testing_home_apply_hook = nullptr;
  g_rv = nullptr;

  EXPECT_EQ(a[xi], 42) << "home application store was lost to a stale diff";
  EXPECT_EQ(a[yi], 7);
}

// A lock grant must not hand out an interval's record while another thread
// is still posting that interval's diff to the home. Context 1's barrier
// arrival closes the interval holding rank 2's store and its diff parks at
// the home (context 0); rank 0 then takes a lock last cached at context 1.
// The grant's close of context 1 finds nothing dirty, and without waiting
// for the close in flight the record went out at once: the home skipped the
// invalidation and rank 0 read its own stale copy (1).
TEST(HomeApplyOrdering, GrantWaitsForDiffsOfConcurrentClose) {
  Config cfg;
  cfg.topology = sim::Topology(2, 2); // ctx 0: ranks 0, 1; ctx 1: ranks 2, 3
  cfg.mode = Mode::kThread;
  cfg.protocol = Protocol::kHomeLRC;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);

  auto a = dsm.alloc_page_aligned<long>(1024);
  const PageId first = static_cast<PageId>(a.addr() / 4096);
  const std::size_t xi = (first % 2 == 0) ? 0 : 512;
  const PageId target = (first % 2 == 0) ? first : first + 1;
  a[xi] = 1;

  Rendezvous rv;
  rv.page.store(target);
  g_rv = &rv;
  testing_home_apply_hook = &park_in_apply_window;
  rv.armed.store(true);

  const LockId kLock = 1; // cached at context 1, its manager, until granted
  long seen = 0;
  dsm.parallel([&](Rank r) {
    if (r == 2) a[xi] = 41;
    if (r == 0) {
      std::unique_lock<std::mutex> lk(rv.m);
      rv.cv.wait_for(lk, std::chrono::seconds(10),
                     [&] { return rv.in_window; });
    }
    if (r == 0 && rv.fired.load()) {
      dsm.lock_acquire(kLock);
      seen = a[xi];
      dsm.lock_release(kLock);
      {
        std::lock_guard<std::mutex> lk(rv.m);
        rv.store_done = true;
      }
      rv.cv.notify_all();
    }
    dsm.barrier();
  });
  testing_home_apply_hook = nullptr;
  g_rv = nullptr;

  ASSERT_TRUE(rv.fired.load())
      << "context 1's close-time diff never reached the home apply hook";
  EXPECT_EQ(seen, 41) << "the grant's record overtook the diff to the home";
  EXPECT_EQ(a[xi], 41);
}

// The hook seam is also exercised with the page already writable at the
// home (no modeled write-enable): the apply and a concurrent home store to
// disjoint bytes must both survive, and the home's next diff must carry
// only its own bytes.
TEST(HomeApplyOrdering, DirtyHomePageAbsorbsRemoteDiffExactly) {
  Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.mode = Mode::kProcess;
  cfg.protocol = Protocol::kHomeLRC;
  cfg.cost = sim::CostModel::zero();
  DsmSystem dsm(cfg);

  auto a = dsm.alloc_page_aligned<long>(1024);
  const PageId first = static_cast<PageId>(a.addr() / 4096);
  const std::size_t base = (first % 2 == 0) ? 0 : 512;
  const std::size_t xi = base;
  const std::size_t yi = base + 64;
  a[xi] = 1;
  a[yi] = 1;

  dsm.parallel([&](Rank r) {
    if (r == 0) a[xi] = 10; // home dirties its own page (tracked, twin made)
    if (r == 1) a[yi] = 20; // remote write arrives via diff-to-home at close
  });
  EXPECT_EQ(a[xi], 10);
  EXPECT_EQ(a[yi], 20);

  dsm.parallel([&](Rank r) {
    if (r == 1) {
      // Rank 1 must observe both writes: its own via the home round-trip,
      // the home's via the write notice from region 1.
      EXPECT_EQ(a[xi], 10);
      EXPECT_EQ(a[yi], 20);
    }
  });
}

} // namespace
} // namespace omsp::tmk
