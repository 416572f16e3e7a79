// Per-context shared-heap mappings.
//
// Every DSM context owns a private copy of the shared heap, kept coherent by
// the protocol. In thread mode the copy is backed by a memfd mapped twice
// (§3.3.1 of the paper):
//   * the "application" mapping, whose page protections drive access
//     detection (PROT_NONE = invalid, PROT_READ = valid clean,
//     PROT_READ|WRITE = valid dirty);
//   * the "alias" mapping, always read-write, used exclusively by the runtime
//     to build twins, create diffs and install updates while the application
//     mapping stays protected. This removes the write-enable mprotect that
//     the original TreadMarks needs before updating a page — the effect the
//     paper measures in Table 3 (Thrd/1 does 25–56% fewer mprotects than
//     Orig/1).
//
// In process mode ("original" TreadMarks) the MODELED machine has no alias
// mapping: the runtime must mprotect pages writable around updates, paying
// the extra system calls. The HOST, however, always keeps a second
// read-write mapping of the backing memfd, used only by the runtime. The
// distinction matters because the original system's write-enable window is
// atomic with respect to its (single) application thread — the SIGIO
// handler interrupts it — while this runtime executes protocol handlers and
// sibling application threads on other host threads. Relaxing the app
// mapping for an update would open a window where an application store
// lands without faulting: no twin, no dirty bit, no write notice, and a
// later diff from a context holding the pre-window base silently reverts
// the store (a lost update). Updates therefore write through the runtime
// mapping, and process mode's write-enable mprotects are charged via
// charge_protect() as modeled cost only.
//
// Host and modeled protection. The modeled machine performs, counts and
// charges one mprotect per page per protection change, exactly as the
// original system would (Table 3). The host does only the VM work access
// detection needs: the application mapping's protection follows the
// context's page state (invalid = PROT_NONE, valid clean = PROT_READ, valid
// dirty = PROT_READ|WRITE), so an invalid page stays PROT_NONE through its
// fetch and gets its final protection with one syscall, and an invalidation
// covers each run of consecutive pages with one protect_host() call while
// charging every page of the run through charge_protect().
//
// All modeled mprotects are counted on the owning context's StatsBoard and
// charged to the calling thread's virtual clock; host syscalls are counted
// separately (host_mprotects()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/cost_model.hpp"

namespace omsp::tmk {

enum class Protection { kNone, kRead, kReadWrite };

class HeapMapping {
public:
  // Creates the application and runtime mappings of one memfd, in both
  // modes; `alias` only selects whether the MODELED machine has the alias
  // mapping (thread mode) or pays the original's write-enable mprotects
  // (process mode). The heap starts zero-filled with the application mapping
  // PROT_READ (all pages valid, clean) — the initial all-zero contents are
  // trivially coherent across contexts. `owner` is the context the mprotect
  // counters and trace events are attributed to.
  HeapMapping(std::size_t bytes, bool alias, ContextId owner,
              StatsBoard& stats, const sim::CostModel* cost);
  ~HeapMapping();

  HeapMapping(const HeapMapping&) = delete;
  HeapMapping& operator=(const HeapMapping&) = delete;

  std::uint8_t* app_base() const { return app_base_; }
  // Runtime view of the heap: a second always-writable mapping of the same
  // backing pages. Reads and writes through it never touch the application
  // mapping's protections, so concurrent application accesses keep faulting
  // no matter what the runtime is doing.
  std::uint8_t* runtime_base() const { return runtime_base_; }
  // Whether the MODELED machine has the persistent alias mapping (thread
  // mode, §3.3.1). Drives the mprotect accounting: when false, runtime
  // updates charge the original system's write-enable pair.
  bool has_alias() const { return modeled_alias_; }

  std::size_t bytes() const { return bytes_; }
  std::size_t pages() const { return bytes_ / kHeapPageSize; }

  std::uint8_t* app_page(PageId p) const {
    return app_base_ + static_cast<std::size_t>(p) * kHeapPageSize;
  }
  std::uint8_t* runtime_page(PageId p) const {
    return runtime_base() + static_cast<std::size_t>(p) * kHeapPageSize;
  }

  // Counted, charged page-protection change on the application mapping: one
  // host syscall plus the modeled mprotect.
  void protect(PageId page, Protection prot);

  // Account for an mprotect the MODELED machine performs without a syscall
  // of its own on the host: process mode's write-enable around a runtime
  // update (the update goes through the runtime mapping instead), and each
  // page of an invalidated run (one protect_host() call covers the run).
  // Same counter, trace event and virtual-clock charge as protect().
  void charge_protect(PageId page, Protection prot);

  // Host-only protection change of pages [first, first + count) on the
  // application mapping, with one syscall. Neither counted on the StatsBoard
  // nor charged: callers charge the modeled mprotects per page through
  // charge_protect(), so one host call can serve a run of modeled ones.
  void protect_host(PageId first, std::size_t count, Protection prot);

  // Host mprotect syscalls issued so far (tests compare it with the modeled
  // Counter::kMprotect; it is not a StatsBoard counter).
  std::uint64_t host_mprotects() const {
    return host_mprotects_.load(std::memory_order_relaxed);
  }

  // Copy the page's current contents into `out` via the runtime mapping,
  // without touching the application mapping's protections. Runtime reads
  // must never relax the app mapping — doing so would let concurrent
  // application accesses slip past the access-detection protocol.
  void snapshot_page(PageId page, std::uint8_t* out) const;

  // True if `addr` lies inside the application mapping.
  bool contains(const void* addr) const {
    auto a = reinterpret_cast<const std::uint8_t*>(addr);
    return a >= app_base_ && a < app_base_ + bytes_;
  }
  PageId page_of(const void* addr) const {
    auto a = reinterpret_cast<const std::uint8_t*>(addr);
    return static_cast<PageId>((a - app_base_) / kHeapPageSize);
  }

  static constexpr std::size_t kHeapPageSize = 4096;

private:
  std::size_t bytes_;
  int memfd_ = -1;
  std::uint8_t* app_base_ = nullptr;
  std::uint8_t* runtime_base_ = nullptr;
  bool modeled_alias_ = false;
  std::atomic<std::uint64_t> host_mprotects_{0};
  ContextId owner_;
  StatsBoard& stats_;
  const sim::CostModel* cost_;
};

} // namespace omsp::tmk
