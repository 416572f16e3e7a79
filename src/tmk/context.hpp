// DsmContext — one TreadMarks address space.
//
// In thread mode a context is an SMP node shared by procs_per_node worker
// threads (the paper's contribution); in process mode a context is a single
// processor (the paper's "original" system). Each context owns:
//   * a private copy of the shared heap (HeapMapping) whose page protections
//     implement access detection,
//   * a page table with twins, stored per-interval diffs and fetch state,
//   * the lazy-release-consistency bookkeeping: a vector time, the table of
//     known intervals with their write notices, and per-page pending/applied
//     interval marks per creator.
//
// Correctness cornerstones (each guards against a bug class found while
// hardening the protocol; see DESIGN.md):
//   * Byte-exact diffs: a diff never carries an unchanged byte, so the
//     multiple-writer merge only touches bytes its creator actually wrote.
//   * A flush write-protects the page BEFORE scanning it, so a concurrent
//     sibling store either completes (visible to the diff) or faults.
//   * Incoming diffs are applied to the twin as well as the working copy, so
//     a local diff never re-exports another context's bytes.
//   * A diff whose twin held writes not yet covered by a published interval
//     is tagged with a freshly minted interval carrying the context's
//     current vector time. Combined with diff replies piggybacking the
//     interval records the requester lacks, every consumer's later intervals
//     causally dominate the bytes it consumed — which makes the vt-sum apply
//     order correct for all conflicting diffs.
//   * Diffs gathered across all rounds of one fetch are applied in a single
//     globally vt-sorted pass (a per-round apply could put an older diff on
//     top of a newer one).
//   * Observability: every counter on these paths moves through
//     trace::record, which derives the counts from the event it emits, so a
//     lossless trace reconstructs every counter exactly (`omsp-trace check`)
//     and no site can count without tracing or trace without counting.
//
// Page table: pages_, the page locks, dirty_, last_listed_, pending_ and
// applied_ cover the prefix of the shared heap the allocator has handed out,
// not the whole reservation. They grow only in DsmSystem::shared_malloc —
// master-only, outside parallel regions, after transport quiesce() — and
// every context grows together, since a write notice can reach any of them.
// A fault past the prefix (a store no allocation covers) aborts.
//
// Locking discipline (deadlock-free by construction):
//   page_lock(p)  — one mutex per page, in both modes; guards that page's
//                   state/twin/diffs. Taken by the fault path, invalidation,
//                   and the remote diff-request handler (each only for its
//                   own context's pages). NEVER held across a remote call:
//                   the fault path marks the page "fetch in progress",
//                   unlocks, fetches, re-locks. Only invalidation holds
//                   several: a run of at most kMaxLockedRun, ascending.
//   table_mutex_  — guards vt/interval table/pending/applied/last_listed.
//                   May be taken while holding a page lock, never the other
//                   way round.
//   dirty_mutex_  — guards the dirty-page bitset and the held-page list;
//                   leaf lock (may nest inside both of the above).
//   close_mutex_  — home-based protocol only; taken first, by close_interval
//                   (held across its diff sends, whose home handlers take
//                   only the home's page locks) and records_unknown_to.
// Remote handlers only take locks of the *target* context and never call out
// while holding them, so the wait-for graph has no cross-context cycles.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bitset.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/router.hpp"
#include "race/detector.hpp"
#include "tmk/config.hpp"
#include "tmk/diff.hpp"
#include "tmk/fault_registry.hpp"
#include "tmk/heap_mapping.hpp"
#include "tmk/interval.hpp"
#include "tmk/vclock.hpp"

namespace omsp::tmk {

enum class PageState : std::uint8_t { kInvalid, kRead, kReadWrite };

// Test-only seam: when non-null, called from apply_bytes_at_home with the
// home's context id and page, page lock held, after the (modeled) write
// enable and before the incoming bytes are applied — i.e. inside the window
// the original system's protection dance used to open on the app mapping.
// Regression tests use it to park a handler mid-update while a home
// application thread stores into the same page, pinning the ordering that
// every such store faults and is twin-tracked. Never set outside tests.
extern void (*testing_home_apply_hook)(ContextId home, PageId page);

class DsmContext final : public FaultTarget, public net::MessageHandler {
public:
  DsmContext(ContextId id, const Config& config, net::Router& router);
  ~DsmContext() override;

  DsmContext(const DsmContext&) = delete;
  DsmContext& operator=(const DsmContext&) = delete;

  ContextId id() const { return id_; }
  HeapMapping& heap() { return heap_; }
  StatsBoard& stats() { return *stats_; }
  // Pages the table covers: the allocated prefix of the heap.
  std::size_t num_pages() const { return pages_.size(); }
  // Extend the table to `npages`, at least its current size. Only at a
  // quiescent point: no fault, handler or prefetch of this context may run.
  void grow_page_table(std::size_t npages);

  // --- access-miss handling (FaultTarget) ----------------------------------
  void on_fault(void* addr, bool is_write) override;

  // --- remote requests (net::MessageHandler) -------------------------------
  // Idempotent under re-delivery (the Transport contract): a duplicate
  // kDiffRequest finds the twin already consumed and ships the same stored
  // diffs again; a duplicate kDiffToHome re-applies byte-identical diffs; a
  // duplicate kPageRequest is a pure read. A lossy/perturbing transport may
  // therefore retransmit any of these without corrupting page contents.
  void handle(ContextId src, net::MsgType type, ByteReader& request,
              ByteWriter& reply) override;

  // --- release / acquire protocol ------------------------------------------
  // Close the open interval. Returns the record (already stored locally) if
  // there were dirty pages, nullopt otherwise.
  std::optional<IntervalRecord> close_interval();

  // Incorporate foreign interval records: store them, merge the vector time,
  // record pending write notices and invalidate affected pages.
  //
  // `sync` marks records arriving over a synchronization edge — barrier
  // arrival/departure, fork/join, lock grant, GC exchange — and additionally
  // merges them into the SYNC vector time the race detector orders accesses
  // by. Data-path piggybacks (page/diff fetch replies, prefetch batches)
  // pass false: a data fetch moves bytes, not happens-before — treating it
  // as an ordering edge would hide a race whenever the second writer's
  // fault lands after the first writer's stores (host-scheduling dependent).
  void apply_records(const std::vector<IntervalRecord>& records,
                     bool sync = true);

  // All records (any creator) with seq > other_vt[creator]. Used to build
  // lock-grant, barrier and diff-reply payloads.
  std::vector<IntervalRecord> records_unknown_to(const VectorTime& other_vt);

  VectorTime vt_snapshot();
  // The synchronization-only clock (see sync_vt_): what this context knows
  // through real sync edges alone. This is what sync_cover() on a peer
  // should receive — passing vt_snapshot() would launder data-piggyback
  // knowledge into the happens-before order.
  VectorTime sync_vt_snapshot();
  IntervalSeq own_seq();

  // --- introspection (tests) ------------------------------------------------
  PageState page_state(PageId p);
  bool page_dirty(PageId p);
  std::size_t stored_diff_count(PageId p);

  // --- garbage collection (quiescent barriers only) --------------------------
  // Modeled bytes of stored diffs: what the original system keeps for remote
  // consumption until GC (and what triggers it). Released diffs still count.
  std::size_t stored_diff_bytes() const {
    return stored_diff_bytes_.load(std::memory_order_relaxed);
  }
  // Host bytes of stored diffs not yet released (release_applied_diffs). Not
  // a StatsBoard counter: host memory, not modeled protocol state.
  std::size_t held_diff_bytes() const {
    return held_diff_bytes_.load(std::memory_order_relaxed);
  }
  // Newest diff seq of `creator` this context has applied for page p.
  IntervalSeq applied_seq(PageId p, ContextId creator);
  // Free the bytes of each stored diff of a page p whose seq is at most
  // applied_by_all(p): the newest seq of this context's diffs for p that
  // every other context has applied. Keeps each entry's seq and modeled
  // size. Only sound at a quiescent point (no request in flight): applied_
  // only grows and every later request for p carries have >= applied_, so a
  // released diff is never shipped again. Costs one call per page still
  // holding bytes.
  void release_applied_diffs(
      const std::function<IntervalSeq(PageId)>& applied_by_all);
  // Bring every page up to date (fetch all pending diffs). Caller must
  // guarantee no concurrent application activity (all threads at a barrier).
  void validate_all_pages();
  // Drop stored diffs and compact interval tables. Only sound when every
  // context has validated (applied == pending everywhere) and all vector
  // times are equal — the caller (the barrier manager) checks that.
  void collect_garbage();

  // --- barrier-time batched prefetch (overlap.prefetch) ---------------------
  // Issue one aggregated kDiffRequestBatch per creator covering every page
  // this context holds pending-but-unapplied notices for. Called once per
  // context right after barrier departure (clock == departure time) so the
  // fetch overlaps post-barrier compute until first touch. No-op unless the
  // transport supports async and the protocol is lazy RC.
  void start_prefetch_round();
  // Block until every in-flight prefetch batch has replied and park the
  // diffs in the prefetch buffer. Safe to call from any thread not holding
  // a page lock.
  void absorb_prefetch_replies();
  // Drop all buffered prefetched diffs. The buffer persists across barriers
  // (its per-entry coverage is what stops a round from re-shipping history),
  // so this is only sound right after a GC validated every page — everything
  // buffered is stale by then.
  void clear_prefetch_buffer();

  // --- data-race detection (Config::race) ------------------------------------
  // Wire the system-owned detector in; every flush and fault hook feeds it.
  // nullptr (the default) keeps all hooks inert.
  void set_race_detector(race::Detector* d) { race_ = d; }
  // Sync-edge hook: merge a peer's full vector time into the sync clock.
  // Called by the system at real synchronization transfers (barrier
  // departure, fork, join, lock grant) where the record stream alone can
  // under-deliver: records_unknown_to() skips intervals this context already
  // learned through data piggybacks, but after a sync edge those intervals
  // ARE happens-before ordered and the race clock must say so.
  void sync_cover(const VectorTime& vt);
  // Sweep-time collection: record each dirty page's delta since the last
  // collection (diff against the page's race twin) as a write of the page's
  // current unflushed interval. Uncounted (no stats, no clock charge — a
  // diagnostic read, not protocol traffic); only called from the system's
  // quiescent-point sweep.
  void race_collect_pending();

private:
  // One diff this context created for a page. `size` is its modeled size,
  // kept until GC; `bytes` is the host copy, emptied once every other
  // context has applied it (a stored diff is never empty before that).
  struct StoredDiff {
    IntervalSeq seq = 0;
    std::uint32_t size = 0;
    DiffBytes bytes;
  };

  struct PageMeta {
    // The host application mapping's protection follows `state` (kInvalid
    // = PROT_NONE, kRead = PROT_READ, kReadWrite = PROT_READ|WRITE).
    PageState state = PageState::kRead;
    // The MODELED protection: what the original system's mapping would have.
    // It equals the host's except during a process-mode fetch, whose
    // write-enable (charge_write_enable) is charged but not issued — the
    // page stays PROT_NONE on the host until the fault path installs its
    // final access. Lets process mode know when a write-enable is owed.
    Protection prot = Protection::kRead;
    bool fetch_in_progress = false;
    // Prefetch-candidate gate, both required. `fresh_invalidate` is set on
    // the valid->invalid transition and consumed by the next prefetch round:
    // pages that stayed invalid because the context stopped touching them
    // don't re-qualify. `ever_accessed` is set at the first fault and never
    // cleared: pages are born kRead, so the transition alone also fires for
    // born-valid pages this context never touched (e.g. a whole array the
    // master initialized), which would ship every creator's stream here
    // speculatively.
    bool fresh_invalidate = false;
    bool ever_accessed = false;
    // Set whenever write access is granted; cleared when a flush ships the
    // twin. While set, the twin may hold writes not yet covered by any
    // published interval, so the flush must mint a fresh interval for them.
    bool written_since_flush = false;
    // kPageSize bytes, filled in full when made (make_twin).
    std::unique_ptr<std::uint8_t[]> twin;
    // Race-detection baseline (detector on only): the page content at the
    // last time the detector collected this page's delta. Born equal to the
    // twin, advanced to the current content at every collection, and patched
    // with the same remote bytes as the twin — so (current − race_twin) is
    // exactly the local writes not yet attributed to an interval, while the
    // protocol twin keeps its own lifecycle untouched. Dies with the twin.
    std::unique_ptr<std::uint8_t[]> race_twin;
    // Newest own interval seq whose close (or the sweep) has collected this
    // page's delta. Lets a fetch-forced flush tell pre-close bytes (a close
    // listed p but has not collected it yet — attribute to that close) from
    // current-epoch bytes (attribute to the freshly minted interval).
    IntervalSeq race_collected_seq = 0;
    // Per-interval diffs created by this context for this page, seq ascending.
    std::vector<StoredDiff> stored_diffs;
  };

  struct IntervalInfo {
    VectorTime vt;
    std::vector<PageId> pages;
  };

  std::mutex& page_lock(PageId p) { return page_mutexes_[p]; }
  // Aborts unless the table covers p: no allocation reaches past it.
  void check_allocated(PageId p) const;

  // Fault path helpers. All called with page_lock(p) held unless noted.
  void fetch_and_apply(PageId p, std::unique_lock<std::mutex>& lock);
  void make_twin(PageId p);
  // Creator-side: turn the outstanding twin into a stored diff, minting a
  // fresh interval when the twin holds unpublished writes. Frees the twin.
  void flush_page_diff_locked(PageId p);
  // Creator-side page body of both diff-request replies (page lock held, no
  // twin outstanding): the floor (last_listed_[p]), then the count and the
  // (seq, vt sum, bytes) of every stored diff of p tagged above `have`.
  void put_page_diffs_locked(PageId p, IntervalSeq have, ByteWriter& out);
  // Protection change that accompanies a page-state change: one host
  // mprotect, plus the modeled one unless PageMeta.prot is already `prot`.
  void set_prot(PageId p, Protection prot);
  // Process mode's write-enable before an update is installed: modeled only
  // (counted, charged, PageMeta.prot := kReadWrite). Returns false, doing
  // nothing, when none is owed: with the alias, or if already writable.
  bool charge_write_enable(PageId p);
  // Invalidate the pages of [first, first + n) that are still valid, under
  // all of the run's page locks, with one host mprotect (apply_records). n is
  // at most kMaxLockedRun (context.cc).
  void invalidate_run(PageId first, std::size_t n);
  // Home-based protocol helpers.
  ContextId home_of(PageId p) const { return p % nc_; }
  void fetch_from_home(PageId p, std::unique_lock<std::mutex>& lock);
  // Install `bytes` into this (home) context's copy of p, preserving a
  // concurrent local twin's delta discipline.
  void apply_bytes_at_home(PageId p, const std::uint8_t* bytes,
                           std::size_t len, bool full_page);

  std::uint64_t vt_sum_of_own(IntervalSeq seq);

  // One diff as shipped in a diff reply, held until its fetch session
  // applies it in vt-sum order.
  struct ShippedDiff {
    IntervalSeq seq = 0;
    std::uint64_t vt_sum = 0;
    DiffBytes diff;
  };
  // Requester-side reader of what put_page_diffs_locked wrote: appends the
  // shipped diffs to `out` and returns the coverage, the highest of `have`,
  // the floor and the shipped tags. Every interval of the creator at or
  // below it is then applied or in `out`.
  static IntervalSeq read_page_diffs(ByteReader& r, IntervalSeq have,
                                     std::vector<ShippedDiff>& out);

  // --- barrier prefetch internals -------------------------------------------
  // Prefetched state for one (page, creator) pair. `ready_us` is the modeled
  // completion time of the batch reply. `covers` is read_page_diffs' answer
  // over the request-time `have`: every interval at or below it is either
  // applied at request time or present in `diffs`. The drain raises applied_
  // to it even when no diffs shipped, and the next prefetch round requests
  // only diffs above it, so a page that sits prefetched-but-untouched across
  // barriers ships each diff once, not its whole history every round.
  struct PrefetchEntry {
    ContextId creator = 0;
    IntervalSeq covers = 0;
    double ready_us = 0;
    std::vector<ShippedDiff> diffs;
  };
  // One outstanding kDiffRequestBatch: the pages asked of one creator plus
  // the pending reply handle.
  struct PrefetchBatch {
    ContextId creator = 0;
    std::vector<std::pair<PageId, IntervalSeq>> pages; // (page, have)
    net::PendingReply reply;
  };

  // True when this context issues and drains barrier prefetch batches.
  bool overlap_prefetch() const;
  // Wait for one batch's reply, apply its piggybacked records (no locks
  // held), then park its diffs in prefetch_buffer_. Caller must have removed
  // the batch from prefetch_inflight_ already.
  void absorb_batch_reply(PrefetchBatch& batch);
  // Absorb only the in-flight batches whose page list contains p (fault
  // path: first touch of a prefetched page waits for its batch instead of
  // re-requesting the same diffs). No page lock may be held.
  void absorb_inflight_for(PageId p);

  // Guards prefetch_inflight_ and prefetch_buffer_. Never held across a
  // blocking wait or while taking any other lock: absorb removes batches
  // under it, releases it, waits/parses, then re-takes it to insert buffer
  // entries; the fault-path drain takes it briefly inside a page lock.
  std::mutex prefetch_mutex_;
  std::vector<PrefetchBatch> prefetch_inflight_;
  // Buffered prefetched diffs per page. A pure cache: applied_ only advances
  // when entries are drained into an active fetch session (draining under
  // the page lock), never at absorb time — otherwise a fetch session already
  // past its drain could mark bytes applied that it never merged.
  std::unordered_map<PageId, std::vector<PrefetchEntry>> prefetch_buffer_;

  const Config& config_;
  ContextId id_;
  std::uint32_t nc_ = 0; // cached num_contexts
  // OMSP_CHAOS, read once at construction (context.cc, chaos_point).
  const unsigned chaos_permille_;
  net::Router& router_;
  StatsBoard* stats_;
  race::Detector* race_ = nullptr;
  HeapMapping heap_;

  // A deque grows without moving its elements, and a mutex cannot move.
  std::deque<std::mutex> page_mutexes_;
  std::condition_variable_any fetch_cv_;

  std::vector<PageMeta> pages_;

  // Home-based protocol only: held by close_interval from before the
  // record is published until its diffs reached their homes, and taken by
  // records_unknown_to, so no record leaves ahead of its diffs.
  std::mutex close_mutex_;

  std::mutex dirty_mutex_;
  DynamicBitset dirty_;
  // Pages whose newest stored diff still holds bytes, so a release pass
  // visits those and no others. Released diffs form a prefix of a page's
  // stored_diffs, so these are exactly the pages holding any bytes.
  std::vector<PageId> held_pages_;

  std::atomic<std::size_t> stored_diff_bytes_{0};
  std::atomic<std::size_t> held_diff_bytes_{0};

  std::mutex table_mutex_;
  VectorTime vt_;
  // Synchronization-only vector time (guarded by table_mutex_ like vt_):
  // advanced by own interval closes and by apply_records(sync=true) merges,
  // never by data-path piggybacks. sync_vt_ <= vt_ componentwise. The race
  // detector captures THIS clock in its write entries, so two accesses look
  // ordered only when a real sync chain (barrier, fork/join, lock transfer)
  // connects them — not when one merely fetched the other's bytes.
  VectorTime sync_vt_;
  // Interval records per creator; the record for (c, seq) lives at index
  // seq - 1 - table_base_[c]. GC advances the base and drops the prefix.
  std::vector<std::vector<IntervalInfo>> table_;
  std::vector<IntervalSeq> table_base_;
  // last_listed_[p]: newest own interval whose record lists page p.
  std::vector<IntervalSeq> last_listed_;
  // pending_[p * ncontexts + c]: newest notice seq received for (p, c).
  // applied_[p * ncontexts + c]: newest diff seq applied for (p, c).
  std::vector<IntervalSeq> pending_;
  std::vector<IntervalSeq> applied_;
  // Close-time sync_vt_ per own interval seq, populated (detector on only)
  // by close_interval and the flush mint branch, consumed and cleared by
  // race_collect_pending at the next sweep. Guarded by table_mutex_.
  std::map<IntervalSeq, VectorTime> close_sync_vts_;
};

} // namespace omsp::tmk
