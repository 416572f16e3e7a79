#include "tmk/context.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/tracer.hpp"

#include <ctime>

namespace omsp::tmk {

namespace {
// Chaos mode (OMSP_CHAOS=<permille>): sleeps a random few microseconds at
// protocol decision points to shake out interleavings the scheduler would
// rarely produce. Each context reads the variable once, when it is built (so
// a test sets it before constructing the system); unset, a chaos point costs
// one compare.
unsigned chaos_permille() {
  const char* env = std::getenv("OMSP_CHAOS");
  return env != nullptr ? static_cast<unsigned>(std::atoi(env)) : 0u;
}

void chaos_point(unsigned p) {
  if (p == 0) return;
  thread_local std::uint64_t state =
      0x9e3779b97f4a7c15ULL ^
      reinterpret_cast<std::uintptr_t>(&state);
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  if (state % 1000 < p) {
    timespec ts{0, static_cast<long>(1000 + state % 20000)}; // 1-21 us
    nanosleep(&ts, nullptr);
  }
}

// Longest run of pages apply_records invalidates at once: the run holds all
// its page locks, and ThreadSanitizer tracks at most 64 mutexes held by one
// thread.
constexpr std::size_t kMaxLockedRun = 32;

} // namespace

void (*testing_home_apply_hook)(ContextId, PageId) = nullptr;

DsmContext::DsmContext(ContextId id, const Config& config, net::Router& router)
    : config_(config), id_(id), chaos_permille_(chaos_permille()),
      router_(router), stats_(&router.stats(id)),
      heap_(config.heap_bytes, config.use_alias_mapping(), id, *stats_,
            &config.cost) {
  nc_ = config.num_contexts();
  vt_ = VectorTime(nc_);
  sync_vt_ = VectorTime(nc_);
  table_.resize(nc_);
  table_base_.assign(nc_, 0);
  router_.bind_handler(id, this);
  FaultRegistry::add_region(heap_.app_base(), heap_.bytes(), this);
  // Force the one-time trap-overhead calibration NOW, in normal context: it
  // takes page faults of its own, and deferring it to the first real fault
  // would nest synchronous SIGSEGVs inside the handler — a pattern
  // ThreadSanitizer's signal interception cannot survive (and an in-handler
  // measurement would be skewed by the live signal frame anyway).
  (void)FaultRegistry::fault_trap_overhead_us();
}

DsmContext::~DsmContext() { FaultRegistry::remove_region(heap_.app_base()); }

void DsmContext::grow_page_table(std::size_t npages) {
  OMSP_CHECK(pages_.size() <= npages && npages <= heap_.pages());
  while (page_mutexes_.size() < npages) page_mutexes_.emplace_back();
  pages_.resize(npages);
  dirty_.grow(npages);
  last_listed_.resize(npages, 0);
  pending_.resize(npages * nc_, 0);
  applied_.resize(npages * nc_, 0);
}

void DsmContext::check_allocated(PageId p) const {
  OMSP_CHECK_MSG(p < pages_.size(), "access to unallocated shared heap");
}

void DsmContext::on_fault(void* addr, bool is_write) {
  OMSP_CHECK_MSG(heap_.contains(addr), "fault outside this context's heap");
  sim::RuntimeSection rs;
  if (rs.clock() != nullptr) {
    rs.clock()->charge(config_.cost.fault_dispatch_us);
    // The kernel's trap/sigreturn time around this fault was captured by the
    // clock sync as if it were application compute; take it back out.
    rs.clock()->discount_cpu(FaultRegistry::fault_trap_overhead_us());
  }
  const double fault_t0 =
      rs.clock() != nullptr ? rs.clock()->now_us() : 0;

  const PageId p = heap_.page_of(addr);
  check_allocated(p);
  if (race_ != nullptr) race_->record_access(id_, p, is_write);
  std::unique_lock<std::mutex> lock(page_lock(p));
  PageMeta& meta = pages_[p];
  meta.ever_accessed = true;

  for (;;) {
    if (meta.fetch_in_progress) {
      // Another thread of this node is updating the page (thread mode).
      fetch_cv_.wait(lock);
      continue;
    }
    if (meta.state == PageState::kInvalid) {
      if (config_.protocol == Protocol::kHomeLRC)
        fetch_from_home(p, lock);
      else
        fetch_and_apply(p, lock);
      // fetch_and_apply leaves state kInvalid with all pending notices
      // applied; install the final access below.
      const bool want_write = is_write || meta.twin != nullptr;
      if (want_write) {
        if (meta.twin == nullptr) make_twin(p);
        meta.state = PageState::kReadWrite;
        meta.written_since_flush = true;
        set_prot(p, Protection::kReadWrite);
      } else {
        meta.state = PageState::kRead;
        set_prot(p, Protection::kRead);
      }
      fetch_cv_.notify_all();
      break;
    }
    if (is_write && meta.state == PageState::kRead) {
      // Write miss on a valid page: start an interval's twin (or resume one
      // a flush left behind) and open the page for writing — one mprotect;
      // the alias mapping removed the original system's separate
      // write-enable (§3.3.1).
      if (meta.twin == nullptr) make_twin(p);
      meta.state = PageState::kReadWrite;
      meta.written_since_flush = true;
      set_prot(p, Protection::kReadWrite);
      break;
    }
    // Spurious: another thread already installed sufficient access.
    break;
  }
  trace::record(*stats_, trace::EventKind::kPageFault, id_, p, 0,
                is_write ? trace::kFlagWrite : std::uint16_t{0},
                rs.clock() != nullptr ? rs.clock()->now_us() - fault_t0 : 0);
}

void DsmContext::set_prot(PageId p, Protection prot) {
  PageMeta& meta = pages_[p];
  // Every caller changes the page's state, so the host mapping changes too.
  // The modeled protection may already be `prot`: process mode's fetch
  // charged the write-enable (charge_write_enable) without a syscall.
  heap_.protect_host(p, 1, prot);
  if (meta.prot != prot) heap_.charge_protect(p, prot);
  meta.prot = prot;
}

bool DsmContext::charge_write_enable(PageId p) {
  PageMeta& meta = pages_[p];
  if (heap_.has_alias() || meta.prot == Protection::kReadWrite) return false;
  heap_.charge_protect(p, Protection::kReadWrite);
  meta.prot = Protection::kReadWrite;
  return true;
}

void DsmContext::make_twin(PageId p) {
  PageMeta& meta = pages_[p];
  OMSP_CHECK(meta.twin == nullptr);
  // Uninitialized: snapshot_page fills every byte.
  meta.twin = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
  heap_.snapshot_page(p, meta.twin.get());
  if (race_ != nullptr) {
    // The detector's collection baseline starts out identical to the twin
    // and then tracks "content at last collection" (see PageMeta::race_twin).
    meta.race_twin = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
    std::memcpy(meta.race_twin.get(), meta.twin.get(), kPageSize);
    // A fresh twin has no uncollected bytes: mark it collected up to the
    // newest listing so a pre-sweep flush attributes new writes to its mint
    // rather than to a stale close still on file.
    std::lock_guard<std::mutex> tl(table_mutex_);
    meta.race_collected_seq = last_listed_[p];
  }
  trace::record(*stats_, trace::EventKind::kTwinCreate, id_, p);
  if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
    clock->charge(config_.cost.twin_us);
  std::lock_guard<std::mutex> dl(dirty_mutex_);
  dirty_.set(p);
}

void DsmContext::fetch_and_apply(PageId p, std::unique_lock<std::mutex>& lock) {
  PageMeta& meta = pages_[p];
  OMSP_CHECK(!meta.fetch_in_progress);
  meta.fetch_in_progress = true;

  if (overlap_prefetch()) {
    // A barrier-time batch covering this page may still be in flight; wait
    // for it (no page lock held) so the drain below serves this fault from
    // the buffer instead of re-requesting the same diffs.
    lock.unlock();
    absorb_inflight_for(p);
    lock.lock();
  }

  struct Need {
    ContextId creator;
    IntervalSeq have;
    IntervalSeq want;
  };

  // Collect every diff first, apply once at the end: applying per fetch
  // round could put a later round's lower-vt diff on top of bytes a causally
  // newer diff already installed. Notice batches are vector-time-complete,
  // so all causally related pendings surface within this one fetch session
  // and a single global sort yields a correct order.
  std::vector<ShippedDiff> got;

  for (;;) {
    std::vector<Need> needs;
    VectorTime my_vt;
    {
      std::lock_guard<std::mutex> tl(table_mutex_);
      my_vt = vt_;
      for (ContextId c = 0; c < nc_; ++c) {
        if (c == id_) continue;
        const IntervalSeq pend = pending_[std::size_t{p} * nc_ + c];
        const IntervalSeq have = applied_[std::size_t{p} * nc_ + c];
        if (pend > have) needs.push_back({c, have, pend});
      }
    }
    if (needs.empty()) break;

    if (overlap_prefetch()) {
      // Drain buffered prefetched diffs first (page lock held; the buffer
      // mutex is taken briefly and never blocks). A need fully covered by
      // the buffer is a prefetch hit and skips the network entirely; a
      // partial cover just raises `have` for the request below. applied_
      // only advances here — inside the fetch session that moves the bytes
      // into `got` — never at absorb time.
      std::vector<PrefetchEntry> entries;
      {
        std::lock_guard<std::mutex> pm(prefetch_mutex_);
        auto it = prefetch_buffer_.find(p);
        if (it != prefetch_buffer_.end()) {
          entries = std::move(it->second);
          prefetch_buffer_.erase(it);
        }
      }
      if (!entries.empty()) {
        auto* clock = sim::VirtualClock::current();
        for (auto it = needs.begin(); it != needs.end();) {
          Need& nd = *it;
          // Merge every buffered entry from this creator: rounds chain (each
          // requested only diffs above the previous round's coverage), so the
          // contiguous history is the union of the entries, not the last one.
          IntervalSeq maxseq = nd.have;
          std::uint64_t used_bytes = 0;
          double ready = 0;
          bool matched = false;
          for (auto& ent : entries) {
            if (ent.creator != nd.creator) continue;
            matched = true;
            maxseq = std::max(maxseq, ent.covers);
            ready = std::max(ready, ent.ready_us);
            for (auto& d : ent.diffs) {
              if (d.seq <= nd.have) continue; // stale: already applied
              used_bytes += d.diff.size();
              got.push_back(std::move(d));
            }
          }
          if (!matched) {
            ++it;
            continue;
          }
          {
            std::lock_guard<std::mutex> tl(table_mutex_);
            IntervalSeq& a = applied_[std::size_t{p} * nc_ + nd.creator];
            a = std::max(a, maxseq);
          }
          // Residual stall: zero when the batch completed before this first
          // touch (the prefetch fully overlapped with compute).
          const double t0 = clock != nullptr ? clock->now_us() : 0;
          if (clock != nullptr) clock->advance_to(ready);
          const double residual = clock != nullptr ? clock->now_us() - t0 : 0;
          if (maxseq >= nd.want) {
            trace::record(*stats_, trace::EventKind::kPrefetchHit, id_, p,
                          used_bytes,
                          router_.same_node(id_, nd.creator)
                              ? std::uint16_t{0}
                              : trace::kFlagOffNode,
                          residual);
            it = needs.erase(it);
          } else {
            nd.have = std::max(nd.have, maxseq);
            ++it;
          }
        }
      }
      // The absorbed records may have queued fresh notices; recompute.
      if (needs.empty()) continue;
    }

    // Fetch with no page lock held: a remote context may concurrently be
    // fetching *our* diffs for the same page (mutual false sharing) and its
    // request handler takes our page lock.
    lock.unlock();
    chaos_point(chaos_permille_);
    // One request per creator, all issued before any reply is read. An
    // asynchronous transport overlaps their round trips, so the stall ends at
    // the latest completion, not after the sum (TreadMarks' SIGIO request
    // service lets creators reply concurrently); a synchronous one runs and
    // charges each round trip as it is issued. The request carries our
    // vector time; the reply piggybacks every interval record we lack.
    // Merging them (an acquire, effectively) before our next interval closes
    // makes our later intervals causally dominate every byte consumed here —
    // the property that makes the vt-sum apply order correct for conflicting
    // diffs.
    std::vector<net::PendingReply> replies;
    replies.reserve(needs.size());
    for (const Need& need : needs) {
      // Sized up front: one allocation, and no first put into an empty
      // writer, which GCC 12 at -O2 flags (-Wnonnull) once inlined here.
      ByteWriter req(sizeof(PageId) + 2 * sizeof(IntervalSeq) +
                     my_vt.wire_size());
      req.put<PageId>(p);
      req.put<IntervalSeq>(need.have);
      req.put<IntervalSeq>(need.want);
      my_vt.serialize(req);
      replies.push_back(router_.transport().call_async(net::Envelope::request(
          id_, need.creator, net::MsgType::kDiffRequest, req)));
    }
    double last_complete = 0;
    for (std::size_t i = 0; i < needs.size(); ++i) {
      const Need& need = needs[i];
      double complete = 0;
      const auto reply = replies[i].wait_at(&complete); // clock moves below
      last_complete = std::max(last_complete, complete);
      trace::note(trace::EventKind::kDiffFetch, id_, p, reply.size(),
                  router_.same_node(id_, need.creator) ? std::uint16_t{0}
                                                       : trace::kFlagOffNode);
      ByteReader r(reply);
      const auto recs = deserialize_records(r);
      if (!recs.empty())
        apply_records(recs, /*sync=*/false); // data piggyback, no page lock
      const IntervalSeq covers = read_page_diffs(r, need.have, got);
      std::lock_guard<std::mutex> tl(table_mutex_);
      IntervalSeq& a = applied_[std::size_t{p} * nc_ + need.creator];
      a = std::max(a, covers);
    }
    if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
      clock->advance_to(last_complete);
    lock.lock();
    // Loop: the piggybacked records (or a concurrent acquire by another
    // thread of this node) may have queued new notices while we fetched.
  }

  // Apply in a linearization of happens-before (vt sums): causally ordered
  // diffs land in order; concurrent diffs touch disjoint bytes in any
  // data-race-free program, so their relative order is irrelevant.
  std::stable_sort(got.begin(), got.end(),
                   [](const ShippedDiff& a, const ShippedDiff& b) {
                     return a.vt_sum < b.vt_sum;
                   });
  if (!got.empty()) {
    // The original system write-enables the page here; the stores go
    // through the runtime mapping, so only that mprotect's cost is modeled
    // and the page stays PROT_NONE on the host until the fault path
    // installs its final access — no sibling access slips past detection.
    charge_write_enable(p);
    std::uint8_t* dst = heap_.runtime_page(p);
    auto* clock = sim::VirtualClock::current();
    for (const ShippedDiff& g : got) {
      apply_diff(g.diff, dst);
      // A locally-dirty page must absorb remote diffs into its twin as well:
      // otherwise this context's next diff would re-export the remote bytes
      // under its own (possibly concurrent) interval, and a third context
      // could apply that stale copy over a newer write. With the twin kept
      // current, local diffs contain local writes only.
      if (meta.twin != nullptr) apply_diff(g.diff, meta.twin.get());
      // The race baseline absorbs the same remote bytes: they are not this
      // context's writes and must never surface in its collection delta.
      if (meta.race_twin != nullptr) apply_diff(g.diff, meta.race_twin.get());
      trace::record(*stats_, trace::EventKind::kDiffApply, id_, p,
                    g.diff.size());
      if (clock != nullptr)
        clock->charge(config_.cost.diff_apply_base_us +
                      config_.cost.diff_byte_us *
                          static_cast<double>(g.diff.size()));
    }
  }
  meta.fetch_in_progress = false;
}

void DsmContext::handle(ContextId src, net::MsgType type, ByteReader& request,
                        ByteWriter& reply) {
  (void)src;
  if (type == net::MsgType::kDiffToHome) {
    const auto p = request.get<PageId>();
    OMSP_CHECK(home_of(p) == id_);
    const DiffBytes diff = request.get_span<std::uint8_t>();
    std::lock_guard<std::mutex> pl(page_lock(p));
    apply_bytes_at_home(p, diff.data(), diff.size(), /*full_page=*/false);
    trace::record(*stats_, trace::EventKind::kDiffApply, id_, p, diff.size());
    return;
  }
  if (type == net::MsgType::kPageRequest) {
    const auto p = request.get<PageId>();
    OMSP_CHECK(home_of(p) == id_);
    std::lock_guard<std::mutex> pl(page_lock(p));
    // The home's copy is authoritative and always valid; snapshot it.
    std::uint8_t snapshot[kPageSize];
    heap_.snapshot_page(p, snapshot);
    reply.put_span<std::uint8_t>({snapshot, kPageSize});
    trace::record(*stats_, trace::EventKind::kFullPageFetch, id_, p,
                  kPageSize);
    return;
  }
  if (type == net::MsgType::kDiffRequestBatch) {
    // Aggregated multi-page diff fetch (barrier prefetch). Semantically
    // identical to one kDiffRequest per page — and idempotent the same way —
    // just framed as a single message so a whole barrier's worth of
    // invalidations costs one request/reply pair per creator.
    const auto npages = request.get<std::uint32_t>();
    std::vector<std::pair<PageId, IntervalSeq>> wants(npages);
    for (auto& [p, have] : wants) {
      p = request.get<PageId>();
      have = request.get<IntervalSeq>();
    }
    const VectorTime req_vt = VectorTime::deserialize(request);

    // Phase 1: per page, flush the outstanding twin and serialize the stored
    // diffs into a side buffer.
    ByteWriter body;
    for (const auto& [p, have] : wants) {
      check_allocated(p);
      std::unique_lock<std::mutex> lock(page_lock(p));
      PageMeta& meta = pages_[p];
      if (meta.twin != nullptr) flush_page_diff_locked(p);
      body.put<PageId>(p);
      put_page_diffs_locked(p, have, body);
    }

    // Phase 2: piggybacked records, computed AFTER every flush above so the
    // freshly minted intervals are included (same ordering argument as the
    // single-page reply).
    serialize_records(records_unknown_to(req_vt), reply);
    reply.put<std::uint32_t>(npages);
    const auto b = body.take();
    reply.put_bytes(b.data(), b.size());
    return;
  }

  OMSP_CHECK_MSG(type == net::MsgType::kDiffRequest,
                 "unknown tmk message type");
  const auto p = request.get<PageId>();
  const auto have = request.get<IntervalSeq>();
  (void)request.get<IntervalSeq>(); // want — informational
  const VectorTime req_vt = VectorTime::deserialize(request);
  check_allocated(p);

  std::unique_lock<std::mutex> lock(page_lock(p));
  PageMeta& meta = pages_[p];
  // Lazy diffing: materialize the outstanding twin only when a requester
  // actually asks for this page.
  if (meta.twin != nullptr) flush_page_diff_locked(p);

  // Piggyback every interval record the requester lacks. Computed AFTER the
  // flush so a freshly minted interval is included — the requester must
  // merge it for the causal-dominance ordering argument to hold.
  // (records_unknown_to takes the table lock, which nests inside page locks.)
  serialize_records(records_unknown_to(req_vt), reply);
  put_page_diffs_locked(p, have, reply);
}

void DsmContext::put_page_diffs_locked(PageId p, IntervalSeq have,
                                       ByteWriter& out) {
  // With no twin outstanding, everything any of our published intervals has
  // listed for this page is contained in the stored diffs. The floor lets
  // the requester mark those intervals applied even when its `have` filter
  // leaves nothing to send (e.g. the content travelled under an older tag
  // fetched earlier).
  IntervalSeq floor;
  {
    std::lock_guard<std::mutex> tl(table_mutex_);
    floor = last_listed_[p];
  }
  out.put<IntervalSeq>(floor);
  const auto& diffs = pages_[p].stored_diffs; // seq ascending
  const auto first = std::partition_point(
      diffs.begin(), diffs.end(),
      [have](const StoredDiff& d) { return d.seq <= have; });
  out.put<std::uint32_t>(static_cast<std::uint32_t>(diffs.end() - first));
  for (auto it = first; it != diffs.end(); ++it) {
    // A diff is released only once every other context has applied it, and
    // every request carries have >= the requester's applied_.
    OMSP_CHECK_MSG(!it->bytes.empty(), "requested diff was already released");
    out.put<IntervalSeq>(it->seq);
    out.put<std::uint64_t>(vt_sum_of_own(it->seq));
    out.put_span<std::uint8_t>({it->bytes.data(), it->bytes.size()});
  }
}

IntervalSeq DsmContext::read_page_diffs(ByteReader& r, IntervalSeq have,
                                        std::vector<ShippedDiff>& out) {
  IntervalSeq covers = std::max(have, r.get<IntervalSeq>()); // the floor
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    ShippedDiff d;
    d.seq = r.get<IntervalSeq>();
    d.vt_sum = r.get<std::uint64_t>();
    d.diff = r.get_span<std::uint8_t>();
    covers = std::max(covers, d.seq);
    out.push_back(std::move(d));
  }
  return covers;
}

void DsmContext::apply_bytes_at_home(PageId p, const std::uint8_t* bytes,
                                     std::size_t len, bool full_page) {
  PageMeta& meta = pages_[p];
  // The home needs write access to its own copy. The original system
  // write-enables the app mapping here — safe there because the handler
  // interrupts the lone application thread, making the RW window atomic.
  // This runtime executes handlers on other host threads, concurrently with
  // the home's application threads: relaxing the app mapping would let a
  // concurrent application store land without faulting — no twin, no dirty
  // bit, no write notice — and a later diff from a context still holding
  // the pre-window base would silently revert it (the lost update behind
  // the historical TriangularStress/HomeProcess miscompute). So the update
  // always goes through the runtime mapping; process mode only CHARGES the
  // modeled write-enable pair so its mprotect accounting (Table 3) is
  // unchanged.
  const Protection app_prot = meta.prot;
  const bool modeled_write_enable = charge_write_enable(p);
  std::uint8_t* dst = heap_.runtime_page(p);
  if (testing_home_apply_hook != nullptr) testing_home_apply_hook(id_, p);
  // Uncollected LOCAL writes at the home (current − race baseline) are about
  // to be overwritten by the incoming bytes — last-writer-wins at the home.
  // Freeze the baseline's OLD bytes there: mirroring the incoming bytes over
  // them would erase the local write from the value oracle, and the home's
  // side of exactly the write-write race being perpetrated would go
  // undetected. With the old bytes kept, the next collection still yields a
  // delta over the overwritten range and attributes it to the home's close.
  std::uint8_t pre[kPageSize];
  std::uint8_t old_rt[kPageSize];
  const bool preserve_local = meta.race_twin != nullptr;
  if (preserve_local) {
    heap_.snapshot_page(p, pre);
    std::memcpy(old_rt, meta.race_twin.get(), kPageSize);
  }
  if (full_page) {
    std::memcpy(dst, bytes, kPageSize);
    if (meta.twin != nullptr) std::memcpy(meta.twin.get(), bytes, kPageSize);
    if (meta.race_twin != nullptr)
      std::memcpy(meta.race_twin.get(), bytes, kPageSize);
  } else {
    apply_diff({bytes, len}, dst);
    // Keep a concurrent local twin in sync so local diffs stay local-only;
    // same for the race baseline (remote bytes are not local writes).
    if (meta.twin != nullptr) apply_diff({bytes, len}, meta.twin.get());
    if (meta.race_twin != nullptr)
      apply_diff({bytes, len}, meta.race_twin.get());
  }
  if (preserve_local) {
    std::uint8_t* rt = meta.race_twin.get();
    for (std::size_t i = 0; i < kPageSize; ++i)
      if (pre[i] != old_rt[i]) rt[i] = old_rt[i];
  }
  // Modeled restore of the application-visible protection (see above).
  if (modeled_write_enable) {
    heap_.charge_protect(p, app_prot);
    meta.prot = app_prot;
  }
}

void DsmContext::fetch_from_home(PageId p,
                                 std::unique_lock<std::mutex>& lock) {
  PageMeta& meta = pages_[p];
  OMSP_CHECK(!meta.fetch_in_progress);
  OMSP_CHECK(home_of(p) != id_); // the home never invalidates its own pages
  meta.fetch_in_progress = true;

  for (;;) {
    // Snapshot the notices this fetch will satisfy BEFORE asking the home: a
    // notice arriving mid-fetch describes a release the fetched image may
    // predate, so it must trigger another round, not be marked applied.
    std::vector<IntervalSeq> pend_before(nc_);
    bool anything_pending = false;
    {
      std::lock_guard<std::mutex> tl(table_mutex_);
      for (ContextId c = 0; c < nc_; ++c) {
        pend_before[c] = pending_[std::size_t{p} * nc_ + c];
        if (pend_before[c] > applied_[std::size_t{p} * nc_ + c])
          anything_pending = true;
      }
    }
    if (!anything_pending) break;

    // Preserve local writes: capture the twin delta before the whole-page
    // overwrite, re-apply it on top afterwards, and rebase the twin onto
    // the fetched image so the next release diff carries only local bytes.
    DiffBytes local_delta;
    DiffBytes attributed_delta;
    if (meta.twin != nullptr) {
      std::uint8_t snapshot[kPageSize];
      heap_.snapshot_page(p, snapshot);
      local_delta = create_diff(meta.twin.get(), snapshot, kPageSize);
      // Local writes the detector already collected live only in the race
      // baseline (race_twin − twin); capture them so the rebase below can
      // carry them onto the fetched image.
      if (meta.race_twin != nullptr)
        attributed_delta =
            create_diff(meta.twin.get(), meta.race_twin.get(), kPageSize);
    }

    lock.unlock();
    ByteWriter req;
    req.put<PageId>(p);
    auto reply = router_.transport().call(net::Envelope::request(
        id_, home_of(p), net::MsgType::kPageRequest, req));
    lock.lock();

    ByteReader r(reply);
    const auto page_bytes = r.get_span<std::uint8_t>();
    OMSP_CHECK(page_bytes.size() == kPageSize);
    // As in fetch_and_apply: the write-enable is modeled only; the
    // installation writes go through the runtime mapping.
    charge_write_enable(p);
    std::uint8_t* dst = heap_.runtime_page(p);
    std::memcpy(dst, page_bytes.data(), kPageSize);
    if (meta.twin != nullptr)
      std::memcpy(meta.twin.get(), page_bytes.data(), kPageSize);
    if (meta.race_twin != nullptr) {
      // Rebase the race baseline like the twin, then restore the already-
      // attributed local writes on top: the invariant race_twin = twin +
      // attributed-local-writes survives the whole-page overwrite, so the
      // next collection still yields only writes made since the last one.
      std::memcpy(meta.race_twin.get(), page_bytes.data(), kPageSize);
      if (!attributed_delta.empty())
        apply_diff(attributed_delta, meta.race_twin.get());
    }
    if (!local_delta.empty()) {
      apply_diff(local_delta, dst); // twin NOT patched: delta stays local
    }
    if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
      clock->charge(config_.cost.diff_apply_base_us +
                    config_.cost.diff_byte_us * kPageSize);

    // The home had every diff whose notice we held before the fetch: a
    // notice only becomes visible after its release, and the release posted
    // the diff to the home synchronously first.
    {
      std::lock_guard<std::mutex> tl(table_mutex_);
      for (ContextId c = 0; c < nc_; ++c) {
        IntervalSeq& a = applied_[std::size_t{p} * nc_ + c];
        a = std::max(a, pend_before[c]);
      }
    }
  }
  meta.fetch_in_progress = false;
}

void DsmContext::flush_page_diff_locked(PageId p) {
  chaos_point(chaos_permille_);
  PageMeta& meta = pages_[p];
  OMSP_CHECK(meta.twin != nullptr);
  // Write-protect BEFORE diffing: a sibling thread of this node may be
  // storing into the page right now (it holds write access). Revoking write
  // access first guarantees every store is either complete — and thus
  // captured by the diff — or will fault and wait on the page lock. Diffing
  // first would let a store land after the scan and silently vanish when the
  // twin is freed.
  if (meta.state == PageState::kReadWrite) {
    meta.state = PageState::kRead;
    set_prot(p, Protection::kRead);
  }
  // Snapshot the contents without touching the app mapping's protection:
  // relaxing an invalid page here would let the application read stale data
  // (or write) concurrently without faulting.
  std::uint8_t snapshot[kPageSize];
  heap_.snapshot_page(p, snapshot);
  const std::uint8_t* current = snapshot;
  DiffBytes diff = create_diff(meta.twin.get(), current);

  IntervalSeq tag;
  bool minted = false;
  VectorTime minted_vt;
  // Race attribution (see below): the newest interval that listed p BEFORE
  // this flush, and its close-time sync clock if still on file.
  IntervalSeq prev_listed = 0;
  VectorTime prev_svt;
  bool have_prev_svt = false;
  {
    std::lock_guard<std::mutex> tl(table_mutex_);
    if (race_ != nullptr) {
      prev_listed = last_listed_[p];
      const auto it = close_sync_vts_.find(prev_listed);
      if (it != close_sync_vts_.end()) {
        prev_svt = it->second;
        have_prev_svt = true;
      }
    }
    if (meta.written_since_flush && !diff.empty()) {
      // The twin holds writes no published interval covers yet. Mint a
      // fresh interval for them: its record carries our CURRENT vector
      // time, so it causally dominates every interval whose data those
      // writes consumed — the dominance that orders this diff correctly
      // against concurrent diffs for the same page at third parties.
      tag = ++vt_[id_];
      table_[id_].push_back(IntervalInfo{vt_, {p}});
      last_listed_[p] = tag;
      sync_vt_[id_] = tag; // own intervals are always sync-known to self
      trace::record(*stats_, trace::EventKind::kIntervalClose, id_, tag, 1);
      if (race_ != nullptr) {
        minted = true;
        minted_vt = sync_vt_;
        close_sync_vts_[tag] = sync_vt_;
      }
    } else {
      // All twin content is covered by published intervals listing p.
      tag = last_listed_[p];
    }
  }
  meta.written_since_flush = false;
  // Feed the detector the delta SINCE THE LAST COLLECTION (diff against the
  // race baseline), not the whole twin delta: a page can stay dirty across
  // many epochs, and the cumulative twin diff would re-attribute earlier,
  // already-ordered epochs' bytes to the freshly minted interval — phantom
  // races against a fetcher's properly-ordered writes. The baseline diff
  // hands each written byte to exactly one interval.
  //
  // Which interval: normally the fresh mint with the mint-time sync clock —
  // the close_interval collection advances the baseline at every close, so
  // a fetch-forced flush's delta is purely current-epoch writes (the racy-
  // kernel shape). The exception is losing the close/flush race: a close
  // listed p (prev_listed > race_collected_seq) but its collection loop has
  // not reached p yet, so the delta still holds pre-close bytes — attribute
  // it to that close's sync clock, never the mint, or no peer closing
  // concurrently with the OLDER interval could cover it (phantom races).
  // Post-close bytes folded into the close by that ordering are a documented
  // miss, never a phantom.
  if (meta.race_twin != nullptr) {
    const DiffBytes race_diff = create_diff(meta.race_twin.get(), current);
    if (!race_diff.empty()) {
      if (have_prev_svt && prev_listed > meta.race_collected_seq) {
        race_->record_write(id_, p, prev_listed, prev_svt,
                            {race_diff.data(), race_diff.size()});
      } else if (minted) {
        race_->record_write(id_, p, tag, minted_vt,
                            {race_diff.data(), race_diff.size()});
      }
      // else: nothing minted and no uncollected close — skip (conservative).
    }
    meta.race_twin.reset();
  }

  trace::record(*stats_, trace::EventKind::kDiffCreate, id_, p, diff.size());
  if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
    clock->charge(config_.cost.diff_create_base_us +
                  config_.cost.diff_byte_us * kPageSize);
  // Released entries form a prefix, so the page is already on held_pages_
  // exactly when its newest entry still holds bytes.
  const bool list_held =
      !diff.empty() && (meta.stored_diffs.empty() ||
                        meta.stored_diffs.back().bytes.empty());
  if (!diff.empty()) {
    const auto size = static_cast<std::uint32_t>(diff.size());
    stored_diff_bytes_.fetch_add(size, std::memory_order_relaxed);
    held_diff_bytes_.fetch_add(size, std::memory_order_relaxed);
    if (!meta.stored_diffs.empty() && meta.stored_diffs.back().seq == tag) {
      // Same tag means same twin base with no local writes since; the newer
      // scan can only add remote-applied bytes, which equal the twin and
      // thus never appear. Replace defensively.
      StoredDiff& last = meta.stored_diffs.back();
      stored_diff_bytes_.fetch_sub(last.size, std::memory_order_relaxed);
      held_diff_bytes_.fetch_sub(last.bytes.size(), std::memory_order_relaxed);
      last.size = size;
      last.bytes = std::move(diff);
    } else {
      OMSP_CHECK(meta.stored_diffs.empty() ||
                 meta.stored_diffs.back().seq < tag);
      meta.stored_diffs.push_back(StoredDiff{tag, size, std::move(diff)});
    }
  }
  meta.twin.reset();
  {
    std::lock_guard<std::mutex> dl(dirty_mutex_);
    dirty_.reset(p);
    if (list_held) held_pages_.push_back(p);
  }
}

std::optional<IntervalRecord> DsmContext::close_interval() {
  // Home-based: held until this close's diffs reached their homes, so the
  // record published below never leaves ahead of them (records_unknown_to).
  std::unique_lock<std::mutex> close_lock(close_mutex_, std::defer_lock);
  if (config_.protocol == Protocol::kHomeLRC) close_lock.lock();
  // Atomic under the table lock: the interval's record, its vector time, the
  // per-page "newest listing" marks and the watermark all publish together,
  // so a concurrent flush can never observe a half-closed interval.
  IntervalRecord rec;
  VectorTime close_svt;
  {
    std::lock_guard<std::mutex> tl(table_mutex_);
    {
      std::lock_guard<std::mutex> dl(dirty_mutex_);
      dirty_.for_each_set([&](std::size_t p) {
        rec.pages.push_back(static_cast<PageId>(p));
      });
    }
    if (rec.pages.empty()) return std::nullopt;
    rec.creator = id_;
    rec.seq = ++vt_[id_];
    rec.vt = vt_;
    table_[id_].push_back(IntervalInfo{rec.vt, rec.pages});
    for (PageId p : rec.pages) last_listed_[p] = rec.seq;
    sync_vt_[id_] = rec.seq;
    if (race_ != nullptr) {
      close_sync_vts_[rec.seq] = sync_vt_;
      close_svt = sync_vt_;
    }
  }
  trace::record(*stats_, trace::EventKind::kIntervalClose, id_, rec.seq,
                rec.pages.size());

  if (race_ != nullptr) {
    // Collect each listed page's delta-since-last-collection NOW and hand it
    // to THIS close. Unflushed bytes can span several closes — the master's
    // sequential-section writes predate the fork close while its region
    // writes predate only the epilogue close — and deferring collection to
    // the next flush or sweep would fold them all into the newest interval,
    // one that peers closing concurrently with the OLDER interval can never
    // cover (phantom races). Per-close collection gives each interval
    // exactly its own bytes and advances the baseline past them.
    for (PageId p : rec.pages) {
      std::lock_guard<std::mutex> pl(page_lock(p));
      PageMeta& meta = pages_[p];
      if (meta.race_twin == nullptr) continue;
      std::uint8_t snapshot[kPageSize];
      heap_.snapshot_page(p, snapshot);
      const DiffBytes race_diff = create_diff(meta.race_twin.get(), snapshot);
      if (!race_diff.empty())
        race_->record_write(id_, p, rec.seq, close_svt,
                            {race_diff.data(), race_diff.size()});
      std::memcpy(meta.race_twin.get(), snapshot, kPageSize);
      meta.race_collected_seq = rec.seq;
    }
  }

  if (config_.protocol == Protocol::kHomeLRC) {
    // Eagerly flush every dirty page's delta to its home, then retire the
    // twin: the home becomes the (only) place data is fetched from. The
    // transport calls happen AFTER the per-page lock is dropped: the inline
    // transport runs the home's handler — which takes the home's own page
    // lock — on this thread, and two contexts closing toward each other
    // would nest their page locks in opposite orders (a lock-order
    // inversion; ThreadSanitizer flags it). Deferring the sends keeps the
    // diff-before-records invariant (fetch_from_home relies on it): all
    // diffs still reach their homes before close_interval returns, and the
    // interval records only travel after that. Queued pages keep
    // fetch_in_progress set until their diff is sent, so a sibling thread
    // faulting in the gap waits instead of opening a NEWER interval whose
    // diff could overtake this one to the home.
    std::vector<std::pair<PageId, DiffBytes>> to_home;
    for (PageId p : rec.pages) {
      std::lock_guard<std::mutex> pl(page_lock(p));
      PageMeta& meta = pages_[p];
      if (meta.twin == nullptr) continue;
      if (meta.state == PageState::kReadWrite) {
        meta.state = PageState::kRead;
        set_prot(p, Protection::kRead); // write barrier before the scan
      }
      std::uint8_t snapshot[kPageSize];
      heap_.snapshot_page(p, snapshot);
      DiffBytes diff = create_diff(meta.twin.get(), snapshot);
      trace::record(*stats_, trace::EventKind::kDiffCreate, id_, p,
                    diff.size());
      if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
        clock->charge(config_.cost.diff_create_base_us +
                      config_.cost.diff_byte_us * kPageSize);
      // The at-close collection above already attributed this page's delta
      // to rec.seq; the baseline dies with the twin.
      meta.race_twin.reset();
      if (home_of(p) != id_ && !diff.empty()) {
        meta.fetch_in_progress = true;
        to_home.emplace_back(p, std::move(diff));
      }
      meta.twin.reset();
      meta.written_since_flush = false;
      std::lock_guard<std::mutex> dl(dirty_mutex_);
      dirty_.reset(p);
    }
    for (auto& [p, diff] : to_home) {
      ByteWriter msg;
      msg.put<PageId>(p);
      msg.put_span<std::uint8_t>({diff.data(), diff.size()});
      (void)router_.transport().call(net::Envelope::request(
          id_, home_of(p), net::MsgType::kDiffToHome, msg));
      {
        std::lock_guard<std::mutex> pl(page_lock(p));
        pages_[p].fetch_in_progress = false;
      }
      fetch_cv_.notify_all();
    }
    return rec;
  }

  if (!config_.lazy_diffs) {
    for (PageId p : rec.pages) {
      std::lock_guard<std::mutex> pl(page_lock(p));
      if (pages_[p].twin != nullptr) flush_page_diff_locked(p);
    }
  }
  return rec;
}

void DsmContext::apply_records(const std::vector<IntervalRecord>& records,
                               bool sync) {
  chaos_point(chaos_permille_);
  std::vector<PageId> to_invalidate;
  std::uint64_t notices = 0;
  {
    std::lock_guard<std::mutex> tl(table_mutex_);
    // Store all records first so the vt <= table-size invariant holds when
    // the merged vector time is published.
    for (const auto& rec : records) {
      if (rec.creator == id_) continue;
      auto& tbl = table_[rec.creator];
      const IntervalSeq known = table_base_[rec.creator] +
                                static_cast<IntervalSeq>(tbl.size());
      if (rec.seq <= known) continue; // duplicate delivery
      OMSP_CHECK_MSG(rec.seq == known + 1,
                     "interval records must arrive in per-creator order");
      tbl.push_back(IntervalInfo{rec.vt, rec.pages});
    }
    for (const auto& rec : records) {
      if (rec.creator == id_) continue;
      if (vt_[rec.creator] < rec.seq) vt_[rec.creator] = rec.seq;
      vt_.merge(rec.vt);
      if (sync) {
        // LRC acquire semantics: a sync edge inherits the creator's full
        // close-time knowledge, so chains of barriers/lock transfers order
        // transitively. Data-path deliveries (sync=false) leave this clock
        // untouched.
        if (sync_vt_[rec.creator] < rec.seq) sync_vt_[rec.creator] = rec.seq;
        sync_vt_.merge(rec.vt);
      }
      for (PageId p : rec.pages) {
        ++notices;
        IntervalSeq& pend = pending_[std::size_t{p} * nc_ + rec.creator];
        if (rec.seq > pend) pend = rec.seq;
        if (config_.protocol == Protocol::kHomeLRC && home_of(p) == id_)
          continue; // the home's copy is kept current by eager diffs
        if (pend > applied_[std::size_t{p} * nc_ + rec.creator])
          to_invalidate.push_back(p);
      }
    }
    // Invariant: every interval a merged vector time covers must be stored.
    for (ContextId c = 0; c < nc_; ++c)
      OMSP_CHECK_MSG(vt_[c] <= table_base_[c] + table_[c].size(),
                     "apply_records left an uncovered vector-time claim");
  }
  if (notices > 0)
    trace::record(*stats_, trace::EventKind::kWriteNoticesRecv, id_, notices);

  std::sort(to_invalidate.begin(), to_invalidate.end());
  to_invalidate.erase(std::unique(to_invalidate.begin(), to_invalidate.end()),
                      to_invalidate.end());
  for (std::size_t i = 0; i < to_invalidate.size();) {
    std::size_t n = 1;
    while (i + n < to_invalidate.size() && n < kMaxLockedRun &&
           to_invalidate[i + n] == to_invalidate[i] + n)
      ++n;
    invalidate_run(to_invalidate[i], n);
    i += n;
  }
}

void DsmContext::invalidate_run(PageId first, std::size_t n) {
  // Hold every page lock of the run (ascending; no other path holds two page
  // locks, so the order cannot deadlock) across the state changes and the
  // one host mprotect, so no fault sees an invalid page the host still maps.
  OMSP_DCHECK(n <= kMaxLockedRun);
  std::array<std::unique_lock<std::mutex>, kMaxLockedRun> held;
  for (std::size_t k = 0; k < n; ++k)
    held[k] = std::unique_lock<std::mutex>(page_lock(first + k));
  bool changed = false;
  for (std::size_t k = 0; k < n; ++k) {
    const PageId p = first + static_cast<PageId>(k);
    PageMeta& meta = pages_[p];
    if (meta.state == PageState::kInvalid) continue;
    meta.state = PageState::kInvalid;
    meta.fresh_invalidate = true;
    meta.prot = Protection::kNone;
    heap_.charge_protect(p, Protection::kNone);
    trace::record(*stats_, trace::EventKind::kInvalidate, id_, p);
    changed = true;
  }
  // Pages of the run that were already invalid are PROT_NONE on the host.
  if (changed) heap_.protect_host(first, n, Protection::kNone);
}

std::vector<IntervalRecord>
DsmContext::records_unknown_to(const VectorTime& other_vt) {
  // Home-based: wait out a close of this context still posting its diffs
  // (a barrier arrival racing a lock grant). A record that left first would
  // let a reader — even the home, reading its own copy — see the notice
  // before the bytes; fetch_from_home relies on the diffs being there.
  std::unique_lock<std::mutex> close_lock(close_mutex_, std::defer_lock);
  if (config_.protocol == Protocol::kHomeLRC) close_lock.lock();
  std::vector<IntervalRecord> out;
  std::lock_guard<std::mutex> tl(table_mutex_);
  for (ContextId c = 0; c < nc_; ++c) {
    OMSP_CHECK_MSG(vt_[c] <= table_base_[c] + table_[c].size(),
                   "vector time exceeds stored interval records");
    for (IntervalSeq seq = other_vt[c] + 1; seq <= vt_[c]; ++seq) {
      OMSP_CHECK_MSG(seq > table_base_[c],
                     "peer needs a garbage-collected interval record");
      const IntervalInfo& info = table_[c][seq - 1 - table_base_[c]];
      out.push_back(IntervalRecord{c, seq, info.vt, info.pages});
    }
  }
  return out;
}

VectorTime DsmContext::vt_snapshot() {
  std::lock_guard<std::mutex> tl(table_mutex_);
  return vt_;
}

VectorTime DsmContext::sync_vt_snapshot() {
  std::lock_guard<std::mutex> tl(table_mutex_);
  return sync_vt_;
}

IntervalSeq DsmContext::own_seq() {
  std::lock_guard<std::mutex> tl(table_mutex_);
  return vt_[id_];
}

std::uint64_t DsmContext::vt_sum_of_own(IntervalSeq seq) {
  std::lock_guard<std::mutex> tl(table_mutex_);
  OMSP_CHECK(seq > table_base_[id_] &&
             seq <= table_base_[id_] + table_[id_].size());
  return table_[id_][seq - 1 - table_base_[id_]].vt.sum();
}

PageState DsmContext::page_state(PageId p) {
  check_allocated(p);
  std::lock_guard<std::mutex> pl(page_lock(p));
  return pages_[p].state;
}

bool DsmContext::page_dirty(PageId p) {
  check_allocated(p);
  std::lock_guard<std::mutex> dl(dirty_mutex_);
  return dirty_.test(p);
}

std::size_t DsmContext::stored_diff_count(PageId p) {
  check_allocated(p);
  std::lock_guard<std::mutex> pl(page_lock(p));
  return pages_[p].stored_diffs.size();
}

IntervalSeq DsmContext::applied_seq(PageId p, ContextId creator) {
  check_allocated(p);
  std::lock_guard<std::mutex> tl(table_mutex_);
  return applied_[std::size_t{p} * nc_ + creator];
}

void DsmContext::release_applied_diffs(
    const std::function<IntervalSeq(PageId)>& applied_by_all) {
  std::vector<PageId> held;
  {
    std::lock_guard<std::mutex> dl(dirty_mutex_);
    held.swap(held_pages_);
  }
  std::vector<PageId> still_held;
  for (PageId p : held) {
    const IntervalSeq upto = applied_by_all(p); // takes peers' table locks
    std::lock_guard<std::mutex> pl(page_lock(p));
    auto& diffs = pages_[p].stored_diffs;
    // Released entries form a prefix: `upto` never decreases (applied_ only
    // grows), and only the last entry is ever refilled (same-tag replace).
    auto it = std::partition_point(
        diffs.begin(), diffs.end(),
        [](const StoredDiff& d) { return d.bytes.empty(); });
    for (; it != diffs.end() && it->seq <= upto; ++it) {
      held_diff_bytes_.fetch_sub(it->bytes.size(), std::memory_order_relaxed);
      DiffBytes().swap(it->bytes);
    }
    if (it != diffs.end()) still_held.push_back(p);
  }
  std::lock_guard<std::mutex> dl(dirty_mutex_);
  held_pages_.insert(held_pages_.end(), still_held.begin(), still_held.end());
}

void DsmContext::validate_all_pages() {
  for (PageId p = 0; p < pages_.size(); ++p) {
    std::unique_lock<std::mutex> lock(page_lock(p));
    PageMeta& meta = pages_[p];
    if (meta.state != PageState::kInvalid) continue;
    OMSP_CHECK(!meta.fetch_in_progress);
    if (config_.protocol == Protocol::kHomeLRC)
      fetch_from_home(p, lock);
    else
      fetch_and_apply(p, lock);
    if (meta.twin != nullptr) {
      meta.state = PageState::kReadWrite;
      meta.written_since_flush = true;
      set_prot(p, Protection::kReadWrite);
    } else {
      meta.state = PageState::kRead;
      set_prot(p, Protection::kRead);
    }
  }
}

void DsmContext::collect_garbage() {
  // Sound only at a quiescent, fully-validated barrier (the caller checked
  // all vector times are equal and every page everywhere is valid): no peer
  // can ever request a diff tagged <= the current vts again, and
  // records_unknown_to loops are empty for all peers from here.
  for (PageId p = 0; p < pages_.size(); ++p) {
    std::lock_guard<std::mutex> pl(page_lock(p));
    PageMeta& meta = pages_[p];
    // A released diff's bytes are gone, but its modeled size still counts.
    for (const StoredDiff& d : meta.stored_diffs) {
      stored_diff_bytes_.fetch_sub(d.size, std::memory_order_relaxed);
      held_diff_bytes_.fetch_sub(d.bytes.size(), std::memory_order_relaxed);
    }
    meta.stored_diffs.clear();
    meta.stored_diffs.shrink_to_fit();
  }
  {
    std::lock_guard<std::mutex> dl(dirty_mutex_);
    held_pages_.clear();
  }
  std::lock_guard<std::mutex> tl(table_mutex_);
  for (ContextId c = 0; c < nc_; ++c) {
    table_base_[c] = vt_[c];
    table_[c].clear();
    table_[c].shrink_to_fit();
  }
}

// --- overlapped fetch / barrier prefetch ------------------------------------

bool DsmContext::overlap_prefetch() const {
  return config_.overlap.enabled && config_.overlap.prefetch &&
         config_.protocol == Protocol::kLazyRC &&
         router_.transport().supports_async();
}

void DsmContext::start_prefetch_round() {
  if (!overlap_prefetch()) return;
  // Group every pending-but-unapplied (page, creator) by creator. The caller
  // (the barrier path) invokes this right after the departure records were
  // applied, so "pending > applied" is exactly the set of pages the barrier
  // invalidated (plus any older still-unfetched notices).
  struct Cand {
    PageId page = 0;
    IntervalSeq have = 0;
    IntervalSeq pend = 0;
  };
  std::vector<std::vector<Cand>> by_creator(nc_);
  VectorTime my_vt;
  {
    std::lock_guard<std::mutex> tl(table_mutex_);
    my_vt = vt_;
    for (PageId p = 0; p < pages_.size(); ++p) {
      // Only pages that went valid->invalid since the last round AND that
      // this context has faulted on before: it was using those, so it will
      // plausibly fault on them again. Touching the flags without the page
      // lock is safe — every worker is parked at the barrier.
      if (!pages_[p].fresh_invalidate) continue;
      pages_[p].fresh_invalidate = false;
      if (!pages_[p].ever_accessed) continue;
      for (ContextId c = 0; c < nc_; ++c) {
        if (c == id_) continue;
        const IntervalSeq pend = pending_[std::size_t{p} * nc_ + c];
        const IntervalSeq have = applied_[std::size_t{p} * nc_ + c];
        if (pend > have) by_creator[c].push_back({p, have, pend});
      }
    }
  }
  // applied_ only advances when a fetch session drains the buffer, so for a
  // page that sits prefetched-but-untouched it never moves. Raise each
  // candidate's `have` by the buffered coverage instead: the creator then
  // ships only diffs above what is already in hand, and a fully covered pair
  // drops out of the round entirely.
  {
    std::lock_guard<std::mutex> pm(prefetch_mutex_);
    for (ContextId c = 0; c < nc_; ++c)
      for (auto& cand : by_creator[c]) {
        const auto it = prefetch_buffer_.find(cand.page);
        if (it == prefetch_buffer_.end()) continue;
        for (const auto& ent : it->second)
          if (ent.creator == c) cand.have = std::max(cand.have, ent.covers);
      }
  }
  for (ContextId c = 0; c < nc_; ++c) {
    std::vector<std::pair<PageId, IntervalSeq>> list;
    list.reserve(by_creator[c].size());
    for (const Cand& cand : by_creator[c])
      if (cand.pend > cand.have) list.emplace_back(cand.page, cand.have);
    if (list.empty()) continue;
    ByteWriter req;
    req.put<std::uint32_t>(static_cast<std::uint32_t>(list.size()));
    for (const auto& [p, have] : list) {
      req.put<PageId>(p);
      req.put<IntervalSeq>(have);
    }
    my_vt.serialize(req);
    PrefetchBatch batch;
    batch.creator = c;
    batch.pages = list;
    batch.reply = router_.transport().call_async(net::Envelope::request(
        id_, c, net::MsgType::kDiffRequestBatch, req));
    trace::record(*stats_, trace::EventKind::kPrefetchBatch, id_, c,
                  list.size());
    std::lock_guard<std::mutex> pm(prefetch_mutex_);
    prefetch_inflight_.push_back(std::move(batch));
  }
}

void DsmContext::absorb_batch_reply(PrefetchBatch& batch) {
  double complete = 0;
  const auto reply = batch.reply.wait_at(&complete); // no clock advance: the
  // wait is charged when (if) a fetch session drains the entry, via ready_us.
  ByteReader r(reply);
  auto recs = deserialize_records(r);
  if (!recs.empty())
    apply_records(recs, /*sync=*/false); // data piggyback; takes page locks
  const auto npages = r.get<std::uint32_t>();
  OMSP_CHECK_MSG(npages == batch.pages.size(),
                 "batch reply page count mismatch");
  std::vector<std::pair<PageId, PrefetchEntry>> parsed;
  parsed.reserve(npages);
  for (std::uint32_t i = 0; i < npages; ++i) {
    const auto p = r.get<PageId>();
    OMSP_CHECK_MSG(p == batch.pages[i].first,
                   "batch reply page order mismatch");
    PrefetchEntry e;
    e.creator = batch.creator;
    e.ready_us = complete;
    // Coverage starts at the request-time `have` (already raised by any
    // prior buffered entries) and extends over whatever actually shipped.
    e.covers = read_page_diffs(r, batch.pages[i].second, e.diffs);
    parsed.emplace_back(p, std::move(e));
  }
  std::lock_guard<std::mutex> pm(prefetch_mutex_);
  for (auto& [p, e] : parsed) prefetch_buffer_[p].push_back(std::move(e));
}

void DsmContext::absorb_inflight_for(PageId p) {
  std::vector<PrefetchBatch> mine;
  {
    std::lock_guard<std::mutex> pm(prefetch_mutex_);
    for (std::size_t i = 0; i < prefetch_inflight_.size();) {
      auto& batch = prefetch_inflight_[i];
      const bool contains =
          std::any_of(batch.pages.begin(), batch.pages.end(),
                      [p](const auto& pr) { return pr.first == p; });
      if (contains) {
        mine.push_back(std::move(batch));
        prefetch_inflight_.erase(prefetch_inflight_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (auto& batch : mine) absorb_batch_reply(batch);
}

void DsmContext::absorb_prefetch_replies() {
  std::vector<PrefetchBatch> batches;
  {
    std::lock_guard<std::mutex> pm(prefetch_mutex_);
    batches.swap(prefetch_inflight_);
  }
  for (auto& batch : batches) absorb_batch_reply(batch);
}

void DsmContext::clear_prefetch_buffer() {
  std::lock_guard<std::mutex> pm(prefetch_mutex_);
  prefetch_buffer_.clear();
}

void DsmContext::sync_cover(const VectorTime& vt) {
  std::lock_guard<std::mutex> tl(table_mutex_);
  sync_vt_.merge(vt);
}

void DsmContext::race_collect_pending() {
  if (race_ == nullptr) return;
  // Under lazy diffs a page nobody fetched still holds its epoch's writes in
  // the live twin delta; record the part written SINCE THE LAST COLLECTION
  // (diff against the race baseline — the cumulative twin delta would
  // re-attribute earlier epochs' ordered bytes to this epoch's interval),
  // attributed to the newest own interval listing the page (minted by
  // close_interval at barrier arrival) with that interval's close-time SYNC
  // vector time — it predates the episode's merges, so concurrent peers stay
  // mutually uncovered. Nothing is flushed, charged or counted: this is a
  // diagnostic read at a quiescent point.
  std::vector<PageId> dirty_pages;
  {
    std::lock_guard<std::mutex> dl(dirty_mutex_);
    dirty_.for_each_set(
        [&](std::size_t p) { dirty_pages.push_back(static_cast<PageId>(p)); });
  }
  for (PageId p : dirty_pages) {
    std::lock_guard<std::mutex> pl(page_lock(p));
    PageMeta& meta = pages_[p];
    if (meta.race_twin == nullptr) continue;
    std::uint8_t snapshot[kPageSize];
    heap_.snapshot_page(p, snapshot);
    const DiffBytes diff =
        create_diff(meta.race_twin.get(), snapshot, kPageSize);
    if (diff.empty()) continue;
    IntervalSeq seq;
    VectorTime svt;
    {
      std::lock_guard<std::mutex> tl(table_mutex_);
      seq = last_listed_[p];
      const auto it = close_sync_vts_.find(seq);
      if (it == close_sync_vts_.end())
        continue; // interval predates the detector's window (or GC'd away)
      svt = it->second;
    }
    race_->record_write(id_, p, seq, svt, {diff.data(), diff.size()});
    // Advance the baseline: these bytes now belong to interval `seq` and
    // must not be re-attributed by a later flush or sweep.
    std::memcpy(meta.race_twin.get(), snapshot, kPageSize);
    meta.race_collected_seq = seq;
  }
  // Per-close sync clocks are only needed until their epoch's sweep (write
  // entries are cleared there too); drop them so the map stays tiny.
  std::lock_guard<std::mutex> tl(table_mutex_);
  close_sync_vts_.clear();
}

} // namespace omsp::tmk
