// omsp::trace — typed protocol events.
//
// One Event is a fixed-size, trivially-copyable record of a single protocol
// action, stamped with the emitting thread's virtual clock and the context it
// happened in. count_event below is the one kind→counter table: protocol
// code moves a StatsBoard counter only through trace::record, which passes
// the event through that table into the board and emits the same event, and
// reconstruct_counters folds a trace back through the same table. A lossless
// trace of a reset window therefore reproduces that window's counters by
// construction; `omsp-trace check` catches dropped events and misaligned
// windows.
//
// Field use per kind is documented on the enum; unused fields are zero.
#pragma once

#include <array>
#include <cstdint>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace omsp::trace {

enum class EventKind : std::uint16_t {
  // Counter-bearing events (each maps onto one or more StatsBoard counters).
  kMessage = 0,      // arg0 = wire bytes (payload + header),
                     // arg1 = (msg type << 32) | dst ctx (net/message.hpp);
                     // kFlagOffNode when it crossed a physical node,
                     // kFlagPerturbed on transport-injected duplicates
  kPageFault,        // arg0 = page; kFlagWrite; dur = fault service vtime
  kTwinCreate,       // arg0 = page
  kDiffCreate,       // arg0 = page, arg1 = encoded diff bytes
  kDiffApply,        // arg0 = page, arg1 = encoded diff bytes
  kMprotect,         // arg0 = page, arg1 = new protection (0/1/2 = N/R/RW)
  kLockAcquire,      // arg0 = lock id; kFlagRemote; dur = acquire wait vtime
  kLockGrant,        // arg0 = lock id, arg1 = acquiring ctx; emitted by releaser
  kBarrierArrive,    // one per context per episode, arg0 = generation
  kIntervalClose,    // arg0 = interval seq, arg1 = pages listed (write notices)
  kWriteNoticesSent, // arg0 = notice count piggybacked on one release message
  kWriteNoticesRecv, // arg0 = notice count incorporated from one record batch
  kInvalidate,       // arg0 = page
  kFullPageFetch,    // arg0 = page; home-based protocol page served by home

  // Analysis-only events (no counter mapping).
  kBarrierWait,      // per rank; arg0 = generation; dur = arrival..departure
  kDiffFetch,        // one per creator of every fault-time fetch round;
                     // arg0 = page, arg1 = reply bytes; kFlagOffNode when
                     // the creator is on another node
  kGcEpisode,        // arg0 = stored diff bytes that triggered the episode
  kRegionBegin,      // arg0 = parallel region epoch (OpenMP layer)
  kRegionEnd,        // arg0 = parallel region epoch

  // Appended kinds (values are wire-stable within a trace version; a kind
  // removed renumbers the ones after it and bumps kTraceVersion).
  kPrefetchBatch,    // counter-bearing: one kDiffRequestBatch issued at
                     // barrier departure; arg0 = creator ctx, arg1 = pages
  kPrefetchHit,      // counter-bearing: a fault-time creator need satisfied
                     // entirely from prefetched diffs; arg0 = page,
                     // arg1 = buffered bytes used; dur = residual stall
                     // (0 = batch completed before first touch)
  kMessageLost,      // counter-bearing: one-way delivery dropped by the lossy
                     // transport; arg0 = wire bytes, arg1 = (type<<32)|dst,
                     // ctx = the sender of the dropped copy. The lost
                     // copy's kMessage event was emitted by account() — it
                     // went on the wire.
  kRetransmit,       // counter-bearing: a retransmission issued after a
                     // modeled RTO expiry; arg0 = attempt number (1-based),
                     // arg1 = (type<<32)|dst; dur = the RTO charged
  kAck,              // counter-bearing: explicit ack for a reliable notice
                     // channel; arg0 = acked seq, arg1 = (type<<32)|dst of
                     // the acked notice; ctx = the acking side (the ack's
                     // own kMessage event is emitted by account() like any
                     // wire message)
  kCollStage,        // counter-bearing: one edge of a hierarchical collective
                     // schedule traversed (tree mode only); arg0 = wire
                     // bytes, arg1 = (level<<32)|leader where level is the
                     // topology stage the edge crosses and leader is the
                     // receiving (up pass) or sending (down pass) leader;
                     // ctx = the sender. The message's own kMessage event is
                     // emitted by account() like any wire message.
  kRaceCheck,        // counter-bearing: one detector sweep that ran at least
                     // one pairwise concurrency check (Config::race); arg0 =
                     // pair checks performed, arg1 = write entries swept;
                     // ctx = 0 (the sweep runs at a quiescent point)
  kRaceDetected,     // counter-bearing: one write-write race report; arg0 =
                     // (page << 32) | (lo << 16) | hi — the overlapping byte
                     // range [lo, hi) within the page; arg1 = (ctx_a << 48) |
                     // (ctx_b << 32) | ((seq_a & 0xffff) << 16) |
                     // (seq_b & 0xffff) — the racing writers and their
                     // interval seqs (16-bit truncated on the wire; full
                     // values live in race::Detector::reports()); ctx = 0
  kContentionWait,   // counter-bearing: one message queued behind the busy
                     // window of one link segment along its path; arg0 = the
                     // topology stage of the segment, arg1 = the packed
                     // segment key (sim::Topology::path_segments); dur = the
                     // modeled wait charged; ctx = the sender
  kCount
};

// Flag bits (Event::flags).
inline constexpr std::uint16_t kFlagWrite = 1;   // kPageFault: write access
inline constexpr std::uint16_t kFlagOffNode = 2; // crossed a physical node
inline constexpr std::uint16_t kFlagRemote = 4;  // kLockAcquire: needed msgs
inline constexpr std::uint16_t kFlagPerturbed = 8; // injected by the
                                                   // perturbing transport

inline const char* event_name(EventKind k) {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(EventKind::kCount)>
      names = {"message",        "page_fault",   "twin_create",
               "diff_create",    "diff_apply",   "mprotect",
               "lock_acquire",   "lock_grant",   "barrier_arrive",
               "interval_close", "notices_sent", "notices_recv",
               "invalidate",     "full_page_fetch",
               "barrier_wait",   "diff_fetch",   "gc_episode",
               "region_begin",   "region_end",   "prefetch_batch",
               "prefetch_hit",   "message_lost", "retransmit",
               "ack",            "coll_stage",   "race_check",
               "race_detected",  "contention_wait"};
  return names[static_cast<std::size_t>(k)];
}

struct Event {
  double ts_us = 0;  // virtual-time START of the event on the emitter's clock
  double dur_us = 0; // virtual-time duration (0 for instant events)
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  ContextId ctx = 0;      // DSM context the event is attributed to
  std::uint32_t rank = 0; // emitting worker (global rank / thread track)
  EventKind kind = EventKind::kMessage;
  std::uint16_t flags = 0;

  bool operator==(const Event&) const = default;
};

// The kind→counter table: calls add(counter, n) once for every counter `e`
// moves. Analysis-only kinds move none.
template <typename Add> void count_event(const Event& e, Add&& add) {
  switch (e.kind) {
  case EventKind::kMessage:
    add(Counter::kMsgsSent, 1);
    add(Counter::kBytesSent, e.arg0);
    if (e.flags & kFlagOffNode) {
      add(Counter::kMsgsOffNode, 1);
      add(Counter::kBytesOffNode, e.arg0);
    }
    break;
  case EventKind::kPageFault:
    add(Counter::kPageFaults, 1);
    add((e.flags & kFlagWrite) ? Counter::kWriteFaults : Counter::kReadFaults,
        1);
    break;
  case EventKind::kTwinCreate: add(Counter::kTwins, 1); break;
  case EventKind::kDiffCreate:
    add(Counter::kDiffsCreated, 1);
    add(Counter::kDiffBytesCreated, e.arg1);
    break;
  case EventKind::kDiffApply: add(Counter::kDiffsApplied, 1); break;
  case EventKind::kMprotect: add(Counter::kMprotect, 1); break;
  case EventKind::kLockAcquire:
    add(Counter::kLockAcquires, 1);
    if (e.flags & kFlagRemote) add(Counter::kLockRemoteAcquires, 1);
    break;
  case EventKind::kBarrierArrive: add(Counter::kBarriers, 1); break;
  case EventKind::kIntervalClose: add(Counter::kIntervals, 1); break;
  case EventKind::kWriteNoticesSent:
    add(Counter::kWriteNoticesSent, e.arg0);
    break;
  case EventKind::kWriteNoticesRecv:
    add(Counter::kWriteNoticesRecv, e.arg0);
    break;
  case EventKind::kInvalidate: add(Counter::kPageInvalidations, 1); break;
  case EventKind::kFullPageFetch: add(Counter::kFullPageFetches, 1); break;
  case EventKind::kPrefetchBatch:
    add(Counter::kPrefetchBatches, 1);
    add(Counter::kPrefetchPagesFetched, e.arg1);
    break;
  case EventKind::kPrefetchHit: add(Counter::kPrefetchHits, 1); break;
  case EventKind::kMessageLost: add(Counter::kMsgsLost, 1); break;
  case EventKind::kRetransmit: add(Counter::kRetransmits, 1); break;
  case EventKind::kAck: add(Counter::kAcksSent, 1); break;
  case EventKind::kCollStage:
    add(Counter::kCollStages, 1);
    add(Counter::kCollBytes, e.arg0);
    break;
  case EventKind::kRaceCheck: add(Counter::kRaceChecks, e.arg0); break;
  case EventKind::kRaceDetected: add(Counter::kRacesDetected, 1); break;
  case EventKind::kContentionWait:
    add(Counter::kContentionStageWaits, 1);
    break;
  case EventKind::kLockGrant:
  case EventKind::kBarrierWait:
  case EventKind::kDiffFetch:
  case EventKind::kGcEpisode:
  case EventKind::kRegionBegin:
  case EventKind::kRegionEnd:
  case EventKind::kCount:
    break;
  }
}

// Fixed wire encoding (44 bytes, little-endian like all protocol messages).
inline constexpr std::size_t kEventWireBytes = 44;

inline void serialize_event(const Event& e, ByteWriter& w) {
  w.put<double>(e.ts_us);
  w.put<double>(e.dur_us);
  w.put<std::uint64_t>(e.arg0);
  w.put<std::uint64_t>(e.arg1);
  w.put<ContextId>(e.ctx);
  w.put<std::uint32_t>(e.rank);
  w.put<std::uint16_t>(static_cast<std::uint16_t>(e.kind));
  w.put<std::uint16_t>(e.flags);
}

inline Event deserialize_event(ByteReader& r) {
  Event e;
  e.ts_us = r.get<double>();
  e.dur_us = r.get<double>();
  e.arg0 = r.get<std::uint64_t>();
  e.arg1 = r.get<std::uint64_t>();
  e.ctx = r.get<ContextId>();
  e.rank = r.get<std::uint32_t>();
  e.kind = static_cast<EventKind>(r.get<std::uint16_t>());
  e.flags = r.get<std::uint16_t>();
  return e;
}

} // namespace omsp::trace
