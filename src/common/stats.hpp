// Statistics counters for the Table 2 / Table 3 measurements.
//
// Every protocol-visible event (message sent, bytes moved, mprotect issued,
// SIGSEGV taken, twin made, diff created/applied, ...) increments a named
// counter on the StatsBoard of the context where it happened. Counters are
// relaxed atomics: the totals are read only at quiescent points (after joins
// and barriers — the same points where trace rings are drained), so no
// ordering is needed, only loss-free increments from concurrent threads of a
// node.
//
// Protocol code never calls add() directly: trace::record derives the
// counts from the event through the one kind→counter table
// (trace::count_event), so a lossless trace folds back into an identical
// StatsSnapshot (trace::reconstruct_counters). DsmSystem::reset_stats clears
// boards and trace together to keep their windows aligned.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace omsp {

// The full set of countable events. Kept as an enum (not string keys) so the
// fault path is an indexed add.
enum class Counter : std::size_t {
  kMsgsSent = 0,     // protocol messages (requests + replies)
  kBytesSent,        // serialized payload bytes
  kMsgsOffNode,      // subset of kMsgsSent that crossed a physical node
  kBytesOffNode,
  kMprotect,         // page-protection system calls
  kPageFaults,       // SIGSEGV-driven access misses on the shared heap
  kReadFaults,
  kWriteFaults,
  kTwins,            // twin (page copy) creations
  kDiffsCreated,
  kDiffsApplied,
  kDiffBytesCreated, // encoded diff payload bytes
  kIntervals,        // intervals closed (releases that had local writes/sync)
  kWriteNoticesSent,
  kWriteNoticesRecv,
  kPageInvalidations,
  kBarriers,         // barrier episodes observed by this context
  kLockAcquires,
  kLockRemoteAcquires, // acquires that needed a message to manager/holder
  kFullPageFetches,
  kPrefetchBatches,     // aggregated kDiffRequestBatch rounds issued
  kPrefetchPagesFetched, // pages covered by those batches
  kPrefetchHits,        // fault-time creator needs satisfied from the buffer
  kMsgsLost,            // one-way deliveries dropped by the lossy transport
  kRetransmits,         // retransmissions issued after a modeled RTO expiry
  kAcksSent,            // explicit ack messages for reliable notice channels
  kCollStages,          // hierarchical-collective schedule edges traversed
  kCollBytes,           // wire bytes carried across those schedule edges
  kRaceChecks,          // detector pairwise concurrency checks (Config::race)
  kRacesDetected,       // write-write race reports from those checks
  kContentionStageWaits, // sends that queued behind a busy link segment, one
                         // per (message, segment) wait along the path
  kCount
};

inline const char* counter_name(Counter c) {
  static constexpr std::array<const char*, static_cast<std::size_t>(Counter::kCount)>
      names = {"msgs_sent",        "bytes_sent",      "msgs_offnode",
               "bytes_offnode",    "mprotect",        "page_faults",
               "read_faults",      "write_faults",    "twins",
               "diffs_created",    "diffs_applied",   "diff_bytes_created",
               "intervals",        "write_notices_sent",
               "write_notices_recv", "page_invalidations",
               "barriers",         "lock_acquires",   "lock_remote_acquires",
               "full_page_fetches", "prefetch_batches",
               "prefetch_pages_fetched", "prefetch_hits",
               "msgs_lost",        "retransmits",     "acks_sent",
               "coll_stages",      "coll_bytes",
               "race_checks",      "races_detected",
               "contention_stage_waits"};
  return names[static_cast<std::size_t>(c)];
}

class StatsBoard {
public:
  StatsBoard() {
    for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  }

  void add(Counter c, std::uint64_t n = 1) {
    counters_[static_cast<std::size_t>(c)].fetch_add(n,
                                                     std::memory_order_relaxed);
  }

  std::uint64_t get(Counter c) const {
    return counters_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  void reset() {
    for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  }

  // Accumulate this board into `out[counter]`.
  void accumulate(std::array<std::uint64_t,
                             static_cast<std::size_t>(Counter::kCount)>& out)
      const {
    for (std::size_t i = 0; i < counters_.size(); ++i)
      out[i] += counters_[i].load(std::memory_order_relaxed);
  }

private:
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Counter::kCount)>
      counters_;
};

// Aggregated, plain-value snapshot for reporting.
struct StatsSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> v{};

  std::uint64_t operator[](Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  std::uint64_t& operator[](Counter c) { return v[static_cast<std::size_t>(c)]; }

  StatsSnapshot& operator+=(const StatsSnapshot& other) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += other.v[i];
    return *this;
  }

  double data_mbytes() const {
    return static_cast<double>((*this)[Counter::kBytesSent]) / (1024.0 * 1024.0);
  }
  double offnode_mbytes() const {
    return static_cast<double>((*this)[Counter::kBytesOffNode]) /
           (1024.0 * 1024.0);
  }
};

} // namespace omsp
