// On-line vector-clock data-race detection for the DSM protocol.
//
// The detector piggybacks on the structures the multiple-writer protocol
// already maintains: every flushed diff is the canonical byte-exact record of
// what one context wrote during one interval, and the interval's VectorTime
// is its position in the happens-before partial order. That makes write-write
// race detection a pure overlap check, run at the barrier/join sweep:
//
//   two write entries (c_a, seq_a, vt_a, runs_a) and (c_b, seq_b, vt_b,
//   runs_b) on the same page race iff
//     c_a != c_b
//     && !vt_a.covers(c_b, seq_b) && !vt_b.covers(c_a, seq_a)   (concurrent)
//     && runs_a ∩ runs_b != ∅                                   (overlap)
//
// Under lazy release consistency any properly synchronized pair of writes to
// the same byte is ordered: the second writer's page fetch forces the first
// writer's flush and merges its interval record into the second's vector
// time before the second interval closes, so one of the covers() tests
// succeeds. Only genuinely unsynchronized writers stay mutually uncovered.
// Disjoint-byte concurrent writes to one page (false sharing) are the
// multiple-writer protocol's bread and butter and are deliberately NOT
// flagged in page mode; word mode widens every run to 4-byte boundaries
// first, so sub-word sharing of one machine word is reported.
//
// Blind spots (see docs/PROTOCOL.md): races between sibling threads of the
// same context (no diff is minted between them — that is ThreadSanitizer's
// domain), and writes whose new value equals the old byte (invisible to a
// diff-based oracle).
//
// Thread safety: all mutating entry points take one internal mutex. They are
// called from fault handlers and flush paths — already serialized per page by
// the context's page locks — and from the single-threaded barrier sweep, so
// the mutex is uncontended in practice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "race/options.hpp"
#include "tmk/vclock.hpp"

namespace omsp::race {

// Half-open byte range [lo, hi) within a page.
struct ByteRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  bool operator==(const ByteRange&) const = default;
};

// One detected write-write race: a maximal overlapping byte range between
// two concurrent intervals' diffs on one page. `readers` lists every context
// that took a read fault on the page since the previous sweep (informational
// — a racy reader is usually among them).
struct Report {
  PageId page = kInvalidPage;
  std::uint32_t lo = 0; // overlapping byte range [lo, hi) within the page
  std::uint32_t hi = 0;
  ContextId ctx_a = kInvalidContext; // the two racing writers, ctx_a < ctx_b
  ContextId ctx_b = kInvalidContext;
  IntervalSeq seq_a = 0; // their interval sequence numbers
  IntervalSeq seq_b = 0;
  tmk::VectorTime vt_a; // and the (mutually non-covering) interval vts
  tmk::VectorTime vt_b;
  std::vector<ContextId> readers;
};

class Detector {
public:
  Detector(Options opts, std::uint32_t ncontexts);

  // Fault-path hook: context `c` took an access miss on `page`. Readers are
  // remembered to annotate reports; writes are fully described by the diffs
  // recorded below, so write faults are ignored here.
  void record_access(ContextId c, PageId page, bool is_write);

  // Flush-path hook: context `creator` published `diff` for `page` as part
  // of interval (creator, seq) whose closing vector time is `vt`. The diff
  // is parsed into byte ranges immediately (word mode widens to 4-byte
  // boundaries); the bytes themselves are not retained. A page flushed twice
  // within one interval (fetch-forced flush, then barrier flush) merges into
  // one entry.
  void record_write(ContextId creator, PageId page, IntervalSeq seq,
                    const tmk::VectorTime& vt,
                    std::span<const std::uint8_t> diff);

  // Barrier/join-time sweep: run the pairwise concurrency + overlap check
  // over every page history accumulated since the last sweep, then clear the
  // histories. Records kRaceCheck/kRaceDetected events through
  // trace::record, which moves kRaceChecks/kRacesDetected on `board`.
  // Reports accumulate across sweeps for reports().
  void sweep(StatsBoard& board);

  // All reports so far, in deterministic order (page, then entry order).
  std::vector<Report> reports() const;

  std::uint64_t race_count() const;

  const Options& options() const { return opts_; }

private:
  struct WriteEntry {
    ContextId creator;
    IntervalSeq seq;
    tmk::VectorTime vt;
    std::vector<ByteRange> runs; // sorted, disjoint, non-adjacent
  };

  // Merge `add` (sorted, disjoint) into `into`, coalescing overlapping and
  // adjacent ranges.
  static void merge_ranges(std::vector<ByteRange>& into,
                           const std::vector<ByteRange>& add);

  std::vector<ByteRange> ranges_of_diff(std::span<const std::uint8_t> diff)
      const;

  Options opts_;
  std::uint32_t ncontexts_;

  mutable std::mutex mutex_;
  // std::map keeps page order deterministic for report/test stability.
  std::map<PageId, std::vector<WriteEntry>> writes_;
  std::map<PageId, std::vector<ContextId>> readers_;
  std::vector<Report> reports_;
};

} // namespace omsp::race
