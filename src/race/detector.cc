#include "race/detector.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "tmk/diff.hpp"
#include "trace/tracer.hpp"

namespace omsp::race {

namespace {

// Word-mode shadow granularity: a write to any byte of a 4-byte word taints
// the whole word.
constexpr std::uint32_t kWordBytes = 4;

} // namespace

Detector::Detector(Options opts, std::uint32_t ncontexts)
    : opts_(opts), ncontexts_(ncontexts) {
  OMSP_CHECK_MSG(opts_.enabled(), "Detector constructed with race detection off");
}

std::vector<ByteRange> Detector::ranges_of_diff(
    std::span<const std::uint8_t> diff) const {
  std::vector<ByteRange> runs;
  tmk::for_each_run(diff, tmk::kPageSize,
                    [&](std::size_t offset, const std::uint8_t*,
                        std::size_t length) {
                      auto lo = static_cast<std::uint32_t>(offset);
                      auto hi = static_cast<std::uint32_t>(offset + length);
                      if (opts_.mode == Mode::kWord) {
                        lo &= ~(kWordBytes - 1);
                        hi = (hi + kWordBytes - 1) & ~(kWordBytes - 1);
                      }
                      // Runs arrive in ascending offset order; widening can
                      // make neighbors touch or overlap — coalesce in place.
                      if (!runs.empty() && runs.back().hi >= lo)
                        runs.back().hi = std::max(runs.back().hi, hi);
                      else
                        runs.push_back({lo, hi});
                    });
  return runs;
}

void Detector::merge_ranges(std::vector<ByteRange>& into,
                            const std::vector<ByteRange>& add) {
  std::vector<ByteRange> merged;
  merged.reserve(into.size() + add.size());
  std::size_t i = 0, j = 0;
  auto push = [&](ByteRange r) {
    if (!merged.empty() && merged.back().hi >= r.lo)
      merged.back().hi = std::max(merged.back().hi, r.hi);
    else
      merged.push_back(r);
  };
  while (i < into.size() || j < add.size()) {
    if (j == add.size() || (i < into.size() && into[i].lo <= add[j].lo))
      push(into[i++]);
    else
      push(add[j++]);
  }
  into = std::move(merged);
}

void Detector::record_access(ContextId c, PageId page, bool is_write) {
  if (is_write) return; // writes are fully described by their flushed diffs
  std::lock_guard<std::mutex> lk(mutex_);
  auto& readers = readers_[page];
  auto it = std::lower_bound(readers.begin(), readers.end(), c);
  if (it == readers.end() || *it != c) readers.insert(it, c);
}

void Detector::record_write(ContextId creator, PageId page, IntervalSeq seq,
                            const tmk::VectorTime& vt,
                            std::span<const std::uint8_t> diff) {
  if (diff.empty()) return;
  std::vector<ByteRange> runs = ranges_of_diff(diff);
  if (runs.empty()) return;
  std::lock_guard<std::mutex> lk(mutex_);
  auto& entries = writes_[page];
  // A page can be flushed more than once within one interval (a fetch-forced
  // flush followed by the barrier flush): fold into the existing entry.
  for (auto& e : entries) {
    if (e.creator == creator && e.seq == seq) {
      merge_ranges(e.runs, runs);
      e.vt.merge(vt);
      return;
    }
  }
  entries.push_back(WriteEntry{creator, seq, vt, std::move(runs)});
}

void Detector::sweep(StatsBoard& board) {
  std::lock_guard<std::mutex> lk(mutex_);
  std::uint64_t checks = 0;
  std::uint64_t entries_swept = 0;
  std::vector<Report> found;
  for (auto& [page, entries] : writes_) {
    entries_swept += entries.size();
    if (entries.size() < 2) continue;
    // Deterministic pair order regardless of flush arrival order.
    std::sort(entries.begin(), entries.end(),
              [](const WriteEntry& a, const WriteEntry& b) {
                return a.creator != b.creator ? a.creator < b.creator
                                              : a.seq < b.seq;
              });
    const std::vector<ContextId>* readers = nullptr;
    if (auto it = readers_.find(page); it != readers_.end())
      readers = &it->second;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        const WriteEntry& a = entries[i];
        const WriteEntry& b = entries[j];
        if (a.creator == b.creator) continue; // same context: ordered by seq
        ++checks;
        if (a.vt.covers(b.creator, b.seq) || b.vt.covers(a.creator, a.seq))
          continue; // ordered by happens-before: synchronized
        // Concurrent intervals: intersect their run lists (both sorted and
        // disjoint) and merge touching intersections into maximal ranges.
        std::size_t x = 0, y = 0;
        std::vector<ByteRange> overlap;
        while (x < a.runs.size() && y < b.runs.size()) {
          const std::uint32_t lo = std::max(a.runs[x].lo, b.runs[y].lo);
          const std::uint32_t hi = std::min(a.runs[x].hi, b.runs[y].hi);
          if (lo < hi) {
            if (!overlap.empty() && overlap.back().hi >= lo)
              overlap.back().hi = std::max(overlap.back().hi, hi);
            else
              overlap.push_back({lo, hi});
          }
          if (a.runs[x].hi < b.runs[y].hi)
            ++x;
          else
            ++y;
        }
        for (const ByteRange& r : overlap) {
          Report rep;
          rep.page = page;
          rep.lo = r.lo;
          rep.hi = r.hi;
          rep.ctx_a = a.creator;
          rep.ctx_b = b.creator;
          rep.seq_a = a.seq;
          rep.seq_b = b.seq;
          rep.vt_a = a.vt;
          rep.vt_b = b.vt;
          if (readers != nullptr) rep.readers = *readers;
          found.push_back(std::move(rep));
        }
      }
    }
  }
  if (checks > 0)
    trace::record(board, trace::EventKind::kRaceCheck, 0, checks,
                  entries_swept);
  for (const Report& r : found) {
    const std::uint64_t arg0 = (static_cast<std::uint64_t>(r.page) << 32) |
                               (static_cast<std::uint64_t>(r.lo) << 16) |
                               static_cast<std::uint64_t>(r.hi);
    const std::uint64_t arg1 = (static_cast<std::uint64_t>(r.ctx_a) << 48) |
                               (static_cast<std::uint64_t>(r.ctx_b) << 32) |
                               (static_cast<std::uint64_t>(r.seq_a & 0xffff)
                                << 16) |
                               static_cast<std::uint64_t>(r.seq_b & 0xffff);
    trace::record(board, trace::EventKind::kRaceDetected, 0, arg0, arg1);
  }
  reports_.insert(reports_.end(), std::make_move_iterator(found.begin()),
                  std::make_move_iterator(found.end()));
  writes_.clear();
  readers_.clear();
}

std::vector<Report> Detector::reports() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return reports_;
}

std::uint64_t Detector::race_count() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return reports_.size();
}

} // namespace omsp::race
