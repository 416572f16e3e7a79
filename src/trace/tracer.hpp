// Low-overhead structured tracing for the DSM protocol.
//
// Design:
//  * One process-global active Tracer (installed by the DsmSystem whose
//    Config enabled tracing). Protocol code calls record() (count and emit)
//    or note() (emit only); with tracing off the emit half is a single
//    relaxed atomic load plus a predicted-untaken branch — cheap enough for
//    the fault and message hot paths.
//  * Each emitting thread owns a single-producer/single-consumer ring buffer
//    registered on first emission. Producers never take a lock and never
//    block: a full ring drops the event and counts it (the drop counter is
//    part of the trace header, and `omsp-trace check` refuses to certify a
//    lossy trace).
//  * Rings are drained at quiescent points — barrier episodes (every worker
//    is parked), parallel-region joins, and system shutdown — into one
//    collected vector that the sinks serialize.
//  * Timestamps are the emitting thread's *virtual* clock, so exported traces
//    line up with the simulated SP2 timeline, not host scheduling noise.
//
// Thread-track re-binding across DsmSystem lifetimes is handled with a global
// generation counter: a cached thread-local ring is revalidated against the
// active tracer's generation on every emit, so stale pointers from a
// destroyed tracer are never dereferenced.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/event.hpp"

namespace omsp::trace {

// Tracing configuration, embedded in tmk::Config as `config.trace`.
struct Options {
  bool enabled = false;
  // Per-thread ring capacity in events (rounded up to a power of two).
  // Rings are drained at every barrier episode, so this bounds the events
  // emitted between two quiescent points, not per run.
  std::size_t ring_events = 1u << 16;
  // Written at system shutdown (empty = no file): raw events + embedded
  // StatsSnapshot, read by omsp-trace, whose `export` writes Chrome JSON.
  std::string binary_path;
  // The canonical config string of the run (tmk::Config::to_string), stamped
  // into the binary header. DsmSystem fills it in; a tracer a caller
  // installs directly leaves it empty.
  std::string run_config;
};

// SPSC ring: the owning thread pushes, the quiescent-point drainer pops.
// `track` is the owning thread's track when the ring was registered.
class Ring {
public:
  explicit Ring(std::size_t capacity, std::uint32_t track = 0);

  // Producer side. Returns false (and counts a drop) when full.
  bool push(const Event& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    if (h - t >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[h & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: pop everything currently published, in emission order.
  template <typename Fn> void drain(Fn&& fn) {
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    for (; t != h; ++t) fn(slots_[t & mask_]);
    tail_.store(t, std::memory_order_release);
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset_dropped() { dropped_.store(0, std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }
  std::uint32_t track() const { return track_; }

private:
  std::vector<Event> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint32_t track_;
};

class Tracer {
public:
  explicit Tracer(Options opts);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- global activation ----------------------------------------------------
  // At most one tracer is active at a time; install() is a no-op (returns
  // false) if another is already active.
  bool install();
  void uninstall();
  static Tracer* active() {
    return g_active.load(std::memory_order_relaxed);
  }

  // Bind the calling thread's track id (the global rank). Plain thread-local
  // store; called unconditionally by the DSM worker pool and the MPI rank
  // threads. A thread's ring keeps the track it was registered under.
  static void bind_thread(std::uint32_t track);

  // --- emission (hot path; protocol code goes through record/note) ---------
  void emit(EventKind kind, ContextId ctx, std::uint64_t arg0 = 0,
            std::uint64_t arg1 = 0, std::uint16_t flags = 0,
            double dur_us = 0);

  // --- quiescent-point operations -------------------------------------------
  // Pop every ring into the collected vector. Safe whenever no thread is
  // emitting concurrently with its own ring being drained twice (the SPSC
  // contract); the runtime calls it only while workers are parked.
  void drain_all();
  // Drained events so far (drain_all first for completeness).
  const std::vector<Event>& events() const { return collected_; }
  std::vector<Event> snapshot_events() {
    drain_all();
    return collected_;
  }
  // Total events dropped to full rings since the last clear().
  std::uint64_t dropped_total() const;
  // Drop all collected events and reset drop counters. Paired with
  // StatsBoard::reset so trace totals and counters stay comparable.
  void clear();

  // Drain everything and write the configured sinks, embedding `stats` (the
  // counter snapshot the trace must reconcile with) in the binary header.
  void finish(const StatsSnapshot& stats);

  const Options& options() const { return opts_; }

private:
  Ring* local_ring();

  static std::atomic<Tracer*> g_active;

  Options opts_;
  std::uint64_t generation_;

  mutable std::mutex registry_mutex_;
  // Sorted by track (a thread's ring goes after those already on its
  // track), so drains write each thread's events in an order that does not
  // depend on which thread the host ran first.
  std::vector<std::unique_ptr<Ring>> rings_;

  std::mutex collect_mutex_;
  std::vector<Event> collected_;
  std::uint64_t dropped_before_clear_ = 0; // from rings retired by clear()
};

// Emit one event to the active tracer, if any, and move no counter: for the
// analysis-only kinds (count_event maps them onto nothing).
inline void note(EventKind kind, ContextId ctx, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0, std::uint16_t flags = 0,
                 double dur_us = 0) {
  if (Tracer* t = Tracer::active(); t != nullptr) [[unlikely]]
    t->emit(kind, ctx, arg0, arg1, flags, dur_us);
}

// The only way protocol code moves a counter: pass the event through the
// kind→counter table (count_event) into `board`, the board of the context
// the event is attributed to, and emit the same event when a tracer is
// active.
inline void record(StatsBoard& board, EventKind kind, ContextId ctx,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                   std::uint16_t flags = 0, double dur_us = 0) {
  count_event(Event{.dur_us = dur_us, .arg0 = arg0, .arg1 = arg1, .ctx = ctx,
                    .kind = kind, .flags = flags},
              [&board](Counter c, std::uint64_t n) { board.add(c, n); });
  note(kind, ctx, arg0, arg1, flags, dur_us);
}

} // namespace omsp::trace
