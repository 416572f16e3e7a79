// The OpenMP runtime on top of TreadMarks — the paper's contribution (§4).
//
// A parallel region is an outlined function receiving a Team handle, exactly
// the shape the source translator emits:
//
//   #pragma omp parallel for           =>   rt.parallel([&](Team& t) {
//   for (i = 0; i < n; i++) a[i] = i;         t.for_loop(0, n, sched,
//                                                [&](int64 i){ a[i] = i; });
//                                           });
//
// Data environment lowering (§4.2):
//   * shared       — data in the DSM heap, captured by reference / GlobalPtr;
//   * private      — locals declared inside the outlined lambda;
//   * firstprivate — captured by value at the fork;
//   * reduction    — Team::reduce / Team::reduce_array (the paper extends the
//                    standard to array reductions for Water);
//   * threadprivate— ThreadPrivate<T>: one persistent copy per thread,
//                    indexed by the thread id (§4.2's array of copies).
//
// Synchronization directives map directly onto TreadMarks operations:
// barrier -> Tmk_barrier, critical -> a Tmk lock keyed by the critical's
// name, flush -> an acquire/release pair on a dedicated lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedule.hpp"
#include "tmk/system.hpp"

namespace omsp::core {

class Team;

// Reserved internal lock ids (application criticals get ids below these).
inline constexpr LockId kReduceLockId = 0x7fff0001;
inline constexpr LockId kFlushLockId = 0x7fff0002;
inline constexpr LockId kFirstCriticalLockId = 0x40000000;

class OmpRuntime {
public:
  explicit OmpRuntime(tmk::Config config);
  ~OmpRuntime();

  tmk::DsmSystem& dsm() { return dsm_; }
  std::uint32_t max_threads() const { return dsm_.nprocs(); }

  // #pragma omp parallel [num_threads(n)]
  // Runs fn on a team of n threads (default: omp_set_num_threads's value,
  // else OMP_NUM_THREADS, else all processors). Nested parallelism
  // serializes, as OpenMP 1.0 allows.
  void parallel(const std::function<void(Team&)>& fn, std::uint32_t num_threads = 0);

  // omp_set_num_threads / the OMP_NUM_THREADS environment variable.
  void set_num_threads(std::uint32_t n) { default_num_threads_ = n; }
  std::uint32_t num_threads_setting() const { return default_num_threads_; }

  // schedule(runtime): the OMP_SCHEDULE environment variable, parsed at
  // construction ("kind[,chunk]"); defaults to static.
  Schedule runtime_schedule() const { return runtime_schedule_; }

  // #pragma omp parallel for — shorthand for a region with a single for.
  void parallel_for(std::int64_t lo, std::int64_t hi, Schedule sched,
                    const std::function<void(std::int64_t)>& body,
                    std::uint32_t num_threads = 0);

  // Shared-heap allocation forwarding (the translator moves globals and
  // region-referenced stack variables to the shared heap, §4.2).
  template <typename T>
  tmk::GlobalPtr<T> alloc(std::size_t count = 1,
                          std::size_t align = alignof(T)) {
    return dsm_.alloc<T>(count, align);
  }
  template <typename T>
  tmk::GlobalPtr<T> alloc_page_aligned(std::size_t count = 1) {
    return dsm_.alloc_page_aligned<T>(count);
  }
  void free(GlobalAddr addr) { dsm_.shared_free(addr); }

  // Lock id for a named critical section (stable across the program run).
  LockId critical_lock_id(const std::string& name);

  // Simulated wall time in seconds (omp_get_wtime on the virtual clock).
  double wtime();

  // The team the calling thread is executing in, or nullptr outside regions.
  static Team* current_team();

private:
  friend class Team;

  tmk::DsmSystem dsm_;

  // Per-rank worksharing state, reset at region entry.
  struct RankState {
    std::uint64_t loop_count = 0;   // worksharing constructs encountered
    std::uint64_t single_count = 0; // single constructs encountered
  };
  std::vector<RankState> rank_state_;

  // Shared counters for dynamic/guided loops, keyed by construct instance.
  std::mutex loop_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::atomic<std::int64_t>>>
      loop_counters_;
  std::uint64_t region_epoch_ = 0;

  // single: highest construct instance already claimed.
  std::atomic<std::uint64_t> single_claimed_{0};

  // reduce: arrivals this episode; guarded by the DSM reduce lock.
  std::uint32_t reduce_arrivals_ = 0;
  GlobalAddr reduce_scratch_;
  static constexpr std::size_t kReduceScratchBytes = 4096;

  std::mutex critical_mutex_;
  std::unordered_map<std::string, LockId> critical_ids_;
  LockId next_critical_id_ = kFirstCriticalLockId;

  std::uint32_t default_num_threads_ = 0; // 0 = all processors
  Schedule runtime_schedule_ = Schedule::static_block();
};

// The handle a parallel region receives: thread identity, worksharing,
// synchronization and reductions.
class Team {
public:
  Team(OmpRuntime& rt, Rank rank, std::uint32_t size)
      : rt_(rt), rank_(rank), size_(size) {}

  std::uint32_t thread_num() const { return rank_; }
  std::uint32_t num_threads() const { return size_; }
  OmpRuntime& runtime() { return rt_; }

  // #pragma omp barrier
  void barrier() { rt_.dsm_.barrier(); }

  // #pragma omp for [schedule(...)] [nowait]
  void for_loop(std::int64_t lo, std::int64_t hi, Schedule sched,
                const std::function<void(std::int64_t)>& body) {
    for_loop_nowait(lo, hi, sched, body);
    barrier(); // implicit barrier at the end of a worksharing construct
  }
  void for_loop_nowait(std::int64_t lo, std::int64_t hi, Schedule sched,
                       const std::function<void(std::int64_t)>& body);

  // Chunked variant (the body receives [begin,end)): lets tight inner loops
  // avoid a std::function call per iteration.
  void for_chunks(std::int64_t lo, std::int64_t hi, Schedule sched,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  bool nowait = false);

  // #pragma omp critical [(name)]
  void critical(const std::function<void()>& fn) { critical("", fn); }
  void critical(const std::string& name, const std::function<void()>& fn);

  // #pragma omp single / master / sections
  void single(const std::function<void()>& fn, bool nowait = false);
  void master(const std::function<void()>& fn) {
    if (rank_ == 0) fn();
  }
  void sections(const std::vector<std::function<void()>>& sections,
                bool nowait = false);

  // #pragma omp flush — full-memory flush: acquire/release on a dedicated
  // lock propagates this thread's writes to the next flusher.
  void flush();

  // reduction(op:var) — returns the combined value on every thread.
  template <typename T, typename Op> T reduce(T local, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= OmpRuntime::kReduceScratchBytes);
    auto scratch = tmk::GlobalPtr<T>(rt_.reduce_scratch_);
    rt_.dsm_.lock_acquire(kReduceLockId);
    if (rt_.reduce_arrivals_++ == 0)
      *scratch = local;
    else
      *scratch = op(*scratch, local);
    if (rt_.reduce_arrivals_ == size_) rt_.reduce_arrivals_ = 0;
    rt_.dsm_.lock_release(kReduceLockId);
    barrier();
    T out = *scratch;
    barrier(); // scratch may be reused immediately after return
    return out;
  }

  // The paper's extension: reduction over arrays. Combines each thread's
  // `local[0..n)` into the shared vector `dst` (which must hold the identity
  // on entry of the first combiner; reduce_array initializes it from the
  // first arriver, matching scalar semantics).
  template <typename T, typename Op>
  void reduce_array(const T* local, tmk::GlobalPtr<T> dst, std::size_t n,
                    Op op) {
    rt_.dsm_.lock_acquire(kReduceLockId);
    T* d = dst.local();
    if (rt_.reduce_arrivals_++ == 0) {
      for (std::size_t i = 0; i < n; ++i) d[i] = local[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) d[i] = op(d[i], local[i]);
    }
    if (rt_.reduce_arrivals_ == size_) rt_.reduce_arrivals_ = 0;
    rt_.dsm_.lock_release(kReduceLockId);
    barrier();
  }

private:
  friend class OmpRuntime;
  std::atomic<std::int64_t>& loop_counter(std::uint64_t instance,
                                          std::int64_t init);
  // Charge and count one dynamic/guided chunk grab by a thread of context
  // `cid`: a round trip to the loop's shared counter at the team master.
  void grab_chunk(ContextId cid);

  OmpRuntime& rt_;
  Rank rank_;
  std::uint32_t size_;
};

// threadprivate lowering (§4.2): one persistent copy per thread, indexed by
// the (global) thread id. Copies live host-side: in the paper each node's
// globals are already private to the node and the translator adds per-thread
// copies within a node; the net effect — a private persistent copy per
// OpenMP thread — is what this reproduces.
template <typename T> class ThreadPrivate {
public:
  explicit ThreadPrivate(OmpRuntime& rt, T init = T{})
      : copies_(rt.max_threads(), Padded{init}) {}

  T& get(const Team& team) { return copies_[team.thread_num()].value; }
  T& get(std::uint32_t thread) { return copies_[thread].value; }

private:
  struct Padded {
    alignas(64) T value; // avoid (host) false sharing between copies
  };
  std::vector<Padded> copies_;
};

} // namespace omsp::core
