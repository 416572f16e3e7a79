// DsmSystem — a whole TreadMarks cluster in one object.
//
// Owns the router, the DSM contexts (one per node in thread mode, one per
// processor in process mode), the worker-thread pool that implements
// Tmk_fork/Tmk_join (§3.2: all threads are created at startup; slaves block
// between forks), the centralized barrier manager, the distributed lock
// table, the shared-heap allocator and the per-rank virtual clocks.
//
// Usage (mirrors what the OpenMP translator emits):
//
//   tmk::Config cfg;              // 4 nodes x 4 procs, thread mode
//   tmk::DsmSystem dsm(cfg);
//   auto data = dsm.alloc<double>(n);       // master allocates shared data
//   dsm.parallel([&](Rank r) {              // Tmk_fork .. Tmk_join
//     ... data[i] = ...;                    // plain loads/stores; the VM
//     dsm.barrier();                        //   protocol keeps them coherent
//   });
//   double t = dsm.master_time_us();        // simulated elapsed time
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/router.hpp"
#include "race/detector.hpp"
#include "sim/virtual_clock.hpp"
#include "tmk/config.hpp"
#include "tmk/context.hpp"
#include "tmk/global_ptr.hpp"
#include "tmk/heap_alloc.hpp"
#include "trace/tracer.hpp"

namespace omsp::tmk {

class DsmSystem {
public:
  explicit DsmSystem(Config config);
  ~DsmSystem();

  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  const Config& config() const { return config_; }
  net::Router& router() { return *router_; }
  DsmContext& context(ContextId c) { return *contexts_[c]; }
  std::uint32_t nprocs() const { return config_.topology.nprocs(); }
  std::uint32_t num_contexts() const { return config_.num_contexts(); }

  // --- fork / join -----------------------------------------------------------
  // Run fn(rank) on every rank (the calling master thread runs rank 0).
  // Implements Tmk_fork (master release + slave acquire, with a fork
  // descriptor message per remote context) and Tmk_join (slave release +
  // master acquire). Must be called from the thread that constructed the
  // system; nesting is rejected (OpenMP 1.0 serializes nested parallelism at
  // the layer above).
  void parallel(const std::function<void(Rank)>& fn);
  bool in_parallel() const { return in_parallel_; }

  // --- synchronization (call from inside parallel regions) ------------------
  void barrier();
  void lock_acquire(LockId l);
  // Non-blocking acquire: returns false immediately when the lock is held.
  bool lock_try_acquire(LockId l);
  void lock_release(LockId l);

  // --- shared heap (master only, outside parallel regions) ------------------
  GlobalAddr shared_malloc(std::size_t bytes, std::size_t align = 16);
  void shared_free(GlobalAddr addr);

  template <typename T>
  GlobalPtr<T> alloc(std::size_t count = 1, std::size_t align = alignof(T)) {
    return GlobalPtr<T>(shared_malloc(sizeof(T) * count, align));
  }
  // Page-aligned variant: the paper's applications lay out per-thread data on
  // page boundaries to limit false sharing.
  template <typename T> GlobalPtr<T> alloc_page_aligned(std::size_t count = 1) {
    return GlobalPtr<T>(shared_malloc(sizeof(T) * count, kPageSize));
  }

  HeapAllocator& allocator() { return allocator_; }

  // --- identity / time / stats ----------------------------------------------
  static Rank current_rank();
  sim::VirtualClock& clock(Rank r) { return *clocks_[r]; }
  // Simulated time on the master's clock (the program's elapsed time).
  double master_time_us();
  StatsSnapshot stats() const { return router_->snapshot(); }
  StatsBoard& context_stats(ContextId c) { return router_->stats(c); }
  // Resets counters AND discards buffered trace events together: the two are
  // compared event-for-counter at finish time (docs/OBSERVABILITY.md), so
  // they must always cover the same window.
  void reset_stats() {
    router_->transport().quiesce(); // in-flight sends still count/trace
    router_->reset_stats();
    router_->transport().reset_stats(); // perturbation/loss tallies too
    if (tracer_ != nullptr) tracer_->clear();
  }
  // The tracer owned by this system, or nullptr when tracing is off (or
  // another DsmSystem already holds the process-global tracer slot).
  trace::Tracer* tracer() { return tracer_.get(); }
  // The data-race detector, or nullptr when race detection is off (the
  // default).
  race::Detector* race_detector() { return race_.get(); }

private:
  struct LockWaiter {
    Rank rank;
    ContextId ctx;
    double request_us; // when its request reached the holder
    bool granted = false;
    double grant_time = 0;
  };

  struct LockState {
    bool initialized = false;
    bool held = false;
    ContextId holder_ctx = 0;
    Rank holder_rank = 0;
    ContextId cached_at = 0; // context owning the token (last holder)
    double release_time = 0;
    std::deque<LockWaiter*> queue;
  };

  void worker_main(Rank rank);
  void rank_epilogue(Rank rank);
  // Barrier-time batched prefetch (overlap.prefetch): run by the barrier
  // manager at the quiescent point after departure records were applied.
  // Issues each context's per-creator kDiffRequestBatch with a clock pinned
  // to that context's departure time (so modeled completion overlaps
  // post-barrier compute) and absorbs every reply before workers resume —
  // keeping creator-side service deterministic per seed.
  void start_prefetch_rounds();
  // TreadMarks-style GC, run by the barrier manager when stored diffs exceed
  // the configured threshold: validate everything, then drop history.
  void maybe_collect_garbage();
  // Free the host bytes of every stored diff that all other contexts have
  // applied (DsmContext::release_applied_diffs). Runs at the quiescent points
  // — the end of a barrier episode and after the join — once quiesce() has
  // drained every in-flight or duplicate request. Modeled state is untouched.
  void release_applied_diffs();
  // Tree-mode barrier episode (config_.coll.tree): reduce interval records
  // up the topology-derived leader tree, broadcast departures down it. Runs
  // entirely on the last-arriving thread under bar_mutex_, so the traversal
  // order — and every draw from a seeded transport — is a pure function of
  // the schedule.
  void tree_barrier_episode();
  // One write-notice transfer, the consistency half of every sync edge
  // (fork, join, barrier arrival and departure in both engines, lock grant):
  // `from` sends `to` a `type` message of `header_bytes` plus every interval
  // record `from` holds beyond `to_knows`. Accounts the message and the
  // write notices it carries; acquire_records applies them.
  struct RecordSend {
    std::vector<IntervalRecord> recs;
    std::size_t bytes = 0; // payload: header plus records
    double cost_us = 0;    // modeled one-way cost
  };
  RecordSend send_records(ContextId from, ContextId to, net::MsgType type,
                          std::size_t header_bytes, const VectorTime& to_knows);
  // The receiving half: `to` applies records sent by `from` and, with the
  // race detector on, inherits `from`'s sync clock.
  void acquire_records(ContextId to, ContextId from,
                       const std::vector<IntervalRecord>& recs);
  // lock_acquire (wait) and lock_try_acquire (!wait): only a try of a held
  // lock differs, answered "busy" without counting an acquire.
  bool acquire(LockId l, bool wait);
  // Transfer lock `l` (state `st`) from st.cached_at to (to_ctx,to_rank),
  // whose request reached the holder at `request_us`; returns the grant's
  // arrival time. locks_mutex_ held.
  double grant_lock(LockId l, LockState& st, ContextId to_ctx, Rank to_rank,
                    double request_us);
  // Race-detector sweep at a quiescent point (barrier episode / join): pull
  // the not-yet-flushed twin deltas of every context into the detector, then
  // run the pairwise concurrency check. No-op when the detector is off.
  // Must run BEFORE GC/prefetch, whose forced flushes would mint post-merge
  // intervals that causally cover — and so mask — the races of the epoch.
  void maybe_race_sweep();

  // Send a typed one-way notification through the transport layer; returns
  // the modeled one-way cost. The payload itself (interval records, vector
  // times) is applied by direct invocation right after — this accounts the
  // bytes a wire transport would have moved.
  double notify(ContextId src, ContextId dst, net::MsgType type,
                std::size_t bytes) {
    return router_->transport().notify(
        net::Envelope::notice(src, dst, type, bytes));
  }

  std::size_t vt_wire_size() const {
    return VectorTime::wire_size(config_.num_contexts());
  }

  Config config_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<race::Detector> race_;
  std::vector<std::unique_ptr<DsmContext>> contexts_;
  std::vector<std::unique_ptr<sim::VirtualClock>> clocks_;

  // Allocator (master-only access by contract).
  HeapAllocator allocator_;

  // Fork/join machinery.
  std::mutex fork_mutex_;
  std::condition_variable fork_cv_;
  std::uint64_t fork_gen_ = 0;
  bool stop_ = false;
  std::function<void(Rank)> fork_fn_;
  std::vector<double> fork_start_time_; // per context

  std::mutex join_mutex_;
  std::condition_variable join_cv_;
  std::vector<std::uint32_t> ctx_done_;
  std::uint32_t contexts_done_ = 0;
  bool join_ready_ = false;
  std::vector<double> join_times_; // per rank

  bool in_parallel_ = false;
  std::thread::id master_thread_;

  // Barrier machinery (centralized manager at context 0, §3.1.2).
  std::mutex bar_mutex_;
  std::condition_variable bar_cv_;
  std::uint64_t bar_generation_ = 0;
  std::uint32_t bar_arrived_ = 0;
  std::vector<std::uint32_t> bar_ctx_arrived_;
  std::vector<VectorTime> bar_arrival_vt_;
  std::vector<IntervalRecord> bar_pending_arrivals_;
  std::vector<double> bar_departure_time_; // per context
  double bar_max_arrival_ = 0;
  // Tree mode: per context, the virtual time its last thread reached the
  // barrier — the earliest the context can send its arrival up the tree.
  std::vector<double> bar_ctx_ready_;

  // Lock table.
  std::mutex locks_mutex_;
  std::condition_variable locks_cv_;
  std::unordered_map<LockId, LockState> locks_;

  std::vector<std::thread> workers_;
  std::optional<ThreadHeapBinding::Scope> master_heap_scope_;
  std::optional<sim::VirtualClock::Binder> master_clock_scope_;
};

} // namespace omsp::tmk
