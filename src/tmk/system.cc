#include "tmk/system.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/mathutil.hpp"

namespace omsp::tmk {

namespace {
thread_local Rank t_current_rank = 0;

// Fixed descriptor sizes come from the message registry (net/message.hpp) so
// Table 2 byte totals have a single source of truth.
using net::MsgType;
const std::size_t kForkDescriptorBytes =
    net::msg_fixed_bytes(MsgType::kForkDescriptor);
const std::size_t kLockRequestBytes =
    net::msg_fixed_bytes(MsgType::kLockRequest);
const std::size_t kLockGrantHeaderBytes =
    net::msg_fixed_bytes(MsgType::kLockGrant);
} // namespace

Rank DsmSystem::current_rank() { return t_current_rank; }

DsmSystem::DsmSystem(Config config)
    : config_(config.with_env()), allocator_(config.heap_bytes) {
  config_.validate();
  const std::uint32_t nc = config_.num_contexts();
  const std::uint32_t np = config_.topology.nprocs();

  // Install the tracer before any context exists so construction-time
  // protocol activity is captured. Its header names the configuration the
  // trace was recorded under.
  if (config_.trace.enabled) {
    trace::Options topt = config_.trace;
    topt.run_config = config_.to_string();
    tracer_ = std::make_unique<trace::Tracer>(std::move(topt));
    if (!tracer_->install()) tracer_.reset(); // another system is tracing
  }

  std::vector<NodeId> context_node(nc);
  for (ContextId c = 0; c < nc; ++c)
    context_node[c] = config_.node_of_context(c);
  router_ = std::make_unique<net::Router>(std::move(context_node),
                                          config_.cost, config_.topology);

  // Optional layers below the protocol, stacked bottom-up: the queued
  // transport (overlapped delivery) wraps the inline one, and fault
  // injection wraps whichever of those is active.
  if (config_.overlap.enabled || config_.perturb.enabled) {
    std::unique_ptr<net::Transport> t =
        std::make_unique<net::InlineTransport>(*router_);
    if (config_.overlap.enabled)
      t = std::make_unique<net::QueuedTransport>(std::move(t), *router_);
    if (config_.perturb.enabled)
      t = std::make_unique<net::PerturbingTransport>(std::move(t), *router_,
                                                     config_.perturb);
    router_->set_transport(std::move(t));
  }

  contexts_.reserve(nc);
  for (ContextId c = 0; c < nc; ++c)
    contexts_.push_back(std::make_unique<DsmContext>(c, config_, *router_));
  if (config_.race.enabled()) {
    race_ = std::make_unique<race::Detector>(config_.race, nc);
    for (auto& c : contexts_) c->set_race_detector(race_.get());
  }

  clocks_.reserve(np);
  for (Rank r = 0; r < np; ++r)
    clocks_.push_back(
        std::make_unique<sim::VirtualClock>(config_.cost.cpu_scale));

  fork_start_time_.assign(nc, 0.0);
  ctx_done_.assign(nc, 0);
  join_times_.assign(np, 0.0);
  bar_ctx_arrived_.assign(nc, 0);
  bar_arrival_vt_.assign(nc, VectorTime(nc));
  bar_departure_time_.assign(nc, 0.0);
  bar_ctx_ready_.assign(nc, 0.0);

  master_thread_ = std::this_thread::get_id();
  t_current_rank = 0;
  trace::Tracer::bind_thread(0);
  master_heap_scope_.emplace(contexts_[0]->heap().app_base());
  master_clock_scope_.emplace(clocks_[0].get());

  workers_.reserve(np - 1);
  for (Rank r = 1; r < np; ++r)
    workers_.emplace_back([this, r] { worker_main(r); });
}

DsmSystem::~DsmSystem() {
  {
    std::lock_guard<std::mutex> lk(fork_mutex_);
    stop_ = true;
  }
  fork_cv_.notify_all();
  for (auto& w : workers_) w.join();
  master_clock_scope_.reset();
  master_heap_scope_.reset();
  // All emitters are gone once in-flight transport jobs settle; drain the
  // rings and write the configured sinks with the final counter snapshot the
  // trace must reconcile against.
  router_->transport().quiesce();
  if (tracer_ != nullptr) tracer_->finish(router_->snapshot());
}

void DsmSystem::worker_main(Rank rank) {
  const ContextId cid = config_.context_of_rank(rank);
  ThreadHeapBinding::Scope heap_scope(contexts_[cid]->heap().app_base());
  sim::VirtualClock::Binder clock_scope(clocks_[rank].get());
  t_current_rank = rank;
  trace::Tracer::bind_thread(rank);

  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(fork_mutex_);
      fork_cv_.wait(lk, [&] { return stop_ || fork_gen_ > seen_gen; });
      if (stop_) return;
      seen_gen = fork_gen_;
    }
    auto& clk = *clocks_[rank];
    clk.skip_cpu(); // parked time is not compute
    clk.advance_to(fork_start_time_[cid]);
    fork_fn_(rank);
    rank_epilogue(rank);
  }
}

void DsmSystem::rank_epilogue(Rank rank) {
  sim::RuntimeSection rs;
  const ContextId cid = config_.context_of_rank(rank);
  std::lock_guard<std::mutex> lk(join_mutex_);
  join_times_[rank] = clocks_[rank]->now_us();
  if (++ctx_done_[cid] == config_.threads_in_context(cid)) {
    contexts_[cid]->close_interval(); // slave-side release of Tmk_join
    if (++contexts_done_ == config_.num_contexts()) {
      join_ready_ = true;
      join_cv_.notify_all();
    }
  }
}

void DsmSystem::parallel(const std::function<void(Rank)>& fn) {
  OMSP_CHECK_MSG(std::this_thread::get_id() == master_thread_,
                 "parallel() must be called from the master thread");
  OMSP_CHECK_MSG(!in_parallel_, "DsmSystem::parallel does not nest");
  in_parallel_ = true;

  auto& mclk = *clocks_[0];
  mclk.sync_cpu(); // sequential-section compute accrues to the master

  // --- Tmk_fork: master release, slaves acquire ------------------------------
  contexts_[0]->close_interval();
  {
    std::lock_guard<std::mutex> lk(join_mutex_);
    std::fill(ctx_done_.begin(), ctx_done_.end(), 0);
    contexts_done_ = 0;
    join_ready_ = false;
  }
  const double mnow = mclk.now_us();
  fork_start_time_[0] = mnow;
  for (ContextId c = 1; c < config_.num_contexts(); ++c) {
    const RecordSend fork =
        send_records(0, c, MsgType::kForkDescriptor, kForkDescriptorBytes,
                     contexts_[c]->vt_snapshot());
    acquire_records(c, 0, fork.recs);
    fork_start_time_[c] = mnow + fork.cost_us;
  }
  {
    std::lock_guard<std::mutex> lk(fork_mutex_);
    fork_fn_ = fn;
    ++fork_gen_;
  }
  fork_cv_.notify_all();

  // The master is part of the team: run rank 0's share with app compute
  // charged to the master clock.
  mclk.skip_cpu(); // fork bookkeeping is runtime, not app compute
  fn(0);
  rank_epilogue(0);

  // --- Tmk_join: slaves release, master acquires -----------------------------
  {
    std::unique_lock<std::mutex> lk(join_mutex_);
    join_cv_.wait(lk, [&] { return join_ready_; });
  }
  mclk.sync_cpu();
  for (ContextId c = 1; c < config_.num_contexts(); ++c) {
    const RecordSend join =
        send_records(c, 0, MsgType::kJoinNotice, kForkDescriptorBytes,
                     contexts_[0]->vt_snapshot());
    acquire_records(0, c, join.recs);
    // Master resumes after the last join message arrives.
    for (Rank r = 0; r < nprocs(); ++r)
      if (config_.context_of_rank(r) == c)
        mclk.advance_to(join_times_[r] + join.cost_us);
  }
  for (Rank r = 0; r < nprocs(); ++r)
    if (config_.context_of_rank(r) == 0) mclk.advance_to(join_times_[r]);
  mclk.skip_cpu();

  // Join is a quiescent point like a barrier episode: sweep the epoch's
  // write histories before anything can flush on top of them.
  maybe_race_sweep();

  // Quiescent point: every slave has run its epilogue and emits nothing
  // until the next fork, so the rings can be drained safely (after any
  // fire-and-forget transport jobs — perturbation duplicates — finish).
  router_->transport().quiesce();
  {
    sim::RuntimeSection rs; // host work, not the master's sequential compute
    release_applied_diffs();
  }
  if (tracer_ != nullptr) tracer_->drain_all();

  in_parallel_ = false;
}

void DsmSystem::barrier() {
  const Rank rank = current_rank();
  const ContextId cid = config_.context_of_rank(rank);
  auto& clk = *clocks_[rank];
  clk.sync_cpu();
  const double wait_t0 = clk.now_us();

  std::unique_lock<std::mutex> lk(bar_mutex_);
  const std::uint64_t mygen = bar_generation_;

  const bool tree = config_.coll.tree;
  double arrival_cost = 0;
  if (++bar_ctx_arrived_[cid] == config_.threads_in_context(cid)) {
    // Context-level release: the last thread of the node closes the interval
    // and sends the arrival message to the manager (context 0). The arrival
    // carries every record the manager lacks — not only this context's own:
    // a lock grant can close a third context's interval after that context
    // already arrived (the grant runs on the acquirer's thread), and then
    // only later arrivers know about it.
    //
    // In tree mode the context only closes its interval here: arrivals flow
    // child -> leader -> root inside tree_barrier_episode(), modeled in one
    // deterministic traversal once everyone has arrived.
    //
    // The arrival is accounted here but applied by the manager in the
    // episode: applying now would invalidate context 0's pages while its
    // threads still compute.
    contexts_[cid]->close_interval();
    if (cid != 0 && !tree) {
      RecordSend arrival =
          send_records(cid, 0, MsgType::kBarrierArrival, vt_wire_size(),
                       contexts_[0]->vt_snapshot());
      arrival_cost = arrival.cost_us;
      bar_pending_arrivals_.insert(
          bar_pending_arrivals_.end(),
          std::make_move_iterator(arrival.recs.begin()),
          std::make_move_iterator(arrival.recs.end()));
    }
    bar_arrival_vt_[cid] = contexts_[cid]->vt_snapshot();
    trace::record(router_->stats(cid), trace::EventKind::kBarrierArrive, cid,
                  mygen);
  }
  bar_max_arrival_ = std::max(bar_max_arrival_, clk.now_us() + arrival_cost);
  if (tree)
    bar_ctx_ready_[cid] = std::max(bar_ctx_ready_[cid], clk.now_us());

  if (++bar_arrived_ == nprocs()) {
    if (tree) {
      tree_barrier_episode();
    } else {
      // Last arrival: perform the manager's work on this thread.
      contexts_[0]->apply_records(bar_pending_arrivals_);
      bar_pending_arrivals_.clear();
      // Barrier arrivals are sync edges into the manager; departures below
      // hand the merged clock back out. Write entries carry close-time
      // clocks, so this can never mask the epoch's own races.
      if (race_ != nullptr)
        for (ContextId c = 1; c < config_.num_contexts(); ++c)
          contexts_[0]->sync_cover(contexts_[c]->sync_vt_snapshot());
      const double depart =
          bar_max_arrival_ + config_.cost.barrier_service_us;
      bar_departure_time_[0] = depart;
      // Departures all leave through the manager's uplink: message i queues
      // behind the occupancy of the i earlier ones (zero with the default
      // cost knobs, so the seed timing is unchanged).
      double inject_backlog = 0;
      for (ContextId c = 1; c < config_.num_contexts(); ++c) {
        const RecordSend departure =
            send_records(0, c, MsgType::kBarrierDeparture, vt_wire_size(),
                         bar_arrival_vt_[c]);
        acquire_records(c, 0, departure.recs);
        bar_departure_time_[c] = depart + inject_backlog + departure.cost_us;
        inject_backlog += config_.topology.message_occupancy_us(
            config_.cost, departure.bytes + net::kHeaderBytes,
            config_.node_of_context(0), config_.node_of_context(c));
      }
    }
    // The race sweep must see the epoch as the merge left it: GC and
    // prefetch below force flushes that mint post-merge intervals whose vts
    // cover — and would mask — the concurrent pairs of this epoch.
    maybe_race_sweep();
    maybe_collect_garbage();
    start_prefetch_rounds();
    // Every other worker is parked in the wait below — a quiescent point;
    // drain so per-episode event volume, not per-run, sizes the rings.
    router_->transport().quiesce();
    release_applied_diffs();
    if (tracer_ != nullptr) tracer_->drain_all();
    std::fill(bar_ctx_arrived_.begin(), bar_ctx_arrived_.end(), 0);
    std::fill(bar_ctx_ready_.begin(), bar_ctx_ready_.end(), 0.0);
    bar_arrived_ = 0;
    bar_max_arrival_ = 0;
    ++bar_generation_;
    bar_cv_.notify_all();
  } else {
    bar_cv_.wait(lk, [&] { return bar_generation_ != mygen; });
  }
  clk.advance_to(bar_departure_time_[cid]);
  clk.skip_cpu();
  trace::note(trace::EventKind::kBarrierWait, cid, mygen, 0, 0,
              clk.now_us() - wait_t0);
}

void DsmSystem::maybe_race_sweep() {
  if (race_ == nullptr) return;
  // Pull the epoch's not-yet-flushed writes (live twin deltas) into the
  // detector first: under lazy diffs a page nobody fetched has no flushed
  // diff yet, but its twin delta is exactly what the flush would publish.
  for (auto& c : contexts_) c->race_collect_pending();
  race_->sweep(router_->stats(0));
}

DsmSystem::RecordSend DsmSystem::send_records(ContextId from, ContextId to,
                                              MsgType type,
                                              std::size_t header_bytes,
                                              const VectorTime& to_knows) {
  RecordSend out;
  out.recs = contexts_[from]->records_unknown_to(to_knows);
  out.bytes = header_bytes + records_wire_size(out.recs);
  out.cost_us = notify(from, to, type, out.bytes);
  const auto notices = records_notice_count(out.recs);
  if (notices > 0)
    trace::record(router_->stats(from), trace::EventKind::kWriteNoticesSent,
                  from, notices);
  return out;
}

void DsmSystem::acquire_records(ContextId to, ContextId from,
                                const std::vector<IntervalRecord>& recs) {
  contexts_[to]->apply_records(recs);
  // The receiver's race clock inherits everything the sender sync-knows,
  // even intervals the record stream skipped because the receiver already
  // held them via data piggybacks (LRC acquire semantics).
  if (race_ != nullptr)
    contexts_[to]->sync_cover(contexts_[from]->sync_vt_snapshot());
}

void DsmSystem::tree_barrier_episode() {
  // Modeled entirely by the last-arriving thread under bar_mutex_: the
  // traversal order — and therefore every counter bump and every draw a
  // seeded transport makes — is a pure function of the schedule, not of
  // host thread arrival order.
  const std::uint32_t nc = config_.num_contexts();
  const coll::Schedule sched = coll::Schedule::tree(
      config_.topology, nc,
      [this](std::uint32_t m) { return config_.node_of_context(m); });

  // Up pass (post-order): each context forwards to its leader every record
  // the leader still lacks — its own closed interval plus anything that
  // reached it sideways (lock grants close third-party intervals) — and
  // leaders merge before forwarding, so context 0 ends with the global
  // union exactly as the centralized manager does. A leader's fan-in
  // serializes on its downlink: child i queues behind the occupancy of the
  // i earlier arrivals (zero with the default cost knobs).
  std::vector<double> ready = bar_ctx_ready_;
  std::vector<double> sink_backlog(nc, 0.0);
  for (const std::uint32_t m : sched.up_order()) {
    if (sched.parent(m) < 0) continue;
    const auto parent = static_cast<ContextId>(sched.parent(m));
    const RecordSend up =
        send_records(m, parent, MsgType::kBarrierArrival, vt_wire_size(),
                     contexts_[parent]->vt_snapshot());
    const std::size_t wire = up.bytes + net::kHeaderBytes;
    router_->account_coll_stage(m, sched.level(m), parent, wire);
    acquire_records(parent, m, up.recs);
    ready[parent] =
        std::max(ready[parent], ready[m] + sink_backlog[parent] + up.cost_us);
    // The fan-in serializes at the rate of the stage the edge crosses: an
    // edge switch absorbs its nodes at NIC rate, a spine leader at trunk rate.
    sink_backlog[parent] += config_.topology.stage_occupancy_us(
        config_.cost, sched.level(m), wire);
  }

  const double depart = ready[0] + config_.cost.barrier_service_us;
  bar_departure_time_[0] = depart;

  // Down pass (pre-order, far subtrees first): each leader pushes every
  // record a child still lacks. After its departure message a context holds
  // the full union — the same post-barrier state the centralized path
  // establishes — so prefetch batches and GC run unchanged on top.
  std::vector<double> inject_backlog(nc, 0.0);
  for (const std::uint32_t m : sched.down_order()) {
    if (sched.parent(m) < 0) continue;
    const auto parent = static_cast<ContextId>(sched.parent(m));
    const RecordSend down =
        send_records(parent, m, MsgType::kBarrierDeparture, vt_wire_size(),
                     contexts_[m]->vt_snapshot());
    const std::size_t wire = down.bytes + net::kHeaderBytes;
    router_->account_coll_stage(parent, sched.level(m), parent, wire);
    acquire_records(m, parent, down.recs);
    bar_departure_time_[m] =
        bar_departure_time_[parent] + inject_backlog[parent] + down.cost_us;
    inject_backlog[parent] += config_.topology.stage_occupancy_us(
        config_.cost, sched.level(m), wire);
  }
}

double DsmSystem::grant_lock(LockId l, LockState& st, ContextId to_ctx,
                             Rank to_rank, double request_us) {
  const ContextId from = st.cached_at;
  OMSP_CHECK(from != to_ctx);
  // Releaser-side: close the interval so writes made under the lock become
  // notices, then piggyback every record the acquirer lacks on the grant.
  contexts_[from]->close_interval();
  const RecordSend grant =
      send_records(from, to_ctx, MsgType::kLockGrant, kLockGrantHeaderBytes,
                   contexts_[to_ctx]->vt_snapshot());
  trace::note(trace::EventKind::kLockGrant, from, l, to_ctx);
  acquire_records(to_ctx, from, grant.recs);

  st.held = true;
  st.holder_ctx = to_ctx;
  st.holder_rank = to_rank;
  st.cached_at = to_ctx;
  // The grant leaves once the lock is free and the request has reached the
  // holder, whichever is later.
  return std::max(st.release_time, request_us) + grant.cost_us;
}

void DsmSystem::lock_acquire(LockId l) { (void)acquire(l, /*wait=*/true); }

bool DsmSystem::lock_try_acquire(LockId l) {
  return acquire(l, /*wait=*/false);
}

bool DsmSystem::acquire(LockId l, bool wait) {
  const Rank rank = current_rank();
  const ContextId cid = config_.context_of_rank(rank);
  auto& clk = *clocks_[rank];
  clk.sync_cpu();
  const double acq_t0 = clk.now_us();
  const ContextId manager = l % config_.num_contexts();

  std::unique_lock<std::mutex> lk(locks_mutex_);
  LockState& st = locks_[l];
  if (!st.initialized) {
    st.initialized = true;
    st.cached_at = manager; // static manager owns it first
  }

  if (st.held && !wait) {
    // A real implementation asks the manager and gets "busy" back; charge
    // that round trip unless the manager is local. One accounted message,
    // two charged hops: the "busy" reply carries no payload worth
    // accounting but the round trip still takes time.
    if (cid != manager)
      clk.charge(2 * notify(cid, manager, MsgType::kLockRequest,
                            kLockRequestBytes));
    clk.skip_cpu();
    return false;
  }

  const bool remote = st.held || st.cached_at != cid;
  if (!remote) {
    // Intra-node reacquire: hardware coherence, no messages (§3.3.1).
    st.held = true;
    st.holder_ctx = cid;
    st.holder_rank = rank;
    clk.advance_to(st.release_time);
  } else {
    if (cid != manager)
      clk.charge(notify(cid, manager, MsgType::kLockRequest,
                        kLockRequestBytes + vt_wire_size()));
    clk.charge(config_.cost.lock_service_us);
    if (manager != st.cached_at) {
      // Manager forwards the request to the last holder.
      clk.charge(notify(manager, st.cached_at, MsgType::kLockForward,
                        kLockRequestBytes + vt_wire_size()));
    }
    // The (possibly forwarded) request reaches the holder now.
    double grant_time = 0;
    if (!st.held) {
      grant_time = grant_lock(l, st, cid, rank, clk.now_us());
    } else {
      LockWaiter waiter{rank, cid, clk.now_us(), false, 0.0};
      st.queue.push_back(&waiter);
      locks_cv_.wait(lk, [&] { return waiter.granted; });
      grant_time = waiter.grant_time;
    }
    clk.advance_to(grant_time);
  }
  clk.skip_cpu();
  trace::record(router_->stats(cid), trace::EventKind::kLockAcquire, cid, l, 0,
                remote ? trace::kFlagRemote : std::uint16_t{0},
                clk.now_us() - acq_t0);
  return true;
}

void DsmSystem::lock_release(LockId l) {
  const Rank rank = current_rank();
  const ContextId cid = config_.context_of_rank(rank);
  auto& clk = *clocks_[rank];
  clk.sync_cpu();

  std::unique_lock<std::mutex> lk(locks_mutex_);
  auto it = locks_.find(l);
  OMSP_CHECK_MSG(it != locks_.end() && it->second.held,
                 "release of a lock that is not held");
  LockState& st = it->second;
  OMSP_CHECK_MSG(st.holder_rank == rank && st.holder_ctx == cid,
                 "lock released by a thread that does not hold it");

  st.release_time = clk.now_us();
  if (st.queue.empty()) {
    st.held = false;
    clk.skip_cpu();
    return;
  }
  LockWaiter* w = st.queue.front();
  st.queue.pop_front();
  if (w->ctx == cid) {
    // Intra-node handoff: hardware shared memory, no protocol action.
    st.holder_ctx = w->ctx;
    st.holder_rank = w->rank;
    w->grant_time = clk.now_us();
  } else {
    w->grant_time = grant_lock(l, st, w->ctx, w->rank, w->request_us);
  }
  w->granted = true;
  locks_cv_.notify_all();
  clk.skip_cpu();
}

void DsmSystem::start_prefetch_rounds() {
  // Runs on the barrier manager's thread while every worker is parked.
  // Issuing AND absorbing here (rather than letting batches race with
  // post-barrier compute) keeps the creator-side state each batch observes —
  // and therefore message counts and sizes — deterministic; the overlap
  // lives entirely in modeled time: each batch is stamped as issued at its
  // context's departure time, and the fault-path drain only charges the
  // residual (ready_us - first_touch) stall, which is zero when the batch
  // would have completed before the first touch.
  if (!config_.overlap.enabled || !config_.overlap.prefetch ||
      config_.protocol != Protocol::kLazyRC ||
      !router_->transport().supports_async())
    return;
  const std::uint32_t nc = config_.num_contexts();
  // The buffer deliberately persists across barriers: entries a context never
  // touched last epoch carry their coverage forward, so the next round asks
  // each creator only for diffs above what is already buffered instead of
  // re-shipping the page's whole history every barrier.
  for (ContextId c = 0; c < nc; ++c) {
    sim::VirtualClock pclk(0.0); // pure runtime: no cpu accrual
    pclk.set_now_us(bar_departure_time_[c]);
    sim::VirtualClock::Binder bind(&pclk);
    contexts_[c]->start_prefetch_round();
  }
  for (ContextId c = 0; c < nc; ++c) contexts_[c]->absorb_prefetch_replies();
}

void DsmSystem::maybe_collect_garbage() {
  // Runs on the barrier manager's thread while every worker is parked at the
  // barrier, so direct cross-context calls are safe.
  if (config_.gc_threshold_bytes == 0) return;
  std::size_t stored = 0;
  for (auto& c : contexts_) stored += c->stored_diff_bytes();
  if (stored <= config_.gc_threshold_bytes) return;
  trace::note(trace::EventKind::kGcEpisode, 0, stored);

  const std::uint32_t nc = config_.num_contexts();
  // Fixpoint: validating a page can flush a twin at its creator, which mints
  // a new interval other contexts then need. Each pass consumes twins and
  // never creates new application writes (all threads are parked), so the
  // loop reaches quiescence quickly.
  for (int pass = 0; pass < 16; ++pass) {
    // Pull every record into context 0, then push the union to everyone.
    for (ContextId c = 1; c < nc; ++c) {
      auto recs = contexts_[c]->records_unknown_to(contexts_[0]->vt_snapshot());
      notify(c, 0, MsgType::kGcRecords, records_wire_size(recs));
      contexts_[0]->apply_records(recs);
    }
    for (ContextId c = 1; c < nc; ++c) {
      auto recs = contexts_[0]->records_unknown_to(contexts_[c]->vt_snapshot());
      notify(0, c, MsgType::kGcRecords, records_wire_size(recs));
      contexts_[c]->apply_records(recs);
    }
    std::uint64_t seq_sum_before = 0;
    for (ContextId c = 0; c < nc; ++c)
      seq_sum_before += contexts_[c]->own_seq();
    for (ContextId c = 0; c < nc; ++c) contexts_[c]->validate_all_pages();
    std::uint64_t seq_sum_after = 0;
    for (ContextId c = 0; c < nc; ++c)
      seq_sum_after += contexts_[c]->own_seq();
    if (seq_sum_after == seq_sum_before) break;
  }
  // One final exchange so every vector time is identical, then drop the
  // consistency history everywhere.
  for (ContextId c = 1; c < nc; ++c) {
    auto recs = contexts_[c]->records_unknown_to(contexts_[0]->vt_snapshot());
    contexts_[0]->apply_records(recs);
    if (race_ != nullptr) // GC's gather is a sync edge into the manager
      contexts_[0]->sync_cover(contexts_[c]->sync_vt_snapshot());
  }
  const VectorTime everything = contexts_[0]->vt_snapshot();
  for (ContextId c = 1; c < nc; ++c) {
    auto recs = contexts_[0]->records_unknown_to(contexts_[c]->vt_snapshot());
    contexts_[c]->apply_records(recs);
    if (race_ != nullptr) // ... and the push-back hands the union out
      contexts_[c]->sync_cover(contexts_[0]->sync_vt_snapshot());
    OMSP_CHECK_MSG(contexts_[c]->vt_snapshot() == everything,
                   "GC requires identical vector times");
  }
  for (ContextId c = 0; c < nc; ++c) contexts_[c]->collect_garbage();
  // Every page was just validated (applied == pending everywhere), so all
  // buffered prefetch entries are stale; drop them with the rest of the
  // history so requester-side buffers do not outlive the GC they survived.
  for (ContextId c = 0; c < nc; ++c) contexts_[c]->clear_prefetch_buffer();
}

void DsmSystem::release_applied_diffs() {
  const std::uint32_t nc = config_.num_contexts();
  for (ContextId a = 0; a < nc; ++a)
    contexts_[a]->release_applied_diffs([&](PageId p) {
      IntervalSeq upto = std::numeric_limits<IntervalSeq>::max();
      for (ContextId c = 0; c < nc; ++c)
        if (c != a) upto = std::min(upto, contexts_[c]->applied_seq(p, a));
      return upto;
    });
}

GlobalAddr DsmSystem::shared_malloc(std::size_t bytes, std::size_t align) {
  OMSP_CHECK_MSG(!in_parallel_,
                 "shared_malloc must be called from sequential sections");
  OMSP_CHECK_MSG(std::this_thread::get_id() == master_thread_,
                 "shared_malloc is master-only");
  const GlobalAddr addr = allocator_.allocate(bytes, align);
  OMSP_CHECK_MSG(addr != kNullGlobalAddr, "shared heap exhausted");
  // Pages come into use only here, so this is where the page tables grow:
  // every context's together (a write notice can reach any of them), once a
  // perturbing transport's late duplicates have finished their handlers.
  const std::size_t npages = ceil_div(allocator_.high_water(), kPageSize);
  if (npages > contexts_[0]->num_pages()) {
    router_->transport().quiesce();
    for (auto& c : contexts_) c->grow_page_table(npages);
  }
  return addr;
}

void DsmSystem::shared_free(GlobalAddr addr) {
  OMSP_CHECK_MSG(!in_parallel_,
                 "shared_free must be called from sequential sections");
  allocator_.free(addr);
}

double DsmSystem::master_time_us() {
  clocks_[0]->sync_cpu();
  return clocks_[0]->now_us();
}

} // namespace omsp::tmk
