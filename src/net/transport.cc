#include "net/transport.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "net/router.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/event.hpp"
#include "trace/tracer.hpp"

namespace omsp::net {

// ---------------------------------------------------------------------------
// PendingReply

std::vector<std::uint8_t> PendingReply::wait() {
  double complete = 0;
  auto reply = wait_at(&complete);
  if (auto* clock = sim::VirtualClock::current(); clock != nullptr)
    clock->advance_to(complete);
  return reply;
}

std::vector<std::uint8_t> PendingReply::wait_at(double* complete_us) {
  OMSP_CHECK_MSG(state_ != nullptr, "wait on an empty PendingReply");
  std::unique_lock<std::mutex> lk(state_->mutex);
  state_->cv.wait(lk, [&] { return state_->done; });
  if (complete_us != nullptr)
    *complete_us = state_->complete_us + post_delay_us_;
  return std::move(state_->reply);
}

PendingReply PendingReply::ready(std::vector<std::uint8_t> reply,
                                 double complete_us) {
  PendingReply p;
  p.state_ = std::make_shared<State>();
  p.state_->done = true;
  p.state_->reply = std::move(reply);
  p.state_->complete_us = complete_us;
  return p;
}

// The synchronous bridge: the round trip already ran (and charged the
// caller's clock), so the handle completes "now" and wait() is a clock
// no-op. Keeps call_async usable against any transport.
PendingReply Transport::call_async(const Envelope& env) {
  auto reply = call(env);
  auto* clock = sim::VirtualClock::current();
  return PendingReply::ready(std::move(reply),
                             clock != nullptr ? clock->now_us() : 0);
}

// ---------------------------------------------------------------------------
// InlineTransport

InlineTransport::InlineTransport(Router& router) : router_(router) {}

double InlineTransport::contention_us(const Envelope& env,
                                      std::size_t wire_bytes, bool reserve) {
  const auto& m = router_.model();
  const sim::Topology& topo = router_.topology();
  const NodeId a = router_.node_of(env.src);
  const NodeId b = router_.node_of(env.dst);
  // Occupancy is charged once per message, at the rate of the top stage
  // crossed — the serialization bottleneck — not per segment, so all-inherit
  // topologies of any depth match the single-scalar model bit-for-bit.
  double extra = topo.message_occupancy_us(m, wire_bytes, a, b);

  // Fast path: no traversed stage charges contention — skip the window map
  // (and its lock) entirely, keeping the default-knob hot path lock-free.
  bool contended = false;
  topo.for_each_path_segment(a, b, [&](std::uint64_t seg) {
    if (topo.stage_link_contention_us(m, sim::Topology::segment_stage(seg)) >
        0)
      contended = true;
  });
  if (!contended) return extra;

  auto* clock = sim::VirtualClock::current();
  const double now = clock != nullptr ? clock->now_us() : 0;
  // The message reaches segment i of its path only after queueing at the
  // segments before it: `t` is its local modeled time, advanced past each
  // wait, so an upstream queue delays — and can avoid — a downstream one.
  double t = now;
  std::lock_guard<std::mutex> lk(link_mutex_);
  topo.for_each_path_segment(a, b, [&](std::uint64_t seg) {
    const std::uint32_t stage = sim::Topology::segment_stage(seg);
    const double hold = topo.stage_link_contention_us(m, stage);
    if (hold <= 0) return; // this tier does not model queueing
    LinkWindow& w = link_windows_[seg];
    if (t >= w.end) {
      // Idle segment at this modeled time: a fresh busy period.
      if (reserve) {
        w.start = t;
        w.end = t + hold;
      }
    } else if (t >= w.start) {
      // Inside the current busy period: queue behind it and pay the
      // residual window.
      const double wait = w.end - t;
      extra += wait;
      t = w.end;
      if (reserve) w.end += hold;
      if (stage_waits_.size() <= stage) stage_waits_.resize(stage + 1);
      stage_waits_[stage].waits += 1;
      stage_waits_[stage].wait_us += wait;
      trace::record(router_.stats(env.src), trace::EventKind::kContentionWait,
                    env.src, stage, seg, env.trace_flags, wait);
    }
    // t < w.start: this send modeled-precedes the current busy period — it
    // would have transmitted before the period began, so no queueing charge
    // no matter which host thread got here first.
  });
  return extra;
}

std::vector<InlineTransport::StageWait> InlineTransport::stage_waits() const {
  std::lock_guard<std::mutex> lk(link_mutex_);
  return stage_waits_;
}

void InlineTransport::reset_stats() {
  std::lock_guard<std::mutex> lk(link_mutex_);
  stage_waits_.clear();
}

std::vector<std::uint8_t> InlineTransport::call(const Envelope& env) {
  MessageHandler* handler = router_.handler(env.dst);
  OMSP_CHECK_MSG(handler != nullptr, "destination has no handler");

  auto* clock = sim::VirtualClock::current();
  const auto& model = router_.model();

  // Requests reserve the link's modeled occupancy window (so a nested send
  // inside the handler queues behind this one); replies and notifications
  // only pay against open windows.
  const double req_extra =
      contention_us(env, env.payload_size() + kHeaderBytes, /*reserve=*/true);

  const double req_cost = router_.account(env);
  if (clock != nullptr)
    clock->charge(req_cost + req_extra + model.handler_service_us);

  ByteWriter reply;
  ByteReader reader(env.payload);
  handler->handle(env.src, env.type, reader, reply);

  Envelope rep;
  rep.src = env.dst;
  rep.dst = env.src;
  rep.type = env.type;
  rep.payload = {reply.data(), reply.size()};
  rep.trace_flags = env.trace_flags;
  const double reply_cost = router_.account(rep);
  if (clock != nullptr)
    clock->charge(reply_cost + contention_us(rep, reply.size() + kHeaderBytes,
                                             /*reserve=*/false));
  return reply.take();
}

double InlineTransport::notify(const Envelope& env) {
  return router_.account(env) + contention_us(env,
                                              env.payload_size() + kHeaderBytes,
                                              /*reserve=*/false);
}

// ---------------------------------------------------------------------------
// QueuedTransport

QueuedTransport::QueuedTransport(std::unique_ptr<Transport> inner,
                                 Router& router)
    : inner_(std::move(inner)), router_(router) {
  OMSP_CHECK(inner_ != nullptr);
  workers_.resize(router_.num_contexts());
  for (std::size_t c = 0; c < workers_.size(); ++c) {
    workers_[c] = std::make_unique<Worker>();
    workers_[c]->thread =
        std::thread([this, c] { worker_main(static_cast<ContextId>(c)); });
  }
}

QueuedTransport::~QueuedTransport() {
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

PendingReply QueuedTransport::call_async(const Envelope& env) {
  return call_async_with_dups(env, {});
}

PendingReply
QueuedTransport::call_async_with_dups(const Envelope& env,
                                      std::span<const DupSpec> dups) {
  // The request is fully accounted at issue time on the caller's board, so
  // counters match the synchronous path exactly; only the reply side moves
  // to the service worker.
  const double req_cost = router_.account(env);
  auto* clock = sim::VirtualClock::current();
  // Serialized sender occupancy (zero with default knobs): issuing requests
  // back-to-back costs wire occupancy per message, not a full RTT. Charged
  // at the top stage the message crosses, like the synchronous path.
  const double occ = router_.topology().message_occupancy_us(
      router_.model(), env.payload_size() + kHeaderBytes,
      router_.node_of(env.src), router_.node_of(env.dst));
  if (clock != nullptr) clock->charge(occ);

  Job job;
  job.src = env.src;
  job.dst = env.dst;
  job.type = env.type;
  job.trace_flags = env.trace_flags;
  job.payload.assign(env.payload.begin(), env.payload.end());
  job.arrive_us = (clock != nullptr ? clock->now_us() : 0) + req_cost;

  PendingReply p;
  p.state_ = std::make_shared<PendingReply::State>();
  job.state = p.state_;

  // Duplicate/retransmission riders: accounted at issue like the primary,
  // serviced on the same channel, replies dropped. Their arrivals are
  // pinned at (primary arrival + delay) — never earlier — so with the
  // consecutive issue seqs assigned under the queue lock below, no rider
  // can be selected ahead of its primary. (Injecting them through a fresh
  // call_async would recompute arrival from the caller's clock and take an
  // unrelated global seq — nothing would pin them behind the primary.)
  std::vector<Job> riders;
  riders.reserve(dups.size());
  for (const DupSpec& d : dups) {
    (void)router_.account(d.env);
    Job r;
    r.src = d.env.src;
    r.dst = d.env.dst;
    r.type = d.env.type;
    r.trace_flags = d.env.trace_flags;
    r.payload.assign(d.env.payload.begin(), d.env.payload.end());
    r.arrive_us = job.arrive_us + std::max(0.0, d.delay_us);
    riders.push_back(std::move(r));
  }

  {
    std::lock_guard<std::mutex> lk(idle_mutex_);
    outstanding_ += 1 + riders.size();
  }
  Worker& w = *workers_[env.dst];
  {
    // One critical section for the whole group, with issue seqs assigned
    // under the lock: the primary and its riders are contiguous in issue
    // order even under concurrent issuers to the same destination.
    std::lock_guard<std::mutex> lk(w.mutex);
    job.seq = issue_seq_.fetch_add(1, std::memory_order_relaxed);
    w.queue.push_back(std::move(job));
    for (Job& r : riders) {
      r.seq = issue_seq_.fetch_add(1, std::memory_order_relaxed);
      w.queue.push_back(std::move(r));
    }
  }
  w.cv.notify_one();
  return p;
}

void QueuedTransport::quiesce() {
  std::unique_lock<std::mutex> lk(idle_mutex_);
  idle_cv_.wait(lk, [&] { return outstanding_ == 0; });
}

void QueuedTransport::worker_main(ContextId dst) {
  // Service events land on a synthetic trace track, not an app rank's.
  trace::Tracer::bind_thread(service_track(dst));

  Worker& w = *workers_[dst];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(w.mutex);
      w.cv.wait(lk, [&] {
        return stop_.load(std::memory_order_acquire) || !w.queue.empty();
      });
      if (w.queue.empty()) return; // stopping and fully drained
      // Earliest modeled arrival first (issue order breaks ties). This only
      // orders handler EXECUTION (content); completion times come from the
      // per-source channels and are order-independent. A source's own jobs
      // are enqueued in program order, so its channel always services them
      // in seq order regardless of what interleaves from other sources.
      auto best = w.queue.begin();
      for (auto it = std::next(best); it != w.queue.end(); ++it)
        if (it->arrive_us < best->arrive_us ||
            (it->arrive_us == best->arrive_us && it->seq < best->seq))
          best = it;
      job = std::move(*best);
      w.queue.erase(best);
    }
    service(dst, job, w);
    {
      std::lock_guard<std::mutex> lk(idle_mutex_);
      --outstanding_;
      if (outstanding_ == 0) idle_cv_.notify_all();
    }
  }
}

void QueuedTransport::service(ContextId dst, Job& job, Worker& w) {
  MessageHandler* handler = router_.handler(dst);
  OMSP_CHECK_MSG(handler != nullptr, "destination has no handler");

  // Per-channel serialization: the request begins when it has both arrived
  // and the same source's previous request here has finished. Cross-source
  // contention is not modeled (see the class comment): this start time is a
  // pure function of the source's deterministic issue sequence.
  const double start =
      std::max(job.arrive_us, w.src_busy_until[job.src]);
  // cpu_scale 0: host time spent in the handler never leaks into virtual
  // time; the clock advances only by modeled service costs (plus whatever
  // the handler itself charges — diff creation on a first request).
  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);
  clk.advance_to(start);
  clk.charge(router_.model().handler_service_us);

  ByteWriter reply;
  ByteReader reader(std::span<const std::uint8_t>(job.payload.data(), job.payload.size()));
  handler->handle(job.src, job.type, reader, reply);

  Envelope rep;
  rep.src = dst;
  rep.dst = job.src;
  rep.type = job.type;
  rep.payload = {reply.data(), reply.size()};
  rep.trace_flags = job.trace_flags;
  const double reply_cost = router_.account(rep);
  w.src_busy_until[job.src] = clk.now_us();
  const double complete = clk.now_us() + reply_cost;

  if (job.state != nullptr) {
    std::lock_guard<std::mutex> lk(job.state->mutex);
    job.state->reply = reply.take();
    job.state->complete_us = complete;
    job.state->done = true;
    job.state->cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// PerturbingTransport

namespace {
// A copy the decorator injected: a duplicate or a retransmission.
Envelope perturbed(Envelope e) {
  e.trace_flags =
      static_cast<std::uint16_t>(e.trace_flags | trace::kFlagPerturbed);
  return e;
}
} // namespace

PerturbingTransport::PerturbingTransport(std::unique_ptr<Transport> inner,
                                         Router& router, PerturbOptions opts)
    : inner_(std::move(inner)), router_(router), opts_(opts), rng_(opts.seed),
      loss_base_(opts.seed ^ 0x6c6f737379ULL) {}

PerturbingTransport::Draw PerturbingTransport::draw(bool one_way) {
  std::lock_guard lock(mutex_);
  Draw d;
  if (opts_.jitter_max_us > 0)
    d.jitter_us = rng_.next_double(0.0, opts_.jitter_max_us);
  d.duplicate = rng_.next_bool(opts_.duplicate_prob);
  if (one_way && rng_.next_bool(opts_.reorder_prob)) {
    d.reorder = true;
    d.jitter_us += rng_.next_double(0.0, opts_.reorder_max_us);
  }
  stats_.jitter_us += d.jitter_us;
  if (d.duplicate) ++stats_.duplicates;
  if (d.reorder) ++stats_.reorders;
  return d;
}

PerturbingTransport::Channel& PerturbingTransport::channel(ContextId src,
                                                           ContextId dst) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(src) * router_.num_contexts() + dst;
  auto it = channels_.find(key);
  if (it == channels_.end())
    it = channels_.emplace(key, Channel(loss_base_.split(key))).first;
  return it->second;
}

bool PerturbingTransport::draw_loss(Channel& ch, std::uint32_t copy) {
  // drop_first is fully deterministic and consumes no randomness: the first
  // copy of every exchange in each direction is dropped, retransmissions go
  // through — every exchange exercises the whole retransmit path.
  if (opts_.drop_first) return copy == 0;
  return ch.rng.next_bool(opts_.loss_prob);
}

PerturbingTransport::LossSchedule
PerturbingTransport::open_exchange(Envelope& e) {
  std::lock_guard lock(mutex_);
  Channel& ch = channel(e.src, e.dst);
  e.seq = ch.send_seq++;
  e.wire_extra = kSeqAckBytes;
  LossSchedule s;
  std::uint32_t fwd = 0; // forward (request/notice) copies drawn so far
  std::uint32_t bwd = 0; // backward (reply/ack) copies drawn so far
  for (std::uint32_t a = 0; a <= opts_.max_retries; ++a) {
    ++s.attempts;
    if (draw_loss(ch, fwd++)) {
      ++s.req_lost;
    } else if (draw_loss(ch, bwd++)) {
      ++s.reply_lost;
    } else {
      s.delivered = true;
      break;
    }
    s.penalty_us += router_.model().retransmit_timeout_us(a);
  }
  return s;
}

double PerturbingTransport::retransmit(const Envelope& copy,
                                       std::uint32_t attempt) {
  const double rto = router_.model().retransmit_timeout_us(attempt);
  router_.account_retransmit(copy, attempt + 1, rto);
  std::lock_guard lock(mutex_);
  stats_.rto_wait_us += rto;
  return rto;
}

double PerturbingTransport::lose_copy(const Envelope& e,
                                      std::uint32_t attempt) {
  // The wire send is accounted (it left the sender); the destination never
  // sees it, and the sender's RTO expires before the next copy.
  const Envelope lost = attempt > 0 ? perturbed(e) : e;
  (void)inner_->notify(lost);
  router_.account_loss(lost);
  return retransmit(lost, attempt);
}

std::vector<std::uint8_t> PerturbingTransport::call(const Envelope& env) {
  const Draw d = draw(/*one_way=*/false);

  Envelope e = env;
  if (opts_.lossy()) {
    const LossSchedule sched = open_exchange(e);
    auto* clock = sim::VirtualClock::current();
    // The caller blocks out each lost copy's RTO before retransmitting. The
    // first req_lost copies die in flight; the next reply_lost ones are
    // delivered, their handler runs (and runs AGAIN on the retransmission:
    // the idempotence contract, exercised by genuine loss) and their reply
    // evaporates.
    std::uint32_t attempt = 0;
    for (; attempt < sched.req_lost + sched.reply_lost; ++attempt) {
      double rto = 0;
      if (attempt < sched.req_lost) {
        rto = lose_copy(e, attempt);
      } else {
        const Envelope dup = attempt > 0 ? perturbed(e) : e;
        const auto r = inner_->call(dup); // request + reply accounted
        router_.account_loss(
            Envelope::notice(e.dst, e.src, e.type, r.size()));
        rto = retransmit(dup, attempt);
      }
      if (clock != nullptr) clock->charge(rto);
    }
    if (!sched.delivered)
      throw TransportError(env.src, env.dst, env.type, sched.attempts);
    if (attempt > 0) e = perturbed(e);
  }

  auto reply = inner_->call(e);
  if (auto* clock = sim::VirtualClock::current();
      clock != nullptr && d.jitter_us > 0)
    clock->charge(d.jitter_us);
  // Retransmission: the destination handler runs again on the same request
  // and must converge (idempotence contract); the first reply stands.
  if (d.duplicate) (void)inner_->call(perturbed(e));
  return reply;
}

PendingReply PerturbingTransport::call_async(const Envelope& env) {
  // Over a synchronous transport nothing overlaps: run the exchange through
  // call(), so its jitter and RTOs add to the caller's clock like those of
  // any other round trip instead of folding into a completion time.
  if (!inner_->supports_async()) return Transport::call_async(env);
  const Draw d = draw(/*one_way=*/false);

  Envelope e = env;
  std::vector<QueuedTransport::DupSpec> riders;
  double penalty = 0; // modeled RTO latency added to the reply's completion
  if (opts_.lossy()) {
    const LossSchedule sched = open_exchange(e);
    std::uint32_t attempt = 0;
    // Request copies dropped in flight: accounted on the caller now; the
    // retransmit timer runs concurrently with the caller's compute, so the
    // RTO is folded into the reply's completion time, not charged here.
    for (; attempt < sched.req_lost; ++attempt)
      penalty += lose_copy(e, attempt);
    if (!sched.delivered)
      throw TransportError(env.src, env.dst, env.type, sched.attempts);
    if (attempt > 0) e = perturbed(e);
    // Reply copies dropped in flight: each retransmitted request is
    // re-serviced through the destination's idempotent handler as a rider
    // behind the primary, arriving a cumulative RTO later — the modeled
    // retransmit timer. quiesce() drains these pending retransmissions.
    for (; attempt < sched.req_lost + sched.reply_lost; ++attempt) {
      router_.account_loss(Envelope::notice(e.dst, e.src, e.type, 0));
      const Envelope dup = perturbed(e);
      penalty += retransmit(dup, attempt);
      riders.push_back({dup, penalty});
    }
  }
  // Injected duplicate: enqueued directly behind the primary on the same
  // channel (delay 0) — serviced and dropped; the primary's reply stands.
  if (d.duplicate) riders.push_back({perturbed(e), 0.0});

  auto* queued = dynamic_cast<QueuedTransport*>(inner_.get());
  OMSP_CHECK_MSG(queued != nullptr,
                 "asynchronous inner transport must be a QueuedTransport");
  PendingReply p = queued->call_async_with_dups(e, riders);
  // Jitter (and the modeled retransmission latency) delays the reply's
  // delivery at the requester; the destination's service clock is
  // unaffected, mirroring the synchronous path.
  p.post_delay_us_ += d.jitter_us + penalty;
  return p;
}

Delivery PerturbingTransport::notify_ex(const Envelope& env) {
  const Draw d = draw(/*one_way=*/true);
  Delivery out;

  if (!opts_.lossy()) {
    out.cost_us = inner_->notify(env) + d.jitter_us;
    if (d.duplicate) {
      out.duplicate = true;
      out.dup_cost_us = inner_->notify(perturbed(env));
    }
    return out;
  }

  // Reliable notice channel: seq-stamped copies, explicit kAck confirmation,
  // duplicate suppression by (channel, seq) on the receive side.
  Envelope e = env;
  const LossSchedule sched = open_exchange(e);
  const std::uint32_t seq = e.seq;
  std::uint32_t attempt = 0;

  // Notice copies dropped in flight: the content arrives only once a copy
  // gets through, so each loss delays delivery by the sender's RTO.
  for (; attempt < sched.req_lost; ++attempt)
    out.cost_us += lose_copy(e, attempt);
  if (!sched.delivered)
    throw TransportError(env.src, env.dst, env.type, sched.attempts);

  // The copy that got through delivers the content.
  const Envelope fin = attempt > 0 ? perturbed(e) : e;
  out.cost_us += inner_->notify(fin) + d.jitter_us;
  {
    std::lock_guard lock(mutex_);
    Channel& ch = channel(env.src, env.dst);
    if (seq + 1 > ch.recv_applied) ch.recv_applied = seq + 1;
  }

  auto send_ack = [&]() -> Envelope {
    Envelope ack = Envelope::notice(e.dst, e.src, MsgType::kAck, 0);
    ack.ack = seq;
    ack.wire_extra = kSeqAckBytes;
    (void)inner_->notify(ack);
    router_.account_ack(e.dst, e, seq);
    return ack;
  };

  // Ack rounds that were lost: the sender's RTO expires and it retransmits
  // the notice; the receiver sees seq <= its cumulative cursor, suppresses
  // the duplicate (the content is NOT re-applied) and re-acks.
  for (; attempt < sched.req_lost + sched.reply_lost; ++attempt) {
    router_.account_loss(send_ack());
    const Envelope dup = perturbed(e);
    (void)retransmit(dup, attempt);
    out.duplicate = true;
    out.dup_cost_us += inner_->notify(dup);
    std::lock_guard lock(mutex_);
    ++stats_.dups_suppressed;
  }
  (void)send_ack(); // the ack that finally confirms delivery

  if (d.duplicate) {
    out.duplicate = true;
    out.dup_cost_us += inner_->notify(perturbed(fin));
    std::lock_guard lock(mutex_);
    ++stats_.dups_suppressed; // its seq is already applied on the channel
  }
  return out;
}

double PerturbingTransport::notify(const Envelope& env) {
  const Delivery d = notify_ex(env);
  return d.cost_us + d.dup_cost_us;
}

PerturbStats PerturbingTransport::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void PerturbingTransport::reset_stats() {
  {
    std::lock_guard lock(mutex_);
    stats_ = PerturbStats{};
  }
  inner_->reset_stats();
}

} // namespace omsp::net
