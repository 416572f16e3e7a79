// Transport — the pluggable delivery layer below the protocol.
//
// The Router names endpoints, classifies links, owns the per-context stats
// boards and the handler table; a Transport decides *how* an Envelope
// reaches its destination and what it costs. Protocol code builds an
// Envelope and calls `router.transport().call(env)` (request/reply) or
// `.notify(env)` (one-way, accounting + modeled cost); it never constructs
// wire framing or touches counters itself.
//
// Three implementations:
//  * InlineTransport — the seed semantics, bit-for-bit: serialize, account
//    and charge on the sender, run the destination handler on the calling
//    thread, account and charge the reply. With the cost model's
//    occupancy/contention knobs at their zero defaults, every counter and
//    every charged microsecond is identical to the pre-transport Router.
//  * QueuedTransport — the asynchronous path, modeling TreadMarks' SIGIO
//    request service: call_async() accounts the request on the caller and
//    hands it to a per-destination worker thread that services requests
//    serially on its own virtual clock. The PendingReply it returns carries
//    the modeled completion time; waiting is a Lamport merge (advance_to),
//    so a thread that issued N concurrent requests ends at the MAX of their
//    completion times, not the sum — the overlap the paper's speedups come
//    from. The synchronous call()/notify() paths delegate to the inner
//    transport unchanged.
//  * PerturbingTransport — a seeded fault-injection decorator in the spirit
//    of the UDP/IP networks real SDSM systems ran on (TreadMarks serviced
//    retransmitted requests in SIGIO handlers): latency jitter, bounded
//    reordering of one-way notifications (modeled as a delivery-time
//    hold-back: a later message on the link overtakes the held one), and
//    duplicate delivery that re-runs the destination handler — the live
//    proof that DsmContext::handle is idempotent. All draws come from one
//    seeded generator, so a single-threaded message sequence perturbs
//    reproducibly; injected deliveries carry trace::kFlagPerturbed.
//
//    With loss enabled (PerturbOptions.loss_prob > 0 or drop_first), the
//    decorator additionally runs a reliable-delivery protocol over the lossy
//    link (docs/PROTOCOL.md "Reliable delivery"): every request/notice is
//    stamped with a per-(src,dst)-channel sequence number (kSeqAckBytes on
//    the wire), each one-way delivery is dropped independently per a
//    PER-LINK seeded stream (Rng::split by link index, so loss schedules
//    are seed-deterministic and host-schedule free), lost exchanges pay a
//    modeled RTO with exponential backoff (cost model rto_us/rto_backoff)
//    before retransmitting, retransmitted requests are re-serviced through
//    the destination's idempotent handler (the TreadMarks dedup strategy
//    for request channels), notice channels suppress duplicates by
//    (channel, seq) and confirm delivery with explicit kAck messages, and
//    exhausting the retry cap raises TransportError instead of hanging.
//
// Idempotence contract for handlers (docs/PROTOCOL.md "Transport layer"):
// any handler reachable through call() or call_async() must tolerate
// re-delivery of the same request — state convergent (second apply is a
// byte-level no-op), reply equivalent — because a lossy transport
// retransmits and duplicates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace omsp::sim {
class VirtualClock;
}

namespace omsp::net {

class Router;

// Hard-failure surface of the reliable-delivery layer: raised (never a hang,
// never an abort) when an exchange exhausts its retry cap on a lossy link.
// The Router's callers — protocol code, ultimately the application — see it
// as a normal C++ exception with the failed link identified.
class TransportError : public std::runtime_error {
public:
  TransportError(ContextId src, ContextId dst, MsgType type,
                 std::uint32_t attempts)
      : std::runtime_error(std::string("transport: ") + msg_name(type) +
                           " from ctx " + std::to_string(src) + " to ctx " +
                           std::to_string(dst) + " undelivered after " +
                           std::to_string(attempts) + " attempts"),
        src(src), dst(dst), type(type), attempts(attempts) {}

  ContextId src;
  ContextId dst;
  MsgType type;
  std::uint32_t attempts;
};

// A context's inbound request dispatcher. Implementations must be safe to
// call from any thread; they lock their own state. Handlers must be
// idempotent under re-delivery (see transport contract above).
class MessageHandler {
public:
  virtual ~MessageHandler() = default;
  virtual void handle(ContextId src, MsgType type, ByteReader& request,
                      ByteWriter& reply) = 0;
};

// Delivery-time decomposition of a one-way notification: the modeled arrival
// delay of the primary copy (jitter/hold-back included) and, separately, the
// cost of an injected duplicate. Layers that model their own mailboxes (the
// MPI library) use the components: the payload arrives after cost_us; a
// duplicate is absorbed by the reliability layer but its wire cost is real.
struct Delivery {
  double cost_us = 0;
  bool duplicate = false;
  double dup_cost_us = 0;
};

// Future-like handle for an asynchronous request (Transport::call_async).
//
// Contract (docs/PROTOCOL.md "Asynchronous transport and overlapped fetch"):
//  * The request was fully accounted (counters + trace event) at issue time
//    on the caller's board; the reply is accounted on the servicing side
//    when it is produced. Counters are therefore identical to the
//    synchronous path no matter when — or whether — wait() is called.
//  * wait() blocks until the reply exists, then advances the calling
//    thread's virtual clock to the reply's modeled completion time
//    (advance_to — a max-merge, never a sum). Waiting N handles issued
//    concurrently ends at max(completion), the overlapped-RTT regime.
//  * wait_at() returns the reply without touching any clock and reports the
//    completion time; used by the prefetch buffer, which charges the stall
//    (if any) only when the data is first consumed.
//  * A handle may be dropped without waiting; the transport still services
//    the request (quiesce() drains it) so accounting stays complete.
class PendingReply {
public:
  PendingReply() = default;

  bool valid() const { return state_ != nullptr; }

  // Block for the reply and Lamport-merge its completion time into the
  // calling thread's virtual clock.
  std::vector<std::uint8_t> wait();

  // Block for the reply without touching any clock; *complete_us (when
  // non-null) receives the modeled completion time.
  std::vector<std::uint8_t> wait_at(double* complete_us);

  // An already-completed reply (the synchronous bridge).
  static PendingReply ready(std::vector<std::uint8_t> reply,
                            double complete_us);

private:
  friend class Transport;
  friend class QueuedTransport;
  friend class PerturbingTransport;

  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::vector<std::uint8_t> reply;
    double complete_us = 0;
  };

  std::shared_ptr<State> state_;
  // Extra delivery latency injected by a decorating transport (perturbation
  // jitter); added to the completion time at the handle, not the worker, so
  // the destination's service clock stays unperturbed.
  double post_delay_us_ = 0;
};

class Transport {
public:
  virtual ~Transport() = default;

  // Request/reply round trip. Accounts both directions, charges the calling
  // thread's virtual clock, runs the destination handler, returns the reply.
  virtual std::vector<std::uint8_t> call(const Envelope& env) = 0;

  // One-way message whose content the caller applies by direct invocation.
  // Accounts it on the sender's board and returns the modeled one-way cost
  // in microseconds (the caller decides whose clock absorbs it).
  virtual double notify(const Envelope& env) = 0;

  // Like notify() but reports the delivery-time decomposition (see
  // Delivery). The default wraps notify(); decorators that inject faults
  // override it so mailbox layers can model arrival times faithfully.
  virtual Delivery notify_ex(const Envelope& env) {
    Delivery d;
    d.cost_us = notify(env);
    return d;
  }

  // Asynchronous request/reply. The default bridges to the synchronous
  // call() — the round trip runs and charges the caller before this
  // returns, so the handle's wait() is a no-op on the clock; the fault-time
  // diff fetch issues through here on every transport. Transports that
  // truly overlap return supports_async() == true, which gates the barrier
  // prefetch (the answer must not change over the transport's lifetime).
  virtual PendingReply call_async(const Envelope& env);
  virtual bool supports_async() const { return false; }

  // Block until every in-flight asynchronous request (including injected
  // duplicates and pending modeled retransmissions) has been serviced.
  // Called at quiescent points — barrier episodes, stats resets, shutdown —
  // so counter snapshots and trace drains never race a worker mid-service.
  // No-op for synchronous transports.
  virtual void quiesce() {}

  // Reset any transport-local statistics (PerturbStats on the fault-
  // injection decorator). Part of the DsmSystem::reset_stats contract: the
  // stats <-> trace audit window must cover transport-injected traffic too,
  // so transport stats reset together with boards and trace buffers.
  // Decorators forward to their inner transport.
  virtual void reset_stats() {}

  virtual const char* name() const = 0;
};

// Today's exact semantics: the destination handler runs inline on the
// caller's thread. Also the layer where the cost model's per-link
// occupancy/contention knobs are charged (zero by default).
class InlineTransport final : public Transport {
public:
  explicit InlineTransport(Router& router);

  std::vector<std::uint8_t> call(const Envelope& env) override;
  double notify(const Envelope& env) override;
  const char* name() const override { return "inline"; }

  // Cumulative modeled queueing per topology stage (index = stage), for
  // saturation-shape probes: which tier of the machine is the bottleneck.
  // Snapshot under the window lock; reset together with reset_stats().
  struct StageWait {
    std::uint64_t waits = 0; // messages that queued at this stage
    double wait_us = 0;      // total modeled wait they paid there

    bool operator==(const StageWait&) const = default;
  };
  std::vector<StageWait> stage_waits() const;
  void reset_stats() override;

private:
  // Occupancy + queueing surcharge for one message of `wire_bytes` along the
  // src->dst path; 0 with the default cost model. Occupancy is charged once
  // per message at the rate of the top stage crossed (the bottleneck
  // serialization point); queueing is charged per traversed segment at that
  // segment's stage rate. When `reserve` is set the message extends each
  // segment's busy window (requests do; replies and notifications only pay
  // against existing windows, mirroring the original in-flight accounting).
  double contention_us(const Envelope& env, std::size_t wire_bytes,
                       bool reserve);

  Router& router_;
  // Modeled-time occupancy window per shared link segment, maintained only
  // when a stage's contention knob is enabled. Windows are keyed by the
  // packed (stage, segment) keys of sim::Topology::path_segments — going up,
  // the sender's uplink at each tier (its node's NIC, then its edge switch's
  // trunk, ...); coming down, the receiver's downlink at each tier — so two
  // sends from one node to DIFFERENT destinations still queue on the same
  // outbound segments, and an edge NIC and a spine trunk queue and saturate
  // independently at their own per-stage rates. A message reaches segment i
  // of its path only after queueing at segments before it, so its local
  // modeled time advances past each wait. A send whose modeled time falls
  // inside a segment's current busy period queues behind it (and pays the
  // residual window); a send whose modeled time precedes the period would
  // have transmitted first and pays nothing — so the surcharge is a pure
  // function of modeled timestamps, never of host scheduling (the original
  // implementation counted host-concurrent calls with fetch_add/fetch_sub, a
  // determinism hole). For any two-stage topology the path is the single
  // Router::link_segment, reproducing the flat single-window model
  // bit-for-bit.
  struct LinkWindow {
    double start = 0;
    double end = 0;
  };
  mutable std::mutex link_mutex_;
  std::unordered_map<std::uint64_t, LinkWindow> link_windows_;
  mutable std::vector<StageWait> stage_waits_; // grown on demand per stage
};

// Opt-in knobs for the overlapped communication paths (tmk::Config.overlap).
// With enabled == false (the default) the DSM runs the seed-exact
// InlineTransport; `overlap=on` in OMSP_CONFIG stacks the QueuedTransport,
// whose call_async overlaps the per-creator diff requests of every fault-time
// fetch round (max-of-RTT stall instead of sum-of-RTT), and turns on
// prefetch.
struct OverlapOptions {
  bool enabled = false;
  // Barrier departure issues one aggregated kDiffRequestBatch per creator
  // for the pages its write notices invalidated, overlapped with post-
  // barrier compute until first touch.
  bool prefetch = true;
};

// Asynchronous delivery: one worker thread per destination context services
// queued requests — the analogue of TreadMarks' SIGIO handler, which
// interrupts the destination process and services one request at a time. A
// request begins service at max(modeled arrival, completion of the SAME
// source's previous request to this destination), pays the handler service
// cost plus whatever the handler itself charges (diff creation on first
// request), and the reply completes one reply-hop later.
//
// Serialization is per (source, destination) channel, not across sources:
// each source issues its requests in program order at deterministic modeled
// times, so every completion is a pure function of that source's own issue
// sequence — bit-identical across runs no matter how the host schedules the
// worker against the callers. Cross-source contention at one destination is
// deliberately NOT folded into completion times: resolving it online would
// make completions depend on which caller's request the worker happened to
// see first (a host race), and a 10us service displacement decided by the
// scheduler is exactly the nondeterminism the simulator exists to avoid.
// Host-order effects are confined to handler *content* (which twin flush a
// service-time request observes), the same window the inline transport has.
//
// The synchronous call()/notify() paths delegate to the inner transport so
// non-overlapped traffic keeps seed semantics bit-for-bit.
class QueuedTransport final : public Transport {
public:
  QueuedTransport(std::unique_ptr<Transport> inner, Router& router);
  ~QueuedTransport() override;

  std::vector<std::uint8_t> call(const Envelope& env) override {
    return inner_->call(env);
  }
  double notify(const Envelope& env) override { return inner_->notify(env); }
  Delivery notify_ex(const Envelope& env) override {
    return inner_->notify_ex(env);
  }

  PendingReply call_async(const Envelope& env) override;
  bool supports_async() const override { return true; }
  void quiesce() override;
  void reset_stats() override { inner_->reset_stats(); }

  // A duplicate/retransmission rider for call_async_with_dups: delivered on
  // the same (src,dst) channel as its primary, `delay_us` after the
  // primary's modeled arrival (0 for an immediate duplicate; the cumulative
  // RTO for a modeled retransmission).
  struct DupSpec {
    Envelope env;
    double delay_us = 0;
  };

  // Issue a request together with its injected duplicates/retransmissions
  // in ONE queue critical section: the riders get consecutive issue seqs
  // directly after the primary and arrivals >= the primary's, so no rider
  // can ever be selected ahead of its primary on the per-(src,dst) channel.
  // (Issuing a rider as a separate call_async — the old PerturbingTransport
  // path — gives it an arrival recomputed from the caller's clock and an
  // unrelated global seq, so nothing structurally pins it behind the
  // primary.) Riders' requests are accounted here like any issue; their
  // replies are serviced, accounted and dropped — the primary's reply
  // stands. quiesce() drains riders too: workers service pending modeled
  // retransmissions before a quiescent point completes.
  PendingReply call_async_with_dups(const Envelope& env,
                                    std::span<const DupSpec> dups);

  const char* name() const override { return "queued"; }
  Transport& inner() { return *inner_; }

  // Trace track id for the service worker of destination context c (keeps
  // worker-emitted events off the application rank tracks).
  static std::uint32_t service_track(ContextId c) {
    return (1u << 20) + c;
  }

private:
  struct Job {
    ContextId src = 0;
    ContextId dst = 0;
    MsgType type = MsgType::kNone;
    std::uint16_t trace_flags = 0;
    std::vector<std::uint8_t> payload;
    double arrive_us = 0;   // modeled arrival at the destination
    std::uint64_t seq = 0;  // issue order; tie-break for equal arrivals
    std::shared_ptr<PendingReply::State> state; // null for fire-and-forget
  };

  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> queue;
    std::thread thread;
    // Per-source service channel: finish time of this source's previous
    // request at this destination. Only the owning source's (program-
    // ordered) jobs touch an entry, so values are host-schedule free.
    std::unordered_map<ContextId, double> src_busy_until;
  };

  void worker_main(ContextId dst);
  void service(ContextId dst, Job& job, Worker& w);

  std::unique_ptr<Transport> inner_;
  Router& router_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> issue_seq_{0};

  // quiesce(): callers wait until no queued or in-service job remains.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t outstanding_ = 0;
};

// Deterministic perturbation parameters. `enabled` gates construction by
// DsmSystem; `perturb=<seed>` in OMSP_CONFIG enables it with the default
// rates below, and `loss=<p>` enables seeded loss — on its own, with the
// jitter/duplicate/reorder rates zeroed so ONLY loss is injected.
struct PerturbOptions {
  bool enabled = false;
  std::uint64_t seed = 1;
  double jitter_max_us = 25.0;   // uniform extra latency per delivery
  double duplicate_prob = 0.05;  // re-deliver a request / re-account a notice
  double reorder_prob = 0.10;    // hold a one-way notice back...
  double reorder_max_us = 50.0;  // ...by up to this long (bounded overtaking)

  // Reliable-delivery layer (active when loss_prob > 0 or drop_first):
  double loss_prob = 0.0;        // P(drop) per one-way delivery, per-link RNG
  bool drop_first = false;       // adversarial: drop every exchange's first
                                 // copy in each direction (forces the full
                                 // retransmit path on every message)
  std::uint32_t max_retries = 8; // retransmissions per exchange before
                                 // TransportError

  bool lossy() const { return loss_prob > 0 || drop_first; }
};

// Transport-local tallies that no StatsBoard counter holds; losses,
// retransmits and acks are the kMsgsLost/kRetransmits/kAcksSent counters.
struct PerturbStats {
  std::uint64_t duplicates = 0; // injected re-deliveries
  std::uint64_t reorders = 0;   // held-back one-way notifications
  double jitter_us = 0;         // total injected latency (jitter + hold-back)
  // Reliable-delivery layer:
  std::uint64_t dups_suppressed = 0; // notice copies deduped by (channel,seq)
  double rto_wait_us = 0;           // total modeled RTO latency injected
};

class PerturbingTransport final : public Transport {
public:
  // `router` is the accounting funnel for the reliability layer (lost-copy
  // wire accounting, retransmit/loss/ack counters + events) and supplies the
  // RTO model and the channel count for the per-link RNG streams.
  PerturbingTransport(std::unique_ptr<Transport> inner, Router& router,
                      PerturbOptions opts);

  std::vector<std::uint8_t> call(const Envelope& env) override;
  double notify(const Envelope& env) override;
  Delivery notify_ex(const Envelope& env) override;
  PendingReply call_async(const Envelope& env) override;
  bool supports_async() const override { return inner_->supports_async(); }
  void quiesce() override { inner_->quiesce(); }
  void reset_stats() override;
  const char* name() const override { return "perturbing"; }

  PerturbStats stats() const;
  const PerturbOptions& options() const { return opts_; }
  Transport& inner() { return *inner_; }

private:
  struct Draw {
    double jitter_us = 0;
    bool duplicate = false;
    bool reorder = false;
  };
  Draw draw(bool one_way);

  // Per-(src,dst) reliable channel: an independent seeded loss stream
  // (schedules are a pure function of (seed, link, per-link message index) —
  // host-schedule free across links) plus the send-side sequence counter and
  // the receive-side duplicate-suppression cursor.
  struct Channel {
    Rng rng;
    std::uint32_t send_seq = 0;
    std::uint32_t recv_applied = 0; // highest notice seq applied (cumulative)
    explicit Channel(Rng r) : rng(r) {}
  };

  // Pre-drawn loss schedule for one exchange. attempts = 1 + retransmits
  // actually issued; delivered == false means the retry cap was exhausted.
  struct LossSchedule {
    std::uint32_t req_lost = 0;   // leading copies dropped before delivery
    std::uint32_t reply_lost = 0; // delivered copies whose reply dropped
    bool delivered = false;       // a copy got through AND its reply/ack did
    double penalty_us = 0;        // total modeled RTO latency
    std::uint32_t attempts = 0;   // total copies sent
  };

  Channel& channel(ContextId src, ContextId dst); // mutex_ held by caller
  // Draw one delivery outcome on ch's stream: true = dropped. `copy` is the
  // 0-based copy index within the exchange (drop_first drops copy 0).
  bool draw_loss(Channel& ch, std::uint32_t copy);
  // Pre-draw the loss schedule for a round-trip (request/reply) or a
  // notice+ack exchange on e.src->e.dst; consumes the channel's stream and
  // stamps e with the exchange's channel sequence number and the
  // kSeqAckBytes wire extension.
  LossSchedule open_exchange(Envelope& e);
  // Copy `attempt` (0-based) of `copy`'s exchange was lost: its RTO expires
  // and the next copy goes out. Accounts the retransmission, tallies the
  // loss and returns the RTO.
  double retransmit(const Envelope& copy, std::uint32_t attempt);
  // Copy `attempt` of e's exchange was dropped in flight: accounts its wire
  // send and its loss, then retransmit(). Returns the RTO; the caller
  // decides whose time absorbs it.
  double lose_copy(const Envelope& e, std::uint32_t attempt);

  std::unique_ptr<Transport> inner_;
  Router& router_;
  PerturbOptions opts_;
  mutable std::mutex mutex_; // guards rng_, stats_ and channels_
  Rng rng_;
  PerturbStats stats_;
  // Base generator for per-link streams; never advanced, only split.
  Rng loss_base_;
  std::unordered_map<std::uint64_t, Channel> channels_;
};

} // namespace omsp::net
