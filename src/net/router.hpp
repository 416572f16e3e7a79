// In-process interconnect between DSM contexts / MPI ranks.
//
// The paper's TreadMarks sends UDP messages between processes and services
// them in SIGIO handlers. Here the whole cluster lives in one process, so a
// "message" is an Envelope delivered by a Transport (net/transport.hpp): the
// default InlineTransport serializes the request, accounts and charges it on
// the sender's counters/clock, runs the destination's handler directly (the
// destination object does its own locking), then accounts and charges the
// reply. Message counts and byte volumes — the Table 2 quantities — are
// therefore identical to what a wire transport would record; only the
// executing thread differs.
//
// The Router is the part that stays fixed across transports: the
// context->node map plus the hierarchical Topology descriptor that together
// place every (src, dst) pair on a path of stages (intra-node shared memory,
// edge switch, spine, ...), the per-context StatsBoards, the handler table,
// and the accounting rule (account()) every transport funnels deliveries
// through, so a message is counted once, as one `message` event, no matter
// how it reached its destination. A message's modeled cost is the sum of the
// stage costs along its path (sim::Topology::message_us); traffic is
// "off-node" whenever that path rises above stage 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/tracer.hpp"

namespace omsp::net {

class Router {
public:
  // `context_node[c]` is the physical node hosting context c; `topo` is the
  // stage hierarchy those nodes hang off (topo.nodes() must cover every node
  // id in the map).
  Router(std::vector<NodeId> context_node, sim::CostModel model,
         sim::Topology topo)
      : context_node_(std::move(context_node)), model_(model),
        topo_(std::move(topo)), stats_(context_node_.size()) {
    init();
    OMSP_CHECK(topo_.nodes() >= num_nodes_);
  }

  // Node map only: nodes sit behind a single flat switch, which prices every
  // off-node pair identically — exactly the legacy binary intra/inter split.
  Router(std::vector<NodeId> context_node, sim::CostModel model)
      : context_node_(std::move(context_node)), model_(model), topo_(1, 1),
        stats_(context_node_.size()) {
    init();
    topo_ = sim::Topology(std::max(num_nodes_, 1u), 1);
  }

  std::size_t num_contexts() const { return context_node_.size(); }
  std::uint32_t num_nodes() const { return num_nodes_; }
  NodeId node_of(ContextId c) const {
    OMSP_DCHECK(c < context_node_.size());
    return context_node_[c];
  }
  bool same_node(ContextId a, ContextId b) const {
    return node_of(a) == node_of(b);
  }

  void bind_handler(ContextId c, MessageHandler* handler) {
    OMSP_CHECK(c < handlers_.size());
    handlers_[c] = handler;
  }

  MessageHandler* handler(ContextId c) const {
    OMSP_CHECK(c < handlers_.size());
    return handlers_[c];
  }

  StatsBoard& stats(ContextId c) {
    OMSP_DCHECK(c < stats_.size());
    return *stats_[c];
  }

  const sim::CostModel& model() const { return model_; }
  const sim::Topology& topology() const { return topo_; }

  // Shared-segment key for the (src, dst) context pair: the sender's uplink
  // into the topmost stage the message crosses. Transports key their busy
  // windows on this so traffic through the same NIC / edge-switch trunk
  // queues together even when the destinations differ.
  std::uint64_t link_segment(ContextId src, ContextId dst) const {
    return topo_.link_segment(node_of(src), node_of(dst));
  }

  // The delivery layer. Protocol code sends through this — request/reply via
  // transport().call(env), one-way notifications via transport().notify(env).
  Transport& transport() { return *transport_; }
  void set_transport(std::unique_ptr<Transport> t) {
    OMSP_CHECK(t != nullptr);
    transport_ = std::move(t);
  }

  // Aggregate counters over all contexts.
  StatsSnapshot snapshot() const {
    StatsSnapshot s;
    for (const auto& b : stats_) b->accumulate(s.v);
    return s;
  }

  void reset_stats() {
    for (auto& b : stats_) b->reset();
  }

  // The single accounting rule every transport funnels deliveries through:
  // add kHeaderBytes framing, record the sender's `message` event (which
  // counts the message and its bytes, plus the off-node pair when the link
  // crosses a physical node), and return the modeled one-way cost in
  // microseconds. The event packs (type, dst) into arg1 so analyzers can
  // report traffic by registry name; env.trace_flags (e.g. kFlagPerturbed on
  // injected duplicates) are OR-ed into the event flags.
  double account(const Envelope& env) {
    const bool same = same_node(env.src, env.dst);
    const std::size_t bytes = env.payload_size() + kHeaderBytes;
    const double cost = topo_.message_us(model_, bytes, node_of(env.src),
                                         node_of(env.dst));
    // The modeled one-way cost rides in dur_us so `omsp-trace summary` can
    // report per-type latency without re-deriving the cost model.
    trace::record(*stats_[env.src], trace::EventKind::kMessage, env.src, bytes,
                  message_trace_arg1(env.type, env.dst),
                  static_cast<std::uint16_t>(
                      env.trace_flags | (same ? 0 : trace::kFlagOffNode)),
                  cost);
    return cost;
  }

  // --- reliability accounting (net::PerturbingTransport's loss layer) -------
  // Each records one event through trace::record, so `omsp-trace check`
  // stays exact under loss. The lost copy's wire transmission is accounted
  // separately through account() by the caller — these record the
  // protocol-level facts.

  // A one-way delivery of `env` was dropped in flight. Attributed to the
  // sender of the dropped copy.
  void account_loss(const Envelope& env) {
    trace::record(*stats_[env.src], trace::EventKind::kMessageLost, env.src,
                  env.payload_size() + kHeaderBytes,
                  message_trace_arg1(env.type, env.dst), env.trace_flags);
  }

  // The sender's RTO for `env` expired and attempt `attempt` (1-based count
  // of retransmissions so far) is being issued after waiting rto_us.
  void account_retransmit(const Envelope& env, std::uint32_t attempt,
                          double rto_us) {
    trace::record(*stats_[env.src], trace::EventKind::kRetransmit, env.src,
                  attempt, message_trace_arg1(env.type, env.dst),
                  env.trace_flags, rto_us);
  }

  // Context `acker` sent an explicit ack for seq `seq` of the notice channel
  // that delivered `env` (the ack message itself is accounted via account()).
  void account_ack(ContextId acker, const Envelope& env, std::uint32_t seq) {
    trace::record(*stats_[acker], trace::EventKind::kAck, acker, seq,
                  message_trace_arg1(env.type, env.dst), env.trace_flags);
  }

  // One edge of a hierarchical collective schedule (coll::Schedule) carried
  // `wire_bytes` from `sender` at tree `level` toward `leader`. The edge's
  // message itself is accounted via account().
  void account_coll_stage(ContextId sender, std::uint32_t level,
                          ContextId leader, std::size_t wire_bytes) {
    trace::record(*stats_[sender], trace::EventKind::kCollStage, sender,
                  wire_bytes,
                  (static_cast<std::uint64_t>(level) << 32) | leader);
  }

private:
  void init() {
    handlers_.resize(context_node_.size(), nullptr);
    for (auto& s : stats_) s = std::make_unique<StatsBoard>();
    for (const NodeId n : context_node_)
      num_nodes_ = std::max(num_nodes_, static_cast<std::uint32_t>(n) + 1);
    transport_ = std::make_unique<InlineTransport>(*this);
  }

  std::vector<NodeId> context_node_;
  sim::CostModel model_;
  sim::Topology topo_;
  std::vector<std::unique_ptr<StatsBoard>> stats_;
  std::vector<MessageHandler*> handlers_;
  std::uint32_t num_nodes_ = 0;
  std::unique_ptr<Transport> transport_;
};

} // namespace omsp::net
