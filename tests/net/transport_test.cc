// Transport-layer tests: kHeaderBytes framing, intra-/off-node
// classification, stats/trace pairing across reset_stats, the cost model's
// occupancy/contention knobs, and the seeded PerturbingTransport.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <thread>
#include <tuple>

#include "../common/env_guard.hpp"
#include "net/router.hpp"
#include "net/transport.hpp"
#include "trace/sinks.hpp"
#include "trace/tracer.hpp"

namespace omsp::net {
namespace {

class EchoHandler : public MessageHandler {
public:
  void handle(ContextId src, MsgType type, ByteReader& request,
              ByteWriter& reply) override {
    (void)src;
    (void)type;
    const auto payload = request.get_span<std::uint8_t>();
    reply.put_span<std::uint8_t>({payload.data(), payload.size()});
    ++calls;
  }
  int calls = 0;
};

Router make_router(sim::CostModel model = sim::CostModel::zero()) {
  // Contexts 0,1 on node 0; context 2 on node 1.
  return Router({0, 0, 1}, model);
}

// ------------------------------------------------------------- framing ------

TEST(InlineTransport, NotifyAddsExactlyHeaderBytes) {
  auto router = make_router();
  router.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 100));
  EXPECT_EQ(router.stats(0).get(Counter::kMsgsSent), 1u);
  EXPECT_EQ(router.stats(0).get(Counter::kBytesSent), 100 + kHeaderBytes);
  EXPECT_EQ(router.stats(0).get(Counter::kBytesOffNode), 100 + kHeaderBytes);
}

TEST(InlineTransport, CallFramesBothDirections) {
  auto router = make_router();
  EchoHandler echo;
  router.bind_handler(2, &echo);
  ByteWriter req;
  std::vector<std::uint8_t> payload(100, 9);
  req.put_span<std::uint8_t>({payload.data(), payload.size()});
  // put_span encodes a 4-byte length prefix, so the wire payload is 104.
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  EXPECT_EQ(router.stats(0).get(Counter::kBytesSent), 104 + kHeaderBytes);
  EXPECT_EQ(router.stats(2).get(Counter::kBytesSent), 104 + kHeaderBytes);
}

TEST(InlineTransport, ZeroPayloadNoticeStillCountsHeader) {
  auto router = make_router();
  router.transport().notify(Envelope::notice(0, 1, MsgType::kLockRequest, 0));
  EXPECT_EQ(router.stats(0).get(Counter::kBytesSent), kHeaderBytes);
  EXPECT_EQ(router.stats(0).get(Counter::kMsgsOffNode), 0u); // same node
}

// -------------------------------------------------------- classification ----

TEST(InlineTransport, ClassifiesLinksByNodeNotContext) {
  auto router = make_router();
  router.transport().notify(Envelope::notice(0, 1, MsgType::kGcRecords, 8));
  router.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 8));
  router.transport().notify(Envelope::notice(2, 1, MsgType::kGcRecords, 8));
  const auto s = router.snapshot();
  EXPECT_EQ(s[Counter::kMsgsSent], 3u);
  EXPECT_EQ(s[Counter::kMsgsOffNode], 2u); // 0->2 and 2->1 cross nodes
}

// ---------------------------------------------- stats/trace pairing ---------

// Every counter add in the transport has a paired trace event, and the pair
// survives a reset_stats() mid-run as long as the trace buffer is cleared in
// the same window (the DsmSystem::reset_stats contract).
TEST(InlineTransport, StatsTracePairingAcrossReset) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  auto router = make_router();
  EchoHandler echo;
  router.bind_handler(2, &echo);

  auto expect_exact = [&] {
    const StatsSnapshot live = router.snapshot();
    const StatsSnapshot rebuilt =
        trace::reconstruct_counters(tracer.snapshot_events());
    for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
      EXPECT_EQ(rebuilt.v[c], live.v[c])
          << "counter " << counter_name(static_cast<Counter>(c));
  };

  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  router.transport().notify(Envelope::notice(1, 2, MsgType::kLockGrant, 32));
  expect_exact();

  router.reset_stats();
  tracer.clear();
  expect_exact(); // both sides empty

  router.transport().notify(Envelope::notice(2, 0, MsgType::kMpiData, 64));
  ByteWriter req2;
  req2.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(1, 2, MsgType::kPageRequest, req2));
  expect_exact();
  tracer.uninstall();
}

TEST(InlineTransport, MessageEventsCarryTypedArg1) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  auto router = make_router();
  router.transport().notify(
      Envelope::notice(0, 2, MsgType::kBarrierArrival, 24));
  const auto events = tracer.snapshot_events();
  tracer.uninstall();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, trace::EventKind::kMessage);
  EXPECT_EQ(message_type_of_arg1(events[0].arg1), MsgType::kBarrierArrival);
  EXPECT_EQ(message_dst_of_arg1(events[0].arg1), 2u);
  EXPECT_TRUE(events[0].flags & trace::kFlagOffNode);
}

// ------------------------------------------------- occupancy/contention -----

TEST(InlineTransport, OccupancyKnobsChargeAtTransport) {
  sim::CostModel model = sim::CostModel::zero();
  model.send_occupancy_us = 3.0;
  model.occupancy_byte_us = 0.5;
  auto router = make_router(model);
  // notify: modeled cost (0 under zero()) + occupancy of the wire bytes.
  const double cost = router.transport().notify(
      Envelope::notice(0, 1, MsgType::kLockRequest, 100 - kHeaderBytes));
  EXPECT_NEAR(cost, 3.0 + 0.5 * 100, 1e-9);
}

TEST(InlineTransport, CallChargesOccupancyBothWays) {
  sim::CostModel model = sim::CostModel::zero();
  model.send_occupancy_us = 10.0;
  auto router = make_router(model);
  EchoHandler echo;
  router.bind_handler(2, &echo);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  EXPECT_NEAR(clock.now_us(), 20.0, 1e-9); // request + reply occupancy
}

// A handler that issues a second call on the same directional link while the
// first is still in flight: the nested send must pay the contention penalty.
class NestedCallHandler : public MessageHandler {
public:
  explicit NestedCallHandler(Router& router) : router_(router) {}
  void handle(ContextId src, MsgType type, ByteReader& request,
              ByteWriter& reply) override {
    (void)src;
    (void)type;
    (void)request;
    (void)reply;
    if (depth_++ == 0) {
      ByteWriter req;
      req.put_span<std::uint8_t>({});
      (void)router_.transport().call(
          Envelope::request(0, 2, MsgType::kDiffRequest, req));
    }
  }

private:
  Router& router_;
  int depth_ = 0;
};

TEST(InlineTransport, LinkContentionChargesQueuedMessages) {
  sim::CostModel model = sim::CostModel::zero();
  model.link_contention_us = 7.0;
  auto router = make_router(model);
  NestedCallHandler nested(router);
  router.bind_handler(2, &nested);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  // Outer request saw an idle link (0 queued); the nested request saw one
  // message in flight on node0->node1 and paid 7us. Replies travel the
  // reverse link, which is idle.
  EXPECT_NEAR(clock.now_us(), 7.0, 1e-9);
}

// Regression: the old implementation counted host-instantaneous in-flight
// messages (fetch_add before the handler, fetch_sub after), so two sends that
// merely overlapped in HOST time charged each other the queueing penalty even
// when their MODELED times were a million microseconds apart — the charge
// depended on which thread won the race. The windowed model keys the charge
// on modeled time alone: sends in disjoint modeled busy periods never pay,
// no matter how the host scheduler interleaves them.
TEST(InlineTransport, LinkContentionIgnoresHostRaces) {
  class AtomicEcho : public MessageHandler {
  public:
    void handle(ContextId, MsgType, ByteReader& request,
                ByteWriter& reply) override {
      const auto payload = request.get_span<std::uint8_t>();
      reply.put_span<std::uint8_t>({payload.data(), payload.size()});
      calls.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<int> calls{0};
  };

  sim::CostModel model = sim::CostModel::zero();
  model.link_contention_us = 7.0;
  for (int iter = 0; iter < 100; ++iter) {
    auto router = make_router(model);
    AtomicEcho echo;
    router.bind_handler(2, &echo);
    std::barrier sync(2);
    auto send_at = [&](ContextId src, double t) {
      sim::VirtualClock clock(0.0);
      sim::VirtualClock::Binder bind(&clock);
      clock.set_now_us(t);
      sync.arrive_and_wait(); // maximize host-time overlap on the shared link
      ByteWriter req;
      req.put_span<std::uint8_t>({});
      (void)router.transport().call(
          Envelope::request(src, 2, MsgType::kDiffRequest, req));
      return clock.now_us();
    };
    double t0 = -1, t1 = -1;
    std::thread a([&] { t0 = send_at(0, 0.0); });
    std::thread b([&] { t1 = send_at(1, 1e6); });
    a.join();
    b.join();
    // Disjoint modeled windows: neither request queues behind the other,
    // on every run. (zero()'s bandwidth is finite, hence NEAR not EQ.)
    EXPECT_NEAR(t0, 0.0, 1e-9);
    EXPECT_NEAR(t1, 1e6, 1e-9);
  }
}

// Segment sharing: the stage-path topology keys the off-node busy window by
// the SENDER's uplink (Router::link_segment), not the (src, dst) pair — one
// NIC, one wire out of the node, no matter where the packets are headed.
class CrossDestNestedHandler : public MessageHandler {
public:
  explicit CrossDestNestedHandler(Router& router) : router_(router) {}
  void handle(ContextId src, MsgType type, ByteReader& request,
              ByteWriter& reply) override {
    (void)src;
    (void)type;
    (void)request;
    (void)reply;
    if (depth_++ == 0) {
      // A second send from node 0 while the first is in flight — but to a
      // DIFFERENT destination node.
      ByteWriter req;
      req.put_span<std::uint8_t>({});
      (void)router_.transport().call(
          Envelope::request(0, 2, MsgType::kDiffRequest, req));
    }
  }

private:
  Router& router_;
  int depth_ = 0;
};

TEST(InlineTransport, UplinkSegmentSharedAcrossDestinations) {
  sim::CostModel model = sim::CostModel::zero();
  model.link_contention_us = 7.0;
  // Three single-proc nodes behind one switch; contexts 0,1,2 on nodes 0,1,2.
  Router router({0, 1, 2}, model, sim::Topology::flat_switch(3, 1));
  CrossDestNestedHandler nested(router);
  router.bind_handler(1, &nested);
  EchoHandler echo;
  router.bind_handler(2, &echo);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 1, MsgType::kDiffRequest, req));
  // The nested 0->2 request left while 0->1 still occupied node 0's uplink:
  // different destination, same segment, so it queued and paid the 7us. A
  // (src, dst)-pair keyed window would have let it sail through for free.
  EXPECT_NEAR(clock.now_us(), 7.0, 1e-9);
  EXPECT_EQ(echo.calls, 1);
}

// ------------------------------------------------- per-stage busy windows ---

// A three-stage test machine: 4 single-proc nodes, 2 per edge switch, 2 edge
// switches under one spine. Each network tier pins its own contention hold,
// so an edge NIC and a spine trunk queue independently at their own rates.
// Under CostModel::zero() the only modeled time is queueing, which makes the
// assertions below closed-form.
sim::Topology deep_machine(double edge_hold_us, double spine_hold_us) {
  sim::Stage node{1};
  sim::Stage edge{2};
  edge.link_contention_us = edge_hold_us;
  sim::Stage spine{2};
  spine.link_contention_us = spine_hold_us;
  return sim::Topology({node, edge, spine}, "test:2x2x1");
}

Router make_deep_router(const sim::Topology& topo,
                        sim::CostModel model = sim::CostModel::zero()) {
  // One context per node: 0,1 under edge switch 0; 2,3 under edge switch 1.
  return Router({0, 1, 2, 3}, model, topo);
}

TEST(InlineTransport, SpineTrunkQueuesOnlySendersSharingIt) {
  auto router = make_deep_router(deep_machine(0.0, 11.0));
  EchoHandler echo;
  router.bind_handler(2, &echo);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  // The request reserved spine trunk 0 for [0, 11); its reply climbed trunk
  // 1 (up legs key on the sending side), which was idle — no charge.
  EXPECT_NEAR(clock.now_us(), 0.0, 1e-6);

  // 1 -> 3 climbs the same trunk 0 at modeled time 0: full residual hold.
  const double shared = router.transport().notify(
      Envelope::notice(1, 3, MsgType::kGcRecords, 8));
  EXPECT_NEAR(shared, 11.0, 1e-6);
  // 3 -> 1 climbs trunk 1: distinct segment of the same stage — free.
  const double distinct = router.transport().notify(
      Envelope::notice(3, 1, MsgType::kGcRecords, 8));
  EXPECT_NEAR(distinct, 0.0, 1e-6);

  auto& inline_t = dynamic_cast<InlineTransport&>(router.transport());
  const auto waits = inline_t.stage_waits();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[2].waits, 1u);
  EXPECT_NEAR(waits[2].wait_us, 11.0, 1e-6);
  EXPECT_EQ(waits[1].waits, 0u);
  EXPECT_EQ(router.stats(1).get(Counter::kContentionStageWaits), 1u);
  EXPECT_EQ(router.stats(3).get(Counter::kContentionStageWaits), 0u);

  inline_t.reset_stats();
  EXPECT_TRUE(inline_t.stage_waits().empty());
}

TEST(InlineTransport, EdgeNicWindowSharedAcrossTiersAndDestinations) {
  auto router = make_deep_router(deep_machine(5.0, 0.0));
  EchoHandler echo;
  router.bind_handler(1, &echo);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  // 0 -> 1 stays inside edge switch 0 and reserves node 0's NIC ([0, 5)).
  (void)router.transport().call(
      Envelope::request(0, 1, MsgType::kDiffRequest, req));
  EXPECT_NEAR(clock.now_us(), 0.0, 1e-6); // the reply used node 1's NIC: idle
  // A cross-spine send leaves node 0 through the same NIC and queues, even
  // though the two messages cross different top stages.
  const double cross = router.transport().notify(
      Envelope::notice(0, 3, MsgType::kGcRecords, 8));
  EXPECT_NEAR(cross, 5.0, 1e-6);
  // The other edge group's NICs never acquired a window.
  const double other = router.transport().notify(
      Envelope::notice(2, 3, MsgType::kGcRecords, 8));
  EXPECT_NEAR(other, 0.0, 1e-6);
}

TEST(InlineTransport, UpstreamQueueDelaysDownstreamArrival) {
  // The local-time rule: a message that waits 11us at the spine reaches the
  // destination's edge NIC at t = 11, AFTER that NIC's busy window [0, 5)
  // has drained — it must pay 11, not 11 + 5. Charging every segment against
  // the caller's clock-now would double-bill the path.
  auto router = make_deep_router(deep_machine(5.0, 11.0));
  EchoHandler echo;
  router.bind_handler(3, &echo);
  {
    sim::VirtualClock clock(0.0);
    sim::VirtualClock::Binder bind(&clock);
    ByteWriter req;
    req.put_span<std::uint8_t>({});
    // Reserves node 0's NIC [0, 5), spine trunk 0 [0, 11), node 3's NIC
    // [0, 5) — the request itself saw every segment idle.
    (void)router.transport().call(
        Envelope::request(0, 3, MsgType::kDiffRequest, req));
    // The reply left node 3 at ~0 and queued behind the request's own
    // reservation of node 3's NIC; after that 5us wait, spine trunk 1 was
    // untouched and node 0's downlink window had lapsed.
    EXPECT_NEAR(clock.now_us(), 5.0, 1e-6);
  }
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  const double cost = router.transport().notify(
      Envelope::notice(1, 3, MsgType::kGcRecords, 8));
  EXPECT_NEAR(cost, 11.0, 1e-6);

  auto& inline_t = dynamic_cast<InlineTransport&>(router.transport());
  const auto waits = inline_t.stage_waits();
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_EQ(waits[1].waits, 1u); // the reply, at node 3's NIC
  EXPECT_EQ(waits[2].waits, 1u); // the notice, at spine trunk 0
  EXPECT_NEAR(waits[2].wait_us, 11.0, 1e-6);
}

TEST(InlineTransport, PerStageQueueingDeterministicUnderSeeds) {
  // The windowed model composes with the seeded lossy transport: every
  // retransmitted copy pays the same modeled queueing on every run, so the
  // whole (time, waits, losses) tuple is a pure function of the seed.
  auto run = [](std::uint64_t seed) {
    sim::CostModel model = sim::CostModel::zero();
    model.rto_us = 50.0;
    auto router = make_deep_router(deep_machine(5.0, 11.0), model);
    EchoHandler echo;
    router.bind_handler(2, &echo);
    PerturbOptions o;
    o.enabled = true;
    o.seed = seed;
    o.jitter_max_us = 0;
    o.duplicate_prob = 0;
    o.reorder_prob = 0;
    o.loss_prob = 0.3;
    o.max_retries = 20;
    router.set_transport(std::make_unique<PerturbingTransport>(
        std::make_unique<InlineTransport>(router), router, o));
    sim::VirtualClock clock(0.0);
    sim::VirtualClock::Binder bind(&clock);
    std::uint64_t failures = 0;
    for (int i = 0; i < 16; ++i) {
      ByteWriter req;
      req.put_span<std::uint8_t>({});
      try {
        (void)router.transport().call(
            Envelope::request(0, 2, MsgType::kDiffRequest, req));
        (void)router.transport().notify(
            Envelope::notice(1, 3, MsgType::kGcRecords, 8));
      } catch (const TransportError&) {
        ++failures;
      }
    }
    auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
    auto& inline_t = dynamic_cast<InlineTransport&>(pt.inner());
    return std::tuple{clock.now_us(), inline_t.stage_waits(),
                      router.snapshot()[Counter::kContentionStageWaits],
                      router.snapshot()[Counter::kMsgsLost], failures};
  };
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const auto a = run(seed);
    EXPECT_EQ(a, run(seed)); // bit-identical time, waits and loss schedule
    EXPECT_GT(std::get<2>(a), 0u); // queueing actually happened
  }
}

// Satellite regression: the reply leg must price against the REVERSED
// (dst -> src) path. asym:2+1 puts contexts {0, 1} on node 0 and context 2
// on node 1; the request 0 -> 2 reserves node 0's uplink, and a reply keyed
// on the forward path would queue 7us behind it — the reversed path's
// node 1 uplink is idle, so the round trip must cost nothing.
TEST(InlineTransport, AsymmetricReplyPricesReversedPath) {
  sim::CostModel model = sim::CostModel::zero();
  model.link_contention_us = 7.0;
  Router router({0, 0, 1}, model, sim::Topology::asymmetric({2, 1}));
  EchoHandler echo;
  router.bind_handler(2, &echo);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));
  EXPECT_NEAR(clock.now_us(), 0.0, 1e-6);
  // The forward window is real: a second send out of node 0 queues...
  const double queued = router.transport().notify(
      Envelope::notice(1, 2, MsgType::kGcRecords, 8));
  EXPECT_NEAR(queued, 7.0, 1e-6);
  // ...while node 1's uplink never acquired one — the reply paid nothing.
  const double reverse = router.transport().notify(
      Envelope::notice(2, 0, MsgType::kGcRecords, 8));
  EXPECT_NEAR(reverse, 0.0, 1e-6);
}

// Every kContentionStageWaits bump pairs with a kContentionWait event whose
// args identify the queueing segment and whose dur is the modeled wait.
TEST(InlineTransport, ContentionWaitEventsAuditExactly) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  sim::CostModel model = sim::CostModel::zero();
  model.link_contention_us = 7.0;
  auto router = make_router(model);
  NestedCallHandler nested(router);
  router.bind_handler(2, &nested);
  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  req.put_span<std::uint8_t>({});
  (void)router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));

  const auto events = tracer.snapshot_events();
  tracer.uninstall();
  const trace::Event* wait = nullptr;
  for (const auto& e : events)
    if (e.kind == trace::EventKind::kContentionWait) {
      EXPECT_EQ(wait, nullptr) << "exactly one send queued";
      wait = &e;
    }
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->ctx, 0u);  // charged to the queued sender
  EXPECT_EQ(wait->arg0, 1u); // the switch stage...
  EXPECT_EQ(wait->arg1, (std::uint64_t{1} << 32) | 0); // ...node 0's uplink
  EXPECT_NEAR(wait->dur_us, 7.0, 1e-9);
  // The event folds back into exactly the counter it mirrors.
  const StatsSnapshot rebuilt = trace::reconstruct_counters(events);
  EXPECT_EQ(rebuilt[Counter::kContentionStageWaits], 1u);
  EXPECT_EQ(router.snapshot()[Counter::kContentionStageWaits], 1u);
}

// ------------------------------------------------------ perturbation --------

PerturbOptions perturb_all() {
  PerturbOptions o;
  o.enabled = true;
  o.seed = 42;
  o.jitter_max_us = 0;
  o.duplicate_prob = 1.0;
  o.reorder_prob = 0;
  return o;
}

TEST(PerturbingTransport, DuplicatesEveryCallAndReAccounts) {
  auto router = make_router();
  EchoHandler echo;
  router.bind_handler(2, &echo);
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, perturb_all()));

  ByteWriter req;
  std::vector<std::uint8_t> payload{1, 2, 3};
  req.put_span<std::uint8_t>({payload.data(), payload.size()});
  auto reply = router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));

  EXPECT_EQ(echo.calls, 2); // original + injected retransmission
  ByteReader r(reply);
  EXPECT_EQ(r.get_span<std::uint8_t>(), payload); // first reply stands
  // Both deliveries are accounted, so counters stay audit-consistent.
  EXPECT_EQ(router.stats(0).get(Counter::kMsgsSent), 2u);
  EXPECT_EQ(router.stats(2).get(Counter::kMsgsSent), 2u);
  auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
  EXPECT_EQ(pt.stats().duplicates, 1u);
}

TEST(PerturbingTransport, DuplicateDeliveriesCarryPerturbedFlag) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  auto router = make_router();
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, perturb_all()));
  router.transport().notify(Envelope::notice(0, 2, MsgType::kMpiData, 10));
  const auto events = tracer.snapshot_events();
  tracer.uninstall();

  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].flags & trace::kFlagPerturbed);
  EXPECT_TRUE(events[1].flags & trace::kFlagPerturbed);
  // Even with injected traffic the trace reconstructs the boards exactly.
  const StatsSnapshot rebuilt = trace::reconstruct_counters(events);
  EXPECT_EQ(rebuilt[Counter::kMsgsSent],
            router.snapshot()[Counter::kMsgsSent]);
}

TEST(PerturbingTransport, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    auto router = make_router();
    EchoHandler echo;
    router.bind_handler(2, &echo);
    PerturbOptions o;
    o.enabled = true;
    o.seed = seed;
    o.duplicate_prob = 0.5;
    o.reorder_prob = 0.5;
    router.set_transport(std::make_unique<PerturbingTransport>(
        std::make_unique<InlineTransport>(router), router, o));
    double cost = 0;
    for (int i = 0; i < 64; ++i)
      cost += router.transport().notify(
          Envelope::notice(0, 2, MsgType::kGcRecords, 8));
    auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
    return std::tuple{router.snapshot()[Counter::kMsgsSent],
                      pt.stats().duplicates, pt.stats().reorders,
                      pt.stats().jitter_us, cost};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<3>(run(7)), std::get<3>(run(8)));
}

TEST(PerturbingTransport, ReorderHoldsBackNotificationsBounded) {
  auto router = make_router();
  PerturbOptions o;
  o.enabled = true;
  o.seed = 1;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 1.0;
  o.reorder_max_us = 50.0;
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));
  for (int i = 0; i < 32; ++i) {
    const double cost = router.transport().notify(
        Envelope::notice(0, 2, MsgType::kGcRecords, 8));
    EXPECT_GE(cost, 0.0);
    EXPECT_LE(cost, o.reorder_max_us); // zero() model: cost is pure hold-back
  }
  auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
  EXPECT_EQ(pt.stats().reorders, 32u);
  EXPECT_LE(pt.stats().jitter_us, 32 * o.reorder_max_us);
}

// Regression: reset_stats() used to leave the PerturbStats tallies (reorders,
// jitter_us, ...) untouched — a mid-run reset kept counting from the old
// totals, so post-reset audits against the (cleared) trace buffer failed.
TEST(PerturbingTransport, ResetStatsClearsAllPerturbationTallies) {
  auto router = make_router();
  PerturbOptions o;
  o.enabled = true;
  o.seed = 11;
  o.jitter_max_us = 5.0;
  o.duplicate_prob = 1.0;
  o.reorder_prob = 1.0;
  o.reorder_max_us = 50.0;
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));
  for (int i = 0; i < 8; ++i)
    router.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 8));
  auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
  ASSERT_GT(pt.stats().duplicates, 0u);
  ASSERT_GT(pt.stats().reorders, 0u);
  ASSERT_GT(pt.stats().jitter_us, 0.0);

  router.transport().reset_stats();
  const PerturbStats s = pt.stats();
  EXPECT_EQ(s.duplicates, 0u);
  EXPECT_EQ(s.reorders, 0u);
  EXPECT_EQ(s.jitter_us, 0.0);
  EXPECT_EQ(s.dups_suppressed, 0u);
  EXPECT_EQ(s.rto_wait_us, 0.0);

  // Tallying resumes from zero, not from the pre-reset totals.
  router.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 8));
  EXPECT_EQ(pt.stats().duplicates, 1u);
  EXPECT_EQ(pt.stats().reorders, 1u);
}

// --------------------------------------------------------------- loss -------

// drop_first drops the first copy of every exchange in each direction, so a
// single call deterministically walks the whole retransmit path: request
// lost -> RTO -> retransmit delivered, reply lost -> RTO -> handler re-runs
// (the idempotence contract under genuine loss), second reply stands.
TEST(PerturbingTransport, DropFirstExercisesFullRetransmitPath) {
  sim::CostModel model = sim::CostModel::zero();
  model.rto_us = 100.0;
  model.rto_backoff = 2.0;
  auto router = make_router(model);
  EchoHandler echo;
  router.bind_handler(2, &echo);
  PerturbOptions o;
  o.enabled = true;
  o.seed = 3;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  o.drop_first = true;
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));

  sim::VirtualClock clock(0.0);
  sim::VirtualClock::Binder bind(&clock);
  ByteWriter req;
  std::vector<std::uint8_t> payload{1, 2, 3};
  req.put_span<std::uint8_t>({payload.data(), payload.size()});
  auto reply = router.transport().call(
      Envelope::request(0, 2, MsgType::kDiffRequest, req));

  ByteReader r(reply);
  EXPECT_EQ(r.get_span<std::uint8_t>(), payload);
  // Attempt 1: request dropped. Attempt 2: delivered, reply dropped (the
  // handler ran). Attempt 3: delivered both ways (the handler ran again).
  EXPECT_EQ(echo.calls, 2);
  auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
  EXPECT_DOUBLE_EQ(pt.stats().rto_wait_us, 100.0 + 200.0);
  const auto s = router.snapshot();
  EXPECT_EQ(s[Counter::kMsgsLost], 2u);
  EXPECT_EQ(s[Counter::kRetransmits], 2u);
  // The caller sat out both modeled timeouts (100, then backed off to 200).
  EXPECT_DOUBLE_EQ(clock.now_us(), 300.0);
  // Every wire copy is accounted: lost request + 2 delivered requests from
  // ctx 0; 2 replies (one lost) from ctx 2.
  EXPECT_EQ(router.stats(0).get(Counter::kMsgsSent), 3u);
  EXPECT_EQ(router.stats(2).get(Counter::kMsgsSent), 2u);
}

// Notices use explicit acks: a lost ack triggers a retransmission that the
// receiver suppresses by (channel, seq) and re-acks. Counters and trace stay
// an exact pair throughout.
TEST(PerturbingTransport, DropFirstNoticeAckDanceAuditsExactly) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  auto router = make_router();
  PerturbOptions o;
  o.enabled = true;
  o.seed = 3;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  o.drop_first = true;
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));
  router.transport().notify(Envelope::notice(0, 2, MsgType::kMpiData, 10));

  auto& pt = dynamic_cast<PerturbingTransport&>(router.transport());
  // Notice lost, retransmitted notice delivered, its ack lost, the sender's
  // third copy suppressed as a duplicate and re-acked.
  EXPECT_EQ(pt.stats().dups_suppressed, 1u);
  const auto live = router.snapshot();
  EXPECT_EQ(live[Counter::kMsgsLost], 2u);
  EXPECT_EQ(live[Counter::kRetransmits], 2u);
  EXPECT_EQ(live[Counter::kAcksSent], 2u);
  // 3 notice copies from ctx 0 + 2 acks from ctx 2, all on the wire.
  EXPECT_EQ(live[Counter::kMsgsSent], 5u);

  const StatsSnapshot rebuilt =
      trace::reconstruct_counters(tracer.snapshot_events());
  tracer.uninstall();
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
}

// Exhausting the retry cap surfaces a typed error at the call site — the
// caller never hangs waiting for a reply that cannot arrive.
TEST(PerturbingTransport, RetryCapExhaustionThrowsTransportError) {
  auto router = make_router();
  EchoHandler echo;
  router.bind_handler(2, &echo);
  PerturbOptions o;
  o.enabled = true;
  o.seed = 3;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  o.drop_first = true;
  o.max_retries = 0; // one attempt, and drop_first always eats it
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));

  ByteWriter req;
  req.put_span<std::uint8_t>({});
  try {
    (void)router.transport().call(
        Envelope::request(0, 2, MsgType::kDiffRequest, req));
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.src, 0u);
    EXPECT_EQ(e.dst, 2u);
    EXPECT_EQ(e.type, MsgType::kDiffRequest);
    EXPECT_EQ(e.attempts, 1u);
  }
  EXPECT_EQ(echo.calls, 0); // the request never arrived
  // The doomed attempt is still on the wire and in the loss tally.
  EXPECT_EQ(router.snapshot()[Counter::kMsgsLost], 1u);
  EXPECT_THROW(router.transport().notify(
                   Envelope::notice(0, 2, MsgType::kMpiData, 10)),
               TransportError);
}

// Seeded loss is per-link deterministic: the same seed yields the identical
// loss schedule (and therefore identical counters and modeled penalties) on
// every run, and different seeds diverge.
TEST(PerturbingTransport, SameSeedSameLossSchedule) {
  auto run = [](std::uint64_t seed) {
    sim::CostModel model = sim::CostModel::zero();
    model.rto_us = 50.0;
    auto router = make_router(model);
    EchoHandler echo;
    router.bind_handler(2, &echo);
    PerturbOptions o;
    o.enabled = true;
    o.seed = seed;
    o.jitter_max_us = 0;
    o.duplicate_prob = 0;
    o.reorder_prob = 0;
    o.loss_prob = 0.3;
    router.set_transport(std::make_unique<PerturbingTransport>(
        std::make_unique<InlineTransport>(router), router, o));
    sim::VirtualClock clock(0.0);
    sim::VirtualClock::Binder bind(&clock);
    std::uint64_t failures = 0; // retry-cap exhaustions are deterministic too
    for (int i = 0; i < 64; ++i) {
      ByteWriter req;
      req.put_span<std::uint8_t>({});
      try {
        (void)router.transport().call(
            Envelope::request(0, 2, MsgType::kDiffRequest, req));
      } catch (const TransportError&) {
        ++failures;
      }
    }
    return std::tuple{router.snapshot()[Counter::kMsgsSent],
                      router.snapshot()[Counter::kRetransmits],
                      router.snapshot()[Counter::kMsgsLost], failures,
                      clock.now_us()};
  };
  const auto a = run(9);
  EXPECT_EQ(a, run(9));
  EXPECT_GT(std::get<2>(a), 0u); // p=0.3 over 64 round trips: losses occur
  EXPECT_NE(std::get<4>(a), std::get<4>(run(10)));
}

// With loss disabled the transport must not even stamp seq/ack headers:
// byte counts are bit-identical to a run without the reliability layer.
TEST(PerturbingTransport, NoLossPathAddsNoWireBytes) {
  auto base = make_router();
  base.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 100));

  auto router = make_router();
  PerturbOptions o;
  o.enabled = true;
  o.seed = 4;
  o.jitter_max_us = 0;
  o.duplicate_prob = 0;
  o.reorder_prob = 0;
  router.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(router), router, o));
  router.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 100));

  EXPECT_EQ(router.stats(0).get(Counter::kBytesSent),
            base.stats(0).get(Counter::kBytesSent));
  EXPECT_EQ(router.snapshot()[Counter::kAcksSent], 0u);

  // With loss on, delivered copies carry the 8-byte seq/ack extension.
  auto lossy = make_router();
  PerturbOptions lo = o;
  lo.drop_first = true;
  lossy.set_transport(std::make_unique<PerturbingTransport>(
      std::make_unique<InlineTransport>(lossy), lossy, lo));
  lossy.transport().notify(Envelope::notice(0, 2, MsgType::kGcRecords, 100));
  // 3 notice copies + 2 acks, every one carrying the extension.
  EXPECT_EQ(lossy.snapshot()[Counter::kBytesSent],
            3 * (100 + kSeqAckBytes + kHeaderBytes) +
                2 * (kSeqAckBytes + kHeaderBytes));
}

} // namespace
} // namespace omsp::net
