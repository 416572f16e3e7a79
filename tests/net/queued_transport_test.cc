// QueuedTransport: asynchronous request service on per-destination worker
// threads. The contract under test: completion times are a deterministic
// function of the modeled workload (not of host scheduling), concurrent
// requests to distinct destinations complete at the MAX of their RTTs,
// requests to one destination serialize on its service clock, and counters
// are identical to the synchronous path no matter when — or whether — the
// caller waits.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "net/router.hpp"
#include "net/transport.hpp"
#include "sim/virtual_clock.hpp"
#include "trace/tracer.hpp"

namespace omsp::net {
namespace {

class CountingEcho : public MessageHandler {
public:
  void handle(ContextId src, MsgType type, ByteReader& request,
              ByteWriter& reply) override {
    (void)src;
    (void)type;
    const auto payload = request.get_span<std::uint8_t>();
    reply.put_span<std::uint8_t>({payload.data(), payload.size()});
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<int> calls{0};
};

// Every message costs exactly 100us one-way regardless of size; handler
// service is 10us. RTT through the worker: 100 (request) + 10 (service)
// + 100 (reply) = 210us.
sim::CostModel flat_model() {
  auto m = sim::CostModel::zero();
  m.net_latency_us = 100.0;
  m.handler_service_us = 10.0;
  return m;
}

constexpr double kRtt = 210.0;

Envelope request_to(ContextId src, ContextId dst, ByteWriter& req) {
  req.put_span<std::uint8_t>({});
  return Envelope::request(src, dst, MsgType::kDiffRequest, req);
}

struct Fixture {
  // Four contexts, one per node: every link is off-node at the flat cost.
  Fixture() : router({0, 1, 2, 3}, flat_model()) {
    for (ContextId c = 1; c < 4; ++c) router.bind_handler(c, &echo[c]);
    qt = std::make_unique<QueuedTransport>(
        std::make_unique<InlineTransport>(router), router);
  }
  Router router;
  CountingEcho echo[4];
  std::unique_ptr<QueuedTransport> qt;
};

TEST(QueuedTransport, ConcurrentRequestsCompleteAtMaxNotSum) {
  Fixture f;
  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);

  std::vector<PendingReply> pending;
  for (ContextId dst = 1; dst < 4; ++dst) {
    ByteWriter req;
    pending.push_back(f.qt->call_async(request_to(0, dst, req)));
  }
  for (auto& p : pending) (void)p.wait();

  // Three distinct destinations service in parallel: the issuing thread ends
  // one RTT later, not three.
  EXPECT_DOUBLE_EQ(clk.now_us(), kRtt);
}

TEST(QueuedTransport, SameDestinationSerializesService) {
  Fixture f;
  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);

  ByteWriter r1, r2;
  auto p1 = f.qt->call_async(request_to(0, 1, r1));
  auto p2 = f.qt->call_async(request_to(0, 1, r2));
  double c1 = 0, c2 = 0;
  (void)p1.wait_at(&c1);
  (void)p2.wait_at(&c2);

  // Both arrive at t=100 from the same source; the (src, dst) service
  // channel runs them back to back (one-SIGIO-at-a-time per requester), so
  // the second reply is one service time later.
  EXPECT_DOUBLE_EQ(c1, kRtt);
  EXPECT_DOUBLE_EQ(c2, kRtt + flat_model().handler_service_us);
}

TEST(QueuedTransport, CountersIdenticalToSynchronousPath) {
  Fixture sync_f, async_f;
  {
    sim::VirtualClock clk(0.0);
    sim::VirtualClock::Binder bind(&clk);
    ByteWriter req;
    (void)sync_f.qt->inner().call(request_to(0, 2, req));
  }
  {
    sim::VirtualClock clk(0.0);
    sim::VirtualClock::Binder bind(&clk);
    ByteWriter req;
    auto p = async_f.qt->call_async(request_to(0, 2, req));
    (void)p.wait();
  }
  const auto s = sync_f.router.snapshot();
  const auto a = async_f.router.snapshot();
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(a.v[c], s.v[c]) << counter_name(static_cast<Counter>(c));
}

TEST(QueuedTransport, DroppedHandleIsStillServicedAndAccounted) {
  Fixture f;
  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);
  {
    ByteWriter req;
    (void)f.qt->call_async(request_to(0, 3, req)); // handle dropped
  }
  f.qt->quiesce();
  EXPECT_EQ(f.echo[3].calls.load(), 1);
  // Both directions accounted: the request on the caller, the reply on the
  // servicing context.
  EXPECT_EQ(f.router.stats(0).get(Counter::kMsgsSent), 1u);
  EXPECT_EQ(f.router.stats(3).get(Counter::kMsgsSent), 1u);
}

// A mixed scripted workload produces bit-identical completion times and
// counters on every run: service order follows modeled arrival time with
// issue order as the tie-break, never host scheduling.
TEST(QueuedTransport, DeterministicAcrossRuns) {
  auto run = [] {
    Fixture f;
    sim::VirtualClock clk(0.0);
    sim::VirtualClock::Binder bind(&clk);
    std::vector<double> completions;
    std::vector<PendingReply> pending;
    for (int round = 0; round < 3; ++round) {
      for (ContextId dst = 1; dst < 4; ++dst) {
        ByteWriter req;
        pending.push_back(
            f.qt->call_async(request_to(0, (dst + round) % 3 + 1, req)));
      }
    }
    for (auto& p : pending) {
      double c = 0;
      (void)p.wait_at(&c);
      completions.push_back(c);
      clk.advance_to(c);
    }
    f.qt->quiesce();
    return std::make_pair(completions, f.router.snapshot());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(a.second.v[c], b.second.v[c])
        << counter_name(static_cast<Counter>(c));
}

// Perturbation composes with the async path: jitter delays the handle's
// completion (the destination's service clock is untouched), duplicates
// re-run the handler and are fully accounted after quiesce().
TEST(QueuedTransport, PerturbedAsyncJitterAndDuplicates) {
  Fixture f;
  PerturbOptions po;
  po.enabled = true;
  po.seed = 7;
  po.jitter_max_us = 25.0;
  po.duplicate_prob = 1.0;
  po.reorder_prob = 0;
  PerturbingTransport pt(std::move(f.qt), f.router, po);

  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);
  ByteWriter req;
  auto p = pt.call_async(request_to(0, 1, req));
  double c = 0;
  (void)p.wait_at(&c);
  EXPECT_GE(c, kRtt); // jitter only ever delays
  pt.quiesce();
  EXPECT_EQ(f.echo[1].calls.load(), 2); // the injected duplicate ran too
  EXPECT_EQ(pt.stats().duplicates, 1u);
}

// Over a synchronous inner transport call_async has nothing to overlap, so
// it runs each exchange as call() does: jitter adds to the caller's clock
// once per exchange. A max over the two completions would leave the caller
// at 426.13 us here instead of 431.71 us.
TEST(PerturbingTransport, AsyncOverInlineChargesLikeCall) {
  auto run = [](bool async) {
    Router router({0, 1, 2, 3}, flat_model());
    CountingEcho echo;
    router.bind_handler(1, &echo);
    PerturbOptions po;
    po.enabled = true;
    po.seed = 11;
    po.jitter_max_us = 25.0;
    po.duplicate_prob = 0;
    po.reorder_prob = 0;
    PerturbingTransport pt(std::make_unique<InlineTransport>(router), router,
                           po);
    sim::VirtualClock clk(0.0);
    sim::VirtualClock::Binder bind(&clk);
    ByteWriter r1, r2;
    if (async) {
      auto p1 = pt.call_async(request_to(0, 1, r1));
      auto p2 = pt.call_async(request_to(0, 1, r2));
      (void)p1.wait();
      (void)p2.wait();
    } else {
      (void)pt.call(request_to(0, 1, r1));
      (void)pt.call(request_to(0, 1, r2));
    }
    return clk.now_us();
  };
  const double sync_us = run(false);
  EXPECT_NEAR(sync_us, 431.71, 0.01);
  EXPECT_DOUBLE_EQ(run(true), sync_us);
}

// Regression (ordering): an injected duplicate models a RETRANSMISSION of
// its primary, so it must be serviced behind the primary on the (src,dst)
// channel. The old path issued the duplicate as a fresh call_async, whose
// recomputed arrival and unrelated global issue seq left nothing pinning it
// behind the primary; call_async_with_dups enqueues both in one critical
// section with consecutive seqs and arrival >= primary.
TEST(QueuedTransport, InjectedDuplicatesServiceBehindTheirPrimary) {
  trace::Options topt;
  topt.enabled = true;
  trace::Tracer tracer(topt);
  ASSERT_TRUE(tracer.install());

  Fixture f;
  PerturbOptions po;
  po.enabled = true;
  po.seed = 7;
  po.jitter_max_us = 0;
  po.duplicate_prob = 1.0;
  po.reorder_prob = 0;
  PerturbingTransport pt(std::move(f.qt), f.router, po);

  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);
  ByteWriter req;
  auto p = pt.call_async(request_to(0, 1, req));
  (void)p.wait();
  pt.quiesce();

  // The reply-side kMessage events (ctx 1) are emitted at modeled service
  // completion; the duplicate's carries kFlagPerturbed.
  double primary_ts = -1, dup_ts = -1;
  for (const auto& e : tracer.snapshot_events()) {
    if (e.kind != trace::EventKind::kMessage || e.ctx != 1) continue;
    if (e.flags & trace::kFlagPerturbed)
      dup_ts = e.ts_us;
    else
      primary_ts = e.ts_us;
  }
  tracer.uninstall();
  ASSERT_GE(primary_ts, 0.0);
  ASSERT_GE(dup_ts, 0.0);
  // Primary first, the duplicate queues behind it on the channel — never
  // ahead, exactly one service time later.
  EXPECT_GT(dup_ts, primary_ts);
  EXPECT_DOUBLE_EQ(dup_ts, primary_ts + flat_model().handler_service_us);
}

// Loss composes with the async path: a pre-drawn schedule accounts lost
// copies at issue, folds the modeled RTO into the reply's completion time
// (the retransmit timer runs concurrently with the caller), and re-services
// retransmissions as riders behind the primary; quiesce() drains them.
TEST(QueuedTransport, LossyAsyncFoldsRtoIntoCompletionAndDrains) {
  auto m = flat_model();
  m.rto_us = 1000.0;
  m.rto_backoff = 2.0;
  Router router({0, 1, 2, 3}, m);
  CountingEcho echo;
  router.bind_handler(1, &echo);
  auto qt = std::make_unique<QueuedTransport>(
      std::make_unique<InlineTransport>(router), router);
  PerturbOptions po;
  po.enabled = true;
  po.seed = 5;
  po.jitter_max_us = 0;
  po.duplicate_prob = 0;
  po.reorder_prob = 0;
  po.drop_first = true;
  PerturbingTransport pt(std::move(qt), router, po);

  sim::VirtualClock clk(0.0);
  sim::VirtualClock::Binder bind(&clk);
  ByteWriter req;
  auto p = pt.call_async(request_to(0, 1, req));
  double c = 0;
  (void)p.wait_at(&c);
  pt.quiesce();

  // drop_first: first request copy lost (RTO 1000), retransmission
  // delivered but its reply lost (RTO 2000, handler re-runs via a rider),
  // third copy's round trip completes — the reply lands one RTT plus both
  // timeouts after issue.
  EXPECT_DOUBLE_EQ(c, kRtt + 3000.0);
  EXPECT_EQ(echo.calls.load(), 2); // primary + retransmission rider
  const auto s = router.snapshot();
  EXPECT_EQ(s[Counter::kRetransmits], 2u);
  EXPECT_EQ(s[Counter::kMsgsLost], 2u);
  // Never hangs: exhausting the cap throws at issue time.
  po.max_retries = 0;
  PerturbingTransport dead(std::make_unique<InlineTransport>(router), router,
                           po);
  ByteWriter req2;
  EXPECT_THROW((void)dead.call_async(request_to(0, 1, req2)), TransportError);
}

} // namespace
} // namespace omsp::net
