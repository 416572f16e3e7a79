// Mini-MPI correctness: point-to-point matching, every collective, traffic
// accounting split into total vs off-node.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "../common/env_guard.hpp"
#include "mpi/mpi.hpp"
#include "trace/sinks.hpp"
#include "trace/tracer.hpp"

namespace omsp::mpi {
namespace {

MpiWorld make_world(std::uint32_t nodes = 2, std::uint32_t ppn = 2) {
  return MpiWorld(sim::Topology(nodes, ppn), sim::CostModel::zero());
}

TEST(Mpi, SendRecvPingPong) {
  auto w = make_world();
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int x = 42;
      c.send(1, 7, &x, sizeof(x));
      int y = 0;
      c.recv(1, 8, &y, sizeof(y));
      EXPECT_EQ(y, 43);
    } else if (c.rank() == 1) {
      int x = 0;
      c.recv(0, 7, &x, sizeof(x));
      c.send(0, 8, &(++x), sizeof(x));
    }
  });
}

TEST(Mpi, TagMatchingOutOfOrder) {
  auto w = make_world();
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int a = 1, b = 2;
      c.send(1, 100, &a, sizeof(a));
      c.send(1, 200, &b, sizeof(b));
    } else if (c.rank() == 1) {
      int v = 0;
      c.recv(0, 200, &v, sizeof(v)); // match the second message first
      EXPECT_EQ(v, 2);
      c.recv(0, 100, &v, sizeof(v));
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Mpi, AnySourceReceivesAll) {
  auto w = make_world();
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int sum = 0;
      for (int i = 1; i < c.size(); ++i) {
        int v = 0;
        int src = -1;
        c.recv(kAnySource, 5, &v, sizeof(v), &src);
        EXPECT_EQ(v, src * 10);
        sum += v;
      }
      EXPECT_EQ(sum, 10 + 20 + 30);
    } else {
      int v = c.rank() * 10;
      c.send(0, 5, &v, sizeof(v));
    }
  });
}

TEST(Mpi, BarrierSynchronizes) {
  auto w = make_world();
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  w.run([&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    if (phase1.load() != c.size()) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

class MpiCollective : public ::testing::TestWithParam<int> {};

TEST_P(MpiCollective, BcastFromEveryRoot) {
  auto w = make_world();
  const int root = GetParam();
  w.run([&](Comm& c) {
    std::vector<double> buf(64, 0.0);
    if (c.rank() == root)
      for (int i = 0; i < 64; ++i) buf[i] = root * 100.0 + i;
    c.bcast(root, buf.data(), buf.size() * sizeof(double));
    for (int i = 0; i < 64; ++i) ASSERT_DOUBLE_EQ(buf[i], root * 100.0 + i);
  });
}

TEST_P(MpiCollective, ReduceSumToEveryRoot) {
  auto w = make_world();
  const int root = GetParam();
  w.run([&](Comm& c) {
    std::vector<long> v(10);
    for (int i = 0; i < 10; ++i) v[i] = c.rank() * 10 + i;
    c.reduce(root, v.data(), v.size(), std::plus<long>{});
    if (c.rank() == root) {
      // sum over ranks r of (10r + i) = 10*sum(r) + p*i
      const long p = c.size();
      const long rsum = p * (p - 1) / 2;
      for (int i = 0; i < 10; ++i) ASSERT_EQ(v[i], 10 * rsum + p * i);
    }
  });
}

TEST_P(MpiCollective, GatherToEveryRoot) {
  auto w = make_world();
  const int root = GetParam();
  w.run([&](Comm& c) {
    std::array<int, 3> mine{c.rank(), c.rank() * 2, c.rank() * 3};
    std::vector<int> all(3 * c.size(), -1);
    c.gather(root, mine.data(), all.data(), 3);
    if (c.rank() == root) {
      for (int r = 0; r < c.size(); ++r)
        for (int k = 0; k < 3; ++k) ASSERT_EQ(all[r * 3 + k], r * (k + 1));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Roots, MpiCollective, ::testing::Values(0, 1, 2, 3));

TEST(Mpi, Allreduce) {
  auto w = make_world();
  w.run([](Comm& c) {
    double v = static_cast<double>(c.rank() + 1);
    c.allreduce(&v, 1, std::plus<double>{});
    EXPECT_DOUBLE_EQ(v, 10.0); // 1+2+3+4
  });
}

TEST(Mpi, AllreduceMax) {
  auto w = make_world();
  w.run([](Comm& c) {
    int v = (c.rank() * 37) % 11;
    c.allreduce(&v, 1, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(v, std::max({0, 37 % 11, 74 % 11, 111 % 11}));
  });
}

TEST(Mpi, Alltoall) {
  auto w = make_world();
  w.run([](Comm& c) {
    const int p = c.size();
    std::vector<int> send(p * 2), recvd(p * 2, -1);
    for (int d = 0; d < p; ++d) {
      send[d * 2] = c.rank() * 100 + d;
      send[d * 2 + 1] = c.rank() * 100 + d + 50;
    }
    c.alltoall(send.data(), recvd.data(), 2);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recvd[s * 2], s * 100 + c.rank());
      ASSERT_EQ(recvd[s * 2 + 1], s * 100 + c.rank() + 50);
    }
  });
}

TEST(Mpi, Allgather) {
  auto w = make_world();
  w.run([](Comm& c) {
    double mine = c.rank() * 1.5;
    std::vector<double> all(c.size(), -1);
    c.allgather(&mine, all.data(), 1);
    for (int r = 0; r < c.size(); ++r) ASSERT_DOUBLE_EQ(all[r], r * 1.5);
  });
}

TEST(Mpi, TrafficSplitsOffNode) {
  // Topology (2 nodes x 2 procs): rank 0->1 intra-node, rank 0->2 inter-node.
  auto w = make_world();
  w.reset_stats();
  w.run([](Comm& c) {
    char b = 0;
    if (c.rank() == 0) {
      c.send(1, 1, &b, 1);
      c.send(2, 1, &b, 1);
    }
    if (c.rank() == 1) c.recv(0, 1, &b, 1);
    if (c.rank() == 2) c.recv(0, 1, &b, 1);
  });
  auto s = w.stats();
  EXPECT_EQ(s[Counter::kMsgsSent], 2u);
  EXPECT_EQ(s[Counter::kMsgsOffNode], 1u);
  EXPECT_GT(s[Counter::kBytesSent], s[Counter::kBytesOffNode]);
}

TEST(Mpi, MakespanReflectsCommunication) {
  MpiWorld w(sim::Topology(2, 1), sim::CostModel::sp2_default());
  w.run([](Comm& c) {
    std::vector<char> big(100000);
    if (c.rank() == 0) c.send(1, 1, big.data(), big.size());
    if (c.rank() == 1) c.recv(0, 1, big.data(), big.size());
  });
  // 100 KB at 35 B/us is ~2.9 ms plus latency.
  EXPECT_GT(w.makespan_us(), 2800.0);
}

TEST(Mpi, LargerWorldCollectives) {
  MpiWorld w(sim::Topology(4, 4), sim::CostModel::zero());
  w.run([](Comm& c) {
    long v = c.rank();
    c.allreduce(&v, 1, std::plus<long>{});
    EXPECT_EQ(v, 120); // 0+..+15
    c.barrier();
    std::vector<long> all(c.size());
    long mine = c.rank() * c.rank();
    c.allgather(&mine, all.data(), 1);
    for (int r = 0; r < c.size(); ++r) ASSERT_EQ(all[r], long{r} * r);
  });
}

} // namespace
} // namespace omsp::mpi

namespace omsp::mpi {
namespace {

TEST(MpiNonblocking, IrecvWaitMatches) {
  MpiWorld w(sim::Topology(2, 2), sim::CostModel::zero());
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int payload = 99;
      auto s = c.isend(1, 42, &payload, sizeof(payload));
      c.wait(s);
    } else if (c.rank() == 1) {
      int out = 0;
      auto r = c.irecv(0, 42, &out, sizeof(out));
      EXPECT_EQ(c.wait(r), sizeof(int));
      EXPECT_EQ(out, 99);
    }
  });
}

TEST(MpiNonblocking, WaitallDrainsSeveral) {
  MpiWorld w(sim::Topology(2, 2), sim::CostModel::zero());
  w.run([](Comm& c) {
    constexpr int kN = 5;
    if (c.rank() == 2) {
      for (int i = 0; i < kN; ++i) {
        int v = i * 3;
        c.send(3, 10 + i, &v, sizeof(v));
      }
    } else if (c.rank() == 3) {
      std::vector<int> vals(kN, -1);
      std::vector<Comm::Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(c.irecv(2, 10 + i, &vals[i], sizeof(int)));
      c.waitall(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(vals[i], i * 3);
    }
  });
}

TEST(MpiCollectiveExtra, ScatterDistributesBlocks) {
  MpiWorld w(sim::Topology(2, 2), sim::CostModel::zero());
  w.run([](Comm& c) {
    std::vector<int> all(c.size() * 2);
    for (int i = 0; i < c.size() * 2; ++i) all[i] = i * 7;
    std::array<int, 2> mine{-1, -1};
    c.scatter(1, all.data(), mine.data(), 2);
    EXPECT_EQ(mine[0], c.rank() * 2 * 7);
    EXPECT_EQ(mine[1], (c.rank() * 2 + 1) * 7);
  });
}

TEST(MpiCollectiveExtra, InclusiveScan) {
  MpiWorld w(sim::Topology(2, 2), sim::CostModel::zero());
  w.run([](Comm& c) {
    long v = c.rank() + 1; // 1, 2, 3, 4
    long out = 0;
    c.scan(&v, &out, 1, std::plus<long>{});
    long expect = 0;
    for (int r = 0; r <= c.rank(); ++r) expect += r + 1;
    EXPECT_EQ(out, expect);
  });
}

} // namespace
} // namespace omsp::mpi

namespace omsp::mpi {
namespace {

TEST(MpiCollectiveExtra, AlltoallvVariableBlocks) {
  MpiWorld w(sim::Topology(2, 2), sim::CostModel::zero());
  w.run([](Comm& c) {
    const int p = c.size();
    // Rank r sends (d + 1) ints to destination d: value = r*100 + d.
    std::vector<std::size_t> send_counts(p), send_offsets(p);
    std::vector<std::size_t> recv_counts(p), recv_offsets(p);
    std::size_t off = 0;
    for (int d = 0; d < p; ++d) {
      send_counts[d] = static_cast<std::size_t>(d + 1);
      send_offsets[d] = off;
      off += send_counts[d];
    }
    std::vector<int> send_buf(off);
    for (int d = 0; d < p; ++d)
      for (std::size_t k = 0; k < send_counts[d]; ++k)
        send_buf[send_offsets[d] + k] = c.rank() * 100 + d;
    // Everyone receives (me + 1) ints from each source.
    off = 0;
    for (int s = 0; s < p; ++s) {
      recv_counts[s] = static_cast<std::size_t>(c.rank() + 1);
      recv_offsets[s] = off;
      off += recv_counts[s];
    }
    std::vector<int> recv_buf(off, -1);
    c.alltoallv(send_buf.data(), send_counts.data(), send_offsets.data(),
                recv_buf.data(), recv_counts.data(), recv_offsets.data());
    for (int s = 0; s < p; ++s)
      for (std::size_t k = 0; k < recv_counts[s]; ++k)
        ASSERT_EQ(recv_buf[recv_offsets[s] + k], s * 100 + c.rank());
  });
}

TEST(MpiTopology, SpineHopsCostMoreThanFlat) {
  // Same program, same traffic, two machine shapes with 4 single-proc
  // nodes: a flat crossbar and a 2-level fat tree (2 nodes per edge
  // switch). Rank 0 -> 3 crosses the spine only in the fat tree, so its
  // makespan must be strictly larger; counters are shape-independent.
  // cpu_scale = 0: with host CPU folded into the clock the topology delta
  // (a few ms) would drown in scheduler noise.
  sim::CostModel m = sim::CostModel::sp2_default();
  m.cpu_scale = 0;
  auto run_shape = [&m](const sim::Topology& topo) {
    MpiWorld w(topo, m);
    w.run([](Comm& c) {
      std::vector<char> big(100000);
      if (c.rank() == 0) c.send(3, 1, big.data(), big.size());
      if (c.rank() == 3) c.recv(0, 1, big.data(), big.size());
    });
    return std::make_pair(w.makespan_us(), w.stats()[Counter::kMsgsOffNode]);
  };
  const auto [flat_us, flat_msgs] = run_shape(sim::Topology::flat_switch(4, 1));
  const auto [fat_us, fat_msgs] = run_shape(sim::Topology::fat_tree(2, 2, 1));
  EXPECT_EQ(flat_msgs, 1u);
  EXPECT_EQ(fat_msgs, 1u);
  EXPECT_GT(fat_us, flat_us);
  // The surcharge is exactly one extra edge hop plus the spine stage.
  const std::size_t wire = 100000 + net::kHeaderBytes;
  EXPECT_DOUBLE_EQ(
      fat_us - flat_us,
      sim::Topology::fat_tree(2, 2, 1).message_us(m, wire, 0, 3) -
          m.message_us(wire, false));
}

TEST(MpiTopology, EdgeLocalTrafficMatchesFlatCost) {
  // Within one edge group the fat tree prices messages exactly like the
  // flat switch (the edge tier inherits the net pair). cpu_scale = 0 so the
  // makespans are exact model outputs, comparable with EXPECT_DOUBLE_EQ.
  sim::CostModel m = sim::CostModel::sp2_default();
  m.cpu_scale = 0;
  auto run_shape = [&m](const sim::Topology& topo) {
    MpiWorld w(topo, m);
    w.run([](Comm& c) {
      std::vector<char> big(50000);
      if (c.rank() == 0) c.send(1, 1, big.data(), big.size());
      if (c.rank() == 1) c.recv(0, 1, big.data(), big.size());
    });
    return w.makespan_us();
  };
  EXPECT_DOUBLE_EQ(run_shape(sim::Topology::flat_switch(4, 1)),
                   run_shape(sim::Topology::fat_tree(2, 2, 1)));
}

TEST(MpiTopology, AsymmetricNodesClassifyTraffic) {
  // asym:2+1 -> ranks {0,1} on node 0, rank 2 alone on node 1.
  MpiWorld w(sim::Topology::asymmetric({2, 1}), sim::CostModel::zero());
  w.run([](Comm& c) {
    char b = 0;
    if (c.rank() == 0) {
      c.send(1, 1, &b, 1);
      c.send(2, 1, &b, 1);
    }
    if (c.rank() == 1) c.recv(0, 1, &b, 1);
    if (c.rank() == 2) c.recv(0, 1, &b, 1);
  });
  auto s = w.stats();
  EXPECT_EQ(s[Counter::kMsgsSent], 2u);
  EXPECT_EQ(s[Counter::kMsgsOffNode], 1u);
}

TEST(MpiColl, FusedAllreduceFlatExactCost) {
  // The fused flat allreduce is one star traversal each way: leaves send at
  // t=0, the root absorbs the last arrival at h, combines, and fans the
  // result back out — every rank finishes at exactly 2h. The old
  // reduce-then-bcast chained two binomial trees (2 * ceil(log2 p) = 4
  // dependent hops for p=4), so this pins the latency halving.
  const test::ScopedEnvClear env_guard; // the CI matrix exports OMSP_CONFIG
  sim::CostModel m = sim::CostModel::sp2_default();
  m.cpu_scale = 0; // makespan is a pure model output
  const auto topo = sim::Topology::flat_switch(4, 1);
  const double h =
      topo.message_us(m, sizeof(double) + net::kHeaderBytes, 0, 1);
  MpiWorld w(topo, m);
  w.run([](Comm& c) {
    double v = static_cast<double>(c.rank() + 1);
    c.allreduce(&v, 1, std::plus<double>{});
    EXPECT_DOUBLE_EQ(v, 10.0);
  });
  EXPECT_DOUBLE_EQ(w.makespan_us(), 2 * h);
  // Star both ways: 2 * (p - 1) messages, same count as reduce + bcast.
  EXPECT_EQ(w.stats()[Counter::kMsgsSent], 6u);
}

TEST(MpiColl, ConfigCollKeySelectsEngine) {
  // MpiWorld reads only `coll` from OMSP_CONFIG; the DSM's keys in the same
  // string are validated but inert here.
  const test::ScopedEnvClear env_guard;
  ::setenv("OMSP_CONFIG", "race=page;coll=tree:2048", 1);
  const MpiWorld tree(sim::Topology::flat_switch(2, 2), sim::CostModel::zero());
  ::unsetenv("OMSP_CONFIG");
  EXPECT_TRUE(tree.coll().tree);
  EXPECT_EQ(tree.coll().flat_max_bytes, 2048u);
  const MpiWorld plain(sim::Topology::flat_switch(2, 2),
                       sim::CostModel::zero());
  EXPECT_FALSE(plain.coll().tree);
}

TEST(MpiColl, TreeCollectivesMatchValues) {
  // Every rewired collective must agree with the flat algorithms bit-for-bit
  // on values; flat_max_bytes = 0 forces the hierarchy for every payload.
  const test::ScopedEnvClear env_guard;
  coll::Options opts;
  opts.tree = true;
  opts.flat_max_bytes = 0;
  MpiWorld w(sim::Topology::fat_tree(2, 2, 2), sim::CostModel::zero());
  w.set_coll(opts);
  w.run([](Comm& c) {
    const int p = c.size();
    c.barrier();

    std::vector<double> buf(64, 0.0);
    if (c.rank() == 3)
      for (int i = 0; i < 64; ++i) buf[i] = 300.0 + i;
    c.bcast(3, buf.data(), buf.size() * sizeof(double));
    for (int i = 0; i < 64; ++i) ASSERT_DOUBLE_EQ(buf[i], 300.0 + i);

    std::vector<long> v(10);
    for (int i = 0; i < 10; ++i) v[i] = c.rank() * 10 + i;
    c.reduce(2, v.data(), v.size(), std::plus<long>{});
    if (c.rank() == 2) {
      const long rsum = long{p} * (p - 1) / 2;
      for (int i = 0; i < 10; ++i) ASSERT_EQ(v[i], 10 * rsum + p * i);
    }

    long a = c.rank() + 1;
    c.allreduce(&a, 1, std::plus<long>{});
    EXPECT_EQ(a, long{p} * (p + 1) / 2);

    std::vector<long> all(p, -1);
    long mine = long{c.rank()} * c.rank();
    c.allgather(&mine, all.data(), 1);
    for (int r = 0; r < p; ++r) ASSERT_EQ(all[r], long{r} * r);
  });
}

TEST(MpiColl, TreeBcastSegmentsLargePayload) {
  // Payloads above flat_max_bytes take the hierarchy in segment_bytes
  // slices; the reassembled buffer must be intact on every rank.
  const test::ScopedEnvClear env_guard;
  coll::Options opts;
  opts.tree = true;
  opts.flat_max_bytes = 1024;
  opts.segment_bytes = 4096;
  MpiWorld w(sim::Topology::fat_tree(2, 2, 2), sim::CostModel::zero());
  w.set_coll(opts);
  w.run([](Comm& c) {
    std::vector<int> buf(25000, -1); // 100 KB: 25 segments
    if (c.rank() == 5)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<int>(i * 3);
    c.bcast(5, buf.data(), buf.size() * sizeof(int));
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_EQ(buf[i], static_cast<int>(i * 3));
  });
}

TEST(MpiColl, TreeBarrierBeatsDisseminationOnFatTree) {
  // 32 ranks on fat:2x4x2: dissemination chains ceil(log2 32) = 5 rounds of
  // mostly spine-crossing exchanges; the hierarchical barrier crosses the
  // spine once up and once down. Strictly cheaper in modeled time.
  const test::ScopedEnvClear env_guard;
  sim::CostModel m = sim::CostModel::sp2_default();
  m.cpu_scale = 0;
  auto barrier_us = [&m](bool tree) {
    MpiWorld w(sim::Topology::fat_tree(2, 4, 2), m);
    coll::Options opts;
    opts.tree = tree;
    w.set_coll(opts);
    w.run([](Comm& c) { c.barrier(); });
    return w.makespan_us();
  };
  const double central = barrier_us(false);
  const double tree = barrier_us(true);
  EXPECT_LT(tree, central);
}

TEST(MpiColl, CollStageCountersGatedByMode) {
  // Central mode keeps the seed counter stream untouched; tree mode emits
  // one kCollStages tick (and the wire bytes) per schedule edge message.
  const test::ScopedEnvClear env_guard;
  auto run_mode = [](bool tree) {
    coll::Options opts;
    opts.tree = tree;
    opts.flat_max_bytes = 0;
    MpiWorld w(sim::Topology::fat_tree(2, 2, 2), sim::CostModel::zero());
    w.set_coll(opts);
    w.run([](Comm& c) {
      long v = c.rank();
      c.allreduce(&v, 1, std::plus<long>{});
    });
    return w.stats();
  };
  const auto central = run_mode(false);
  EXPECT_EQ(central[Counter::kCollStages], 0u);
  EXPECT_EQ(central[Counter::kCollBytes], 0u);
  const auto tree = run_mode(true);
  // Fused tree allreduce: p - 1 = 7 edges up, 7 down.
  EXPECT_EQ(tree[Counter::kCollStages], 14u);
  EXPECT_GT(tree[Counter::kCollBytes], 14u * net::kHeaderBytes);
}

// A traced MPI run names each rank's track after the rank, and its trace
// file is a function of the run: every rank thread's events are written in
// rank order, not in the order the host first ran the threads.
TEST(MpiTrace, RanksOwnTheirTracksAndTracesRepeat) {
  auto traced_run = [] {
    trace::Options topts;
    topts.enabled = true;
    trace::Tracer tracer(topts);
    EXPECT_TRUE(tracer.install());
    sim::CostModel m = sim::CostModel::sp2_default();
    m.cpu_scale = 0; // timestamps are modeled time only
    MpiWorld w(sim::Topology(2, 2), m);
    w.run([](Comm& c) {
      const int p = c.size();
      std::uint32_t tok = static_cast<std::uint32_t>(c.rank());
      for (int i = 0; i < 3; ++i)
        c.sendrecv((c.rank() + 1) % p, 5, &tok, sizeof(tok),
                   (c.rank() + p - 1) % p, 5, &tok, sizeof(tok));
      double x = c.rank();
      c.allreduce(&x, 1, std::plus<double>{});
      c.barrier();
    });
    const auto events = tracer.snapshot_events();
    tracer.uninstall();
    return std::pair{events, trace::encode_trace(events, 0, "", w.stats())};
  };
  const auto [events, bytes] = traced_run();
  std::size_t messages = 0;
  for (const trace::Event& e : events)
    if (e.kind == trace::EventKind::kMessage) {
      ++messages;
      EXPECT_EQ(e.rank, e.ctx);
    }
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(traced_run().second, bytes);
}

TEST(MpiLoss, SeededLossDeterministicMakespan) {
  // Loss-only fault injection over named-source traffic: per-link split RNG
  // streams make the retransmit schedule — and therefore the makespan — a
  // pure function of the seed. Two worlds, same seed: bit-identical.
  auto run_seeded = [](std::uint64_t seed) {
    net::PerturbOptions po;
    po.enabled = true;
    po.seed = seed;
    po.jitter_max_us = 0;
    po.duplicate_prob = 0;
    po.reorder_prob = 0;
    po.loss_prob = 0.25;
    sim::CostModel m = sim::CostModel::sp2_default();
    m.cpu_scale = 0; // keep the makespan a pure function of the seed
    MpiWorld w(sim::Topology::flat_switch(4, 2), m, po);
    w.run([](Comm& c) {
      // Ring of named sendrecvs: every link carries traffic.
      const int p = c.size();
      std::uint32_t tok = static_cast<std::uint32_t>(c.rank());
      for (int i = 0; i < 4; ++i)
        c.sendrecv((c.rank() + 1) % p, 5, &tok, sizeof(tok),
                   (c.rank() + p - 1) % p, 5, &tok, sizeof(tok));
    });
    return std::make_pair(w.makespan_us(), w.stats()[Counter::kRetransmits]);
  };
  const auto [t1, r1] = run_seeded(7);
  const auto [t2, r2] = run_seeded(7);
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1, 0u); // p=0.25 over 64+ deliveries: losses occur
}

TEST(MpiLoss, DropFirstForcesRetransmitOnEveryExchange) {
  net::PerturbOptions po;
  po.enabled = true;
  po.jitter_max_us = 0;
  po.duplicate_prob = 0;
  po.reorder_prob = 0;
  po.drop_first = true;
  MpiWorld w(sim::Topology(2, 1), sim::CostModel::sp2_default(), po);
  w.run([](Comm& c) {
    char b = 0;
    if (c.rank() == 0) c.send(1, 1, &b, 1);
    if (c.rank() == 1) c.recv(0, 1, &b, 1);
  });
  // drop_first drops the first copy in EACH direction: the notice itself
  // (retransmitted after one RTO) and then the first ack (the sender times
  // out again; the receiver suppresses the duplicate notice and re-acks).
  auto s = w.stats();
  EXPECT_EQ(s[Counter::kMsgsLost], 2u);
  EXPECT_EQ(s[Counter::kRetransmits], 2u);
  EXPECT_EQ(s[Counter::kAcksSent], 2u);
  EXPECT_GE(w.makespan_us(), sim::CostModel::sp2_default().rto_us);
}

} // namespace
} // namespace omsp::mpi
