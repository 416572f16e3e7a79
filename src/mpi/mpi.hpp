// Mini-MPI: the message-passing baseline of the paper's evaluation.
//
// The paper compares TreadMarks against MPICH, whose shared-memory device
// makes intra-node messages cheap; Table 2 therefore reports both total and
// off-node traffic for MPI. This library reproduces that cost structure on
// the simulated cluster: every rank is a thread, sends are eager (buffered),
// and each message is accounted and charged through the same
// Router/Topology/CostModel stack as the DSM. A message's cost is the sum of
// the topology stages on the src->dst path (intra-node traffic crosses only
// the shared-memory stage; switch traffic pays each network tier it
// traverses), and Table 2's off-node split counts exactly the messages whose
// path rises above the node stage.
//
// Collectives default to the classic MPICH algorithms of the era:
// dissemination barrier, binomial-tree bcast/reduce, pairwise alltoall,
// binomial gather — so message *counts* scale the way the paper's MPI
// columns do. Allreduce is a fused star/tree (partials combine on the way up
// to rank 0, the result returns down the same schedule) rather than a
// chained reduce+bcast, which halves its latency at identical message count.
// Under coll::Options tree mode (`coll=tree` in OMSP_CONFIG, or
// MpiWorld::set_coll), barrier/bcast/reduce/allreduce instead follow the
// hierarchical coll::Schedule derived from the topology — the same engine
// the DSM barrier uses — with the flat-vs-tree switchover by payload size and
// segment-pipelined tree broadcasts, so the MPI baseline stays an honest
// comparison at large node counts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "net/collective.hpp"
#include "net/router.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "sim/virtual_clock.hpp"

namespace omsp::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class Comm;

class MpiWorld {
public:
  MpiWorld(sim::Topology topo, sim::CostModel cost);
  // With fault injection: when `perturb.enabled`, wraps the transport in a
  // PerturbingTransport (seeded jitter/duplication/loss + the reliable-
  // delivery layer). Loss-only options (jitter/dup/reorder zeroed) keep
  // makespans a pure function of the seed for named-source programs: loss
  // schedules are drawn from per-link split streams, never host order.
  MpiWorld(sim::Topology topo, sim::CostModel cost,
           const net::PerturbOptions& perturb);
  ~MpiWorld();

  MpiWorld(const MpiWorld&) = delete;
  MpiWorld& operator=(const MpiWorld&) = delete;

  // Run fn on every rank (spawns size() threads and joins them).
  void run(const std::function<void(Comm&)>& fn);

  int size() const { return static_cast<int>(topo_.nprocs()); }
  const sim::Topology& topology() const { return topo_; }
  net::Router& router() { return *router_; }
  StatsSnapshot stats() const { return router_->snapshot(); }
  void reset_stats() { router_->reset_stats(); }

  // Virtual makespan of the last run(): max over ranks of their final clock.
  double makespan_us() const { return makespan_us_; }

  // Collective engine selection (OMSP_CONFIG's `coll` key at construction).
  // Explicit override for tests and benches; call before run().
  void set_coll(const coll::Options& opts) { coll_ = opts; }
  const coll::Options& coll() const { return coll_; }

private:
  friend class Comm;

  struct Message {
    int src;
    int tag;
    std::vector<std::uint8_t> payload;
    double arrive_time_us;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  sim::Topology topo_;
  std::unique_ptr<net::Router> router_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  coll::Options coll_;
  double makespan_us_ = 0;
};

// Per-rank communicator handle; passed to the rank function by run().
class Comm {
public:
  Comm(MpiWorld& world, int rank, sim::VirtualClock& clock)
      : world_(world), rank_(rank), clock_(clock) {}

  int rank() const { return rank_; }
  int size() const { return world_.size(); }
  sim::VirtualClock& clock() { return clock_; }

  // --- point to point ---------------------------------------------------------
  // Eager (buffered) send: copies the payload, accounts/charges the message,
  // returns immediately — MPICH's eager protocol for the paper's message
  // sizes.
  void send(int dst, int tag, const void* data, std::size_t bytes);
  // Blocking receive with (src, tag) matching; kAnySource/kAnyTag wildcard.
  // Returns the actual byte count (must fit in `bytes`); out_src reports the
  // matched sender when non-null.
  std::size_t recv(int src, int tag, void* data, std::size_t bytes,
                   int* out_src = nullptr);
  // Combined exchange (no deadlock regardless of order).
  void sendrecv(int dst, int send_tag, const void* send_data,
                std::size_t send_bytes, int src, int recv_tag, void* recv_data,
                std::size_t recv_bytes);

  // --- nonblocking point-to-point ----------------------------------------------
  // Isend completes immediately (eager buffered send, like MPICH's short
  // protocol); Irecv registers interest and wait() blocks until the matching
  // message arrives and is copied out.
  struct Request {
    bool is_recv = false;
    bool done = false;
    int src = kAnySource;
    int tag = kAnyTag;
    void* buffer = nullptr;
    std::size_t capacity = 0;
    std::size_t received = 0;
  };

  Request isend(int dst, int tag, const void* data, std::size_t bytes) {
    send(dst, tag, data, bytes);
    Request r;
    r.done = true;
    return r;
  }

  Request irecv(int src, int tag, void* data, std::size_t bytes) {
    Request r;
    r.is_recv = true;
    r.src = src;
    r.tag = tag;
    r.buffer = data;
    r.capacity = bytes;
    return r;
  }

  // Block until the request completes; returns bytes received for receives.
  std::size_t wait(Request& r) {
    if (!r.done && r.is_recv) {
      r.received = recv(r.src, r.tag, r.buffer, r.capacity);
      r.done = true;
    }
    return r.received;
  }

  void waitall(std::vector<Request>& rs) {
    for (auto& r : rs) wait(r);
  }

  template <typename T> void send_n(int dst, int tag, const T* data, std::size_t n) {
    send(dst, tag, data, n * sizeof(T));
  }
  template <typename T> void recv_n(int src, int tag, T* data, std::size_t n) {
    const std::size_t got = recv(src, tag, data, n * sizeof(T));
    OMSP_CHECK(got == n * sizeof(T));
  }

  // --- collectives -------------------------------------------------------------
  void barrier();
  void bcast(int root, void* data, std::size_t bytes);
  template <typename T> void bcast_n(int root, T* data, std::size_t n) {
    bcast(root, data, n * sizeof(T));
  }

  // Element-wise reduce of inout[0..n) to the root (binomial tree by
  // default, the hierarchical schedule in tree mode).
  template <typename T, typename Op>
  void reduce(int root, T* inout, std::size_t n, Op op) {
    reduce_impl(root, inout, n, sizeof(T), combine_fn<T, Op>(op));
  }

  // Fused allreduce: partials combine up the schedule to rank 0 and the
  // result returns down the same schedule in one pass — 2(p−1) messages
  // like reduce+bcast, at the latency of a single traversal each way.
  template <typename T, typename Op>
  void allreduce(T* inout, std::size_t n, Op op) {
    allreduce_impl(inout, n, sizeof(T), combine_fn<T, Op>(op));
  }

  // Pairwise exchange: send[r*count..] of each rank lands in recv[me*count..]
  // of rank r.
  template <typename T>
  void alltoall(const T* send_buf, T* recv_buf, std::size_t count) {
    const int p = size();
    std::memcpy(recv_buf + rank_ * count, send_buf + rank_ * count,
                count * sizeof(T));
    for (int step = 1; step < p; ++step) {
      const int dst = (rank_ + step) % p;
      const int src = (rank_ - step + p) % p;
      sendrecv(dst, kTagAlltoall, send_buf + dst * count, count * sizeof(T),
               src, kTagAlltoall, recv_buf + src * count, count * sizeof(T));
    }
  }

  // Variable-size pairwise exchange: send `send_counts[r]` elements starting
  // at send_offsets[r] to rank r; receive into recv_offsets[s].
  template <typename T>
  void alltoallv(const T* send_buf, const std::size_t* send_counts,
                 const std::size_t* send_offsets, T* recv_buf,
                 const std::size_t* recv_counts,
                 const std::size_t* recv_offsets) {
    const int p = size();
    std::memcpy(recv_buf + recv_offsets[rank_], send_buf + send_offsets[rank_],
                send_counts[rank_] * sizeof(T));
    for (int step = 1; step < p; ++step) {
      const int dst = (rank_ + step) % p;
      const int src = (rank_ - step + p) % p;
      send(dst, kTagAlltoall, send_buf + send_offsets[dst],
           send_counts[dst] * sizeof(T));
      const std::size_t got = recv(src, kTagAlltoall,
                                   recv_buf + recv_offsets[src],
                                   recv_counts[src] * sizeof(T));
      OMSP_CHECK(got == recv_counts[src] * sizeof(T));
    }
  }

  // Binomial-tree gather of per-rank blocks (count elements each) to root.
  template <typename T>
  void gather(int root, const T* send_buf, T* recv_buf, std::size_t count) {
    gather_impl(root, send_buf, recv_buf, count * sizeof(T));
  }

  template <typename T>
  void allgather(const T* send_buf, T* recv_buf, std::size_t count) {
    gather(0, send_buf, recv_buf, count);
    bcast(0, recv_buf, count * sizeof(T) * static_cast<std::size_t>(size()));
  }

  // Root distributes block r of send_buf to rank r (linear scatter, like
  // early MPICH's MPI_Scatter for small communicators).
  template <typename T>
  void scatter(int root, const T* send_buf, T* recv_buf, std::size_t count) {
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r == root)
          std::memcpy(recv_buf, send_buf + r * count, count * sizeof(T));
        else
          send(r, kTagScatter, send_buf + r * count, count * sizeof(T));
      }
    } else {
      recv(root, kTagScatter, recv_buf, count * sizeof(T));
    }
  }

  // Inclusive prefix scan: recv_buf = op over ranks 0..me of send values
  // (linear pipeline, matching MPI_Scan's semantics).
  template <typename T, typename Op>
  void scan(const T* send_buf, T* recv_buf, std::size_t n, Op op) {
    if (rank_ == 0) {
      std::memcpy(recv_buf, send_buf, n * sizeof(T));
    } else {
      recv(rank_ - 1, kTagScan, recv_buf, n * sizeof(T));
      for (std::size_t i = 0; i < n; ++i)
        recv_buf[i] = op(recv_buf[i], send_buf[i]);
    }
    if (rank_ + 1 < size()) send(rank_ + 1, kTagScan, recv_buf, n * sizeof(T));
  }

private:
  static constexpr int kTagBarrier = -100;
  static constexpr int kTagBcast = -101;
  static constexpr int kTagReduce = -102;
  static constexpr int kTagAlltoall = -103;
  static constexpr int kTagGather = -104;
  static constexpr int kTagScatter = -105;
  static constexpr int kTagScan = -106;

  using CombineFn = std::function<void(void*, const void*, std::size_t)>;
  template <typename T, typename Op> static CombineFn combine_fn(Op op) {
    return [op](void* a, const void* b, std::size_t count) {
      T* ta = static_cast<T*>(a);
      const T* tb = static_cast<const T*>(b);
      for (std::size_t i = 0; i < count; ++i) ta[i] = op(ta[i], tb[i]);
    };
  }

  void reduce_impl(int root, void* inout, std::size_t n, std::size_t elem,
                   const CombineFn& combine);
  void allreduce_impl(void* inout, std::size_t n, std::size_t elem,
                      const CombineFn& combine);
  void gather_impl(int root, const void* send_buf, void* recv_buf,
                   std::size_t block_bytes);

  // --- hierarchical-collective machinery (coll::Schedule) --------------------
  bool tree_mode() const;
  // Schedule over root-relative members (member 0 = root) with each member
  // placed on its absolute rank's node; build() applies the flat-vs-tree
  // switchover for `payload_bytes`.
  coll::Schedule coll_schedule(int root, std::size_t payload_bytes) const;
  // Send one schedule edge: charges the sender's injection occupancy (so
  // consecutive fan-out sends serialize; zero with default cost knobs) and,
  // in tree mode, books the kCollStage event + coll_* counters.
  void coll_send(int dst, int tag, const void* data, std::size_t bytes,
                 std::uint32_t level, int leader);
  // Receiver-side fan-in serialization for one absorbed schedule message;
  // `level` is the topology stage the absorbed edge crossed.
  void coll_sink(std::size_t bytes, std::uint32_t level);
  void sched_barrier();
  void sched_bcast(int root, void* data, std::size_t bytes);
  void sched_reduce(int root, void* inout, std::size_t n, std::size_t elem,
                    const CombineFn& combine);

  MpiWorld& world_;
  int rank_;
  sim::VirtualClock& clock_;
};

} // namespace omsp::mpi
