#include "mpi/mpi.hpp"

#include <algorithm>

#include "common/env_config.hpp"
#include "net/message.hpp"
#include "trace/tracer.hpp"

namespace omsp::mpi {

MpiWorld::MpiWorld(sim::Topology topo, sim::CostModel cost)
    : MpiWorld(std::move(topo), cost, net::PerturbOptions{}) {}

MpiWorld::MpiWorld(sim::Topology topo, sim::CostModel cost,
                   const net::PerturbOptions& perturb)
    : topo_(std::move(topo)) {
  std::vector<NodeId> rank_node(topo_.nprocs());
  for (Rank r = 0; r < topo_.nprocs(); ++r)
    rank_node[r] = topo_.node_of_rank(r);
  router_ = std::make_unique<net::Router>(std::move(rank_node), cost, topo_);
  if (perturb.enabled) {
    router_->set_transport(std::make_unique<net::PerturbingTransport>(
        std::make_unique<net::InlineTransport>(*router_), *router_, perturb));
  }
  mailboxes_.resize(topo_.nprocs());
  for (auto& m : mailboxes_) m = std::make_unique<Mailbox>();
  // The `coll` key of OMSP_CONFIG selects the collective engine code-free,
  // mirroring the DSM side; set_coll() overrides explicitly before run().
  if (const char* spec = env_config(); spec != nullptr)
    for (const ConfigEntry& e : split_config(spec))
      if (e.key == "coll") coll_ = parse_config_value(e, coll::Options::parse);
}

MpiWorld::~MpiWorld() = default;

void MpiWorld::run(const std::function<void(Comm&)>& fn) {
  const int p = size();
  std::vector<double> final_times(p, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      trace::Tracer::bind_thread(static_cast<std::uint32_t>(r));
      sim::VirtualClock clock(router_->model().cpu_scale);
      sim::VirtualClock::Binder bind(&clock);
      Comm comm(*this, r, clock);
      fn(comm);
      clock.sync_cpu();
      final_times[r] = clock.now_us();
    });
  }
  for (auto& t : threads) t.join();
  makespan_us_ = *std::max_element(final_times.begin(), final_times.end());
  // Drop any stray messages so a world can be reused.
  for (auto& m : mailboxes_) {
    std::lock_guard<std::mutex> lk(m->mutex);
    OMSP_CHECK_MSG(m->queue.empty(), "unreceived MPI messages at exit");
  }
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  OMSP_CHECK(dst >= 0 && dst < size());
  clock_.sync_cpu();
  // notify_ex separates the arrival-relevant delivery cost (base + any
  // perturbation jitter/holdback) from a duplicate's wire cost: the dup is
  // absorbed by the reliability layer, so it is accounted (counters, trace)
  // but never delays or re-delivers the application payload.
  const net::Delivery d = world_.router_->transport().notify_ex(
      net::Envelope::notice(static_cast<ContextId>(rank_),
                            static_cast<ContextId>(dst),
                            net::MsgType::kMpiData, bytes));
  MpiWorld::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.payload.assign(static_cast<const std::uint8_t*>(data),
                     static_cast<const std::uint8_t*>(data) + bytes);
  msg.arrive_time_us = clock_.now_us() + d.cost_us;
  auto& box = *world_.mailboxes_[dst];
  {
    std::lock_guard<std::mutex> lk(box.mutex);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
  clock_.skip_cpu();
}

std::size_t Comm::recv(int src, int tag, void* data, std::size_t bytes,
                       int* out_src) {
  clock_.sync_cpu();
  auto& box = *world_.mailboxes_[rank_];
  std::unique_lock<std::mutex> lk(box.mutex);
  MpiWorld::Message msg;
  for (;;) {
    // Candidates are each source's FIRST matching message (MPI's
    // non-overtaking guarantee is per (src, tag) pair); among those the
    // earliest modeled arrival wins. With the perturbation schedule threaded
    // into arrive_time_us this is the order a jittery wire would actually
    // deliver wildcard receives in; with the default transport and a named
    // source it degenerates to plain FIFO.
    auto best = box.queue.end();
    std::vector<int> seen_src;
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (!((src == kAnySource || it->src == src) &&
            (tag == kAnyTag || it->tag == tag)))
        continue;
      if (std::find(seen_src.begin(), seen_src.end(), it->src) !=
          seen_src.end())
        continue;
      seen_src.push_back(it->src);
      if (best == box.queue.end() ||
          it->arrive_time_us < best->arrive_time_us)
        best = it;
    }
    if (best != box.queue.end()) {
      msg = std::move(*best);
      box.queue.erase(best);
      break;
    }
    box.cv.wait(lk);
  }
  lk.unlock();
  OMSP_CHECK_MSG(msg.payload.size() <= bytes, "recv buffer too small");
  std::memcpy(data, msg.payload.data(), msg.payload.size());
  if (out_src != nullptr) *out_src = msg.src;
  clock_.advance_to(msg.arrive_time_us);
  clock_.skip_cpu();
  return msg.payload.size();
}

void Comm::sendrecv(int dst, int send_tag, const void* send_data,
                    std::size_t send_bytes, int src, int recv_tag,
                    void* recv_data, std::size_t recv_bytes) {
  // Eager sends cannot deadlock, so a simple send-then-recv suffices.
  send(dst, send_tag, send_data, send_bytes);
  recv(src, recv_tag, recv_data, recv_bytes);
}

void Comm::barrier() {
  if (tree_mode()) {
    sched_barrier();
    return;
  }
  // Dissemination barrier: ceil(log2 p) rounds, one send+recv per round.
  const int p = size();
  char token = 0;
  for (int round = 1; round < p; round <<= 1) {
    const int dst = (rank_ + round) % p;
    const int src = (rank_ - round % p + p) % p;
    sendrecv(dst, kTagBarrier, &token, 1, src, kTagBarrier, &token, 1);
  }
}

void Comm::bcast(int root, void* data, std::size_t bytes) {
  if (tree_mode()) {
    sched_bcast(root, data, bytes);
    return;
  }
  // Binomial tree rooted at `root`; relative ranks linearize the tree.
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  // Receive from parent (highest set bit of rel).
  if (rel != 0) {
    int mask = 1;
    while (mask * 2 <= rel) mask <<= 1;
    const int parent = (rel - mask + root) % p;
    recv(parent, kTagBcast, data, bytes);
  }
  // Forward to children.
  int mask = 1;
  while (mask <= rel) mask <<= 1;
  for (; rel + mask < p; mask <<= 1) {
    const int child = (rel + mask + root) % p;
    send(child, kTagBcast, data, bytes);
  }
}

void Comm::reduce_impl(int root, void* inout, std::size_t n, std::size_t elem,
                       const CombineFn& combine) {
  if (tree_mode()) {
    sched_reduce(root, inout, n, elem, combine);
    return;
  }
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  const std::size_t bytes = n * elem;
  std::vector<std::uint8_t> scratch(bytes);
  // Binomial tree: gather partial results toward relative rank 0.
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((rel & mask) != 0) {
      const int parent = (rel & ~mask) ;
      send((parent + root) % p, kTagReduce, inout, bytes);
      return;
    }
    if (rel + mask < p) {
      recv((rel + mask + root) % p, kTagReduce, scratch.data(), bytes);
      combine(inout, scratch.data(), n);
    }
  }
}

void Comm::gather_impl(int root, const void* send_buf, void* recv_buf,
                       std::size_t block_bytes) {
  // Binomial gather: each subtree owner accumulates a contiguous run of
  // relative-rank blocks and ships it up in one message.
  const int p = size();
  const int rel = (rank_ - root + p) % p;
  std::vector<std::uint8_t> agg(block_bytes * static_cast<std::size_t>(p));
  std::memcpy(agg.data(), send_buf, block_bytes);
  std::size_t have = 1; // blocks held: rel .. rel+have-1 (relative)
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((rel & mask) != 0) {
      const int parent = (rel & ~mask);
      send((parent + root) % p, kTagGather, agg.data(), have * block_bytes);
      have = 0;
      break;
    }
    if (rel + mask < p) {
      const std::size_t child_blocks =
          std::min<std::size_t>(mask, static_cast<std::size_t>(p - rel - mask));
      recv((rel + mask + root) % p, kTagGather,
           agg.data() + have * block_bytes, child_blocks * block_bytes);
      have += child_blocks;
    }
  }
  if (rel == 0) {
    // Unrotate the relative layout into absolute rank order.
    auto* out = static_cast<std::uint8_t*>(recv_buf);
    for (int rr = 0; rr < p; ++rr) {
      const int abs = (rr + root) % p;
      std::memcpy(out + static_cast<std::size_t>(abs) * block_bytes,
                  agg.data() + static_cast<std::size_t>(rr) * block_bytes,
                  block_bytes);
    }
  }
}

// --- hierarchical collectives (coll::Schedule) -------------------------------

bool Comm::tree_mode() const { return world_.coll_.tree; }

coll::Schedule Comm::coll_schedule(int root, std::size_t payload_bytes) const {
  // Members are root-relative ranks so member 0 is the root, while each
  // member keeps its absolute rank's node placement — the tree follows the
  // real machine hierarchy for any root.
  const int p = size();
  return coll::Schedule::build(
      world_.topo_, static_cast<std::uint32_t>(p), payload_bytes,
      world_.coll_, [this, root, p](std::uint32_t m) {
        return world_.topo_.node_of_rank(
            static_cast<Rank>((static_cast<int>(m) + root) % p));
      });
}

void Comm::coll_send(int dst, int tag, const void* data, std::size_t bytes,
                     std::uint32_t level, int leader) {
  const std::size_t wire = bytes + net::kHeaderBytes;
  // Injection serialization: consecutive fan-out sends from one member
  // queue behind each other's wire occupancy (zero with the default cost
  // knobs), at the rate of the stage the schedule edge crosses. Charged
  // before the send so later children's arrivals include every earlier
  // sibling's occupancy.
  clock_.charge(world_.topo_.stage_occupancy_us(world_.router_->model(),
                                                level, wire));
  send(dst, tag, data, bytes);
  if (tree_mode())
    world_.router_->account_coll_stage(static_cast<ContextId>(rank_), level,
                                       static_cast<ContextId>(leader), wire);
}

void Comm::coll_sink(std::size_t bytes, std::uint32_t level) {
  // Fan-in serialization: a leader absorbs one child message per occupancy
  // window on its downlink, at the rate of the stage that edge crosses.
  clock_.charge(world_.topo_.stage_occupancy_us(
      world_.router_->model(), level, bytes + net::kHeaderBytes));
}

void Comm::sched_barrier() {
  // Control message: always the full hierarchy tree, regardless of the
  // flat-vs-tree payload switchover.
  const int p = size();
  const coll::Schedule sched = coll::Schedule::tree(
      world_.topo_, static_cast<std::uint32_t>(p), [this](std::uint32_t m) {
        return world_.topo_.node_of_rank(static_cast<Rank>(m));
      });
  const auto me = static_cast<std::uint32_t>(rank_);
  char token = 0;
  for (const std::uint32_t child : sched.children(me)) {
    recv(static_cast<int>(child), kTagBarrier, &token, 1);
    coll_sink(1, sched.level(child));
  }
  const int parent = sched.parent(me);
  if (parent >= 0) {
    coll_send(parent, kTagBarrier, &token, 1, sched.level(me), parent);
    recv(parent, kTagBarrier, &token, 1);
  }
  for (const std::uint32_t child : sched.children(me)) {
    coll_send(static_cast<int>(child), kTagBarrier, &token, 1,
              sched.level(child), rank_);
  }
}

void Comm::sched_bcast(int root, void* data, std::size_t bytes) {
  const int p = size();
  const coll::Schedule sched = coll_schedule(root, bytes);
  const auto me = static_cast<std::uint32_t>((rank_ - root + p) % p);
  const auto abs = [root, p](std::uint32_t m) {
    return (static_cast<int>(m) + root) % p;
  };
  const int parent = sched.parent(me);
  auto* buf = static_cast<std::uint8_t*>(data);
  // Pipelined segments: a member forwards segment s while segment s+1 is
  // still in flight to it, so deep trees stream instead of
  // store-and-forwarding the whole payload per level.
  const std::size_t seg = std::max<std::size_t>(1, world_.coll_.segment_bytes);
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(seg, bytes - off);
    if (parent >= 0) recv(abs(static_cast<std::uint32_t>(parent)),
                          kTagBcast, buf + off, len);
    for (const std::uint32_t child : sched.children(me)) {
      coll_send(abs(child), kTagBcast, buf + off, len, sched.level(child),
                rank_);
    }
    off += seg;
  } while (off < bytes);
}

void Comm::sched_reduce(int root, void* inout, std::size_t n,
                        std::size_t elem, const CombineFn& combine) {
  const int p = size();
  const std::size_t bytes = n * elem;
  const coll::Schedule sched = coll_schedule(root, bytes);
  const auto me = static_cast<std::uint32_t>((rank_ - root + p) % p);
  const auto abs = [root, p](std::uint32_t m) {
    return (static_cast<int>(m) + root) % p;
  };
  std::vector<std::uint8_t> scratch(bytes);
  for (const std::uint32_t child : sched.children(me)) {
    recv(abs(child), kTagReduce, scratch.data(), bytes);
    coll_sink(bytes, sched.level(child));
    combine(inout, scratch.data(), n);
  }
  const int parent = sched.parent(me);
  if (parent >= 0) {
    coll_send(abs(static_cast<std::uint32_t>(parent)), kTagReduce, inout,
              bytes, sched.level(me), abs(static_cast<std::uint32_t>(parent)));
  }
}

void Comm::allreduce_impl(void* inout, std::size_t n, std::size_t elem,
                          const CombineFn& combine) {
  // Fused one-pass allreduce through rank 0 (flat star in central mode or
  // below the switchover, the hierarchy tree above it): partials combine on
  // the way up, the result returns down the same schedule. Same 2(p−1)
  // message count as the old reduce-then-bcast pair, but one traversal of
  // latency each way instead of two chained binomial trees.
  const std::size_t bytes = n * elem;
  const coll::Schedule sched = coll_schedule(0, bytes);
  const auto me = static_cast<std::uint32_t>(rank_);
  std::vector<std::uint8_t> scratch(bytes);
  for (const std::uint32_t child : sched.children(me)) {
    recv(static_cast<int>(child), kTagReduce, scratch.data(), bytes);
    coll_sink(bytes, sched.level(child));
    combine(inout, scratch.data(), n);
  }
  const int parent = sched.parent(me);
  if (parent >= 0) {
    coll_send(parent, kTagReduce, inout, bytes, sched.level(me), parent);
    recv(parent, kTagBcast, inout, bytes);
  }
  for (const std::uint32_t child : sched.children(me)) {
    coll_send(static_cast<int>(child), kTagBcast, inout, bytes,
              sched.level(child), rank_);
  }
}

} // namespace omsp::mpi
