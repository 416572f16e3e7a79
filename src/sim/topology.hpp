// Cluster topology: a declarative, hierarchical machine descriptor.
//
// The machine is an ordered stack of Stages, leaf-most first. Stage 0 is the
// intra-node shared-memory level (its fanout is processors per node); every
// stage i >= 1 is a network tier that groups the tier below it (nodes under
// an edge switch, edge switches under a spine, ...). Each stage carries its
// own {latency_us, bw_bytes_per_us, occupancy_us}. A message from node A to
// node B crosses the stages on the unique tree path between them — up
// through tiers 1..k-1, across the top tier k where the two leaves first
// share a group, back down through k-1..1 — and its one-way cost is the sum
// of the per-stage costs along that path (path_stages / message_us).
//
// Stage parameters default to Stage::kInherit, which resolves against the
// CostModel at costing time: stage 0 inherits the shm pair, stages >= 1 the
// net pair. CostModel::zero() and per-bench cost overrides therefore keep
// working for every preset that does not pin explicit per-tier numbers.
//
// The paper's platform (IBM SP2, 4 nodes x 4 PowerPC-604 processors) is the
// sp2() preset: two stages, node + switch, which reproduces the legacy
// binary intra/inter cost split bit-for-bit.
//
// A global Rank in [0, nprocs()) identifies one OpenMP/MPI worker. Ranks are
// laid out node-major: rank r runs on node r / procs_per_node, local
// processor r % procs_per_node (for asymmetric mixes, consecutive ranks fill
// each node before spilling to the next). This matches the paper's placement
// (block of consecutive ranks per node), which matters for SOR's observation
// that neighbouring ranks usually share a node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/cost_model.hpp"

namespace omsp::sim {

// One level of the machine hierarchy. `fanout` is how many units of the
// level below share one unit of this level (stage 0: procs per node; stage
// i >= 1: groups of stage i-1 per group of stage i). Latency/bandwidth left
// at kInherit resolve from the CostModel (stage 0 -> shm, others -> net);
// occupancy_us is an additive per-traversal surcharge, zero by default.
//
// The congestion triple (send_occupancy_us / occupancy_byte_us /
// link_contention_us) is per-stage as well: an edge NIC and a spine trunk
// queue their senders and saturate at independent rates. All three default
// to kInherit, which resolves to the CostModel's global scalars — so a
// topology that pins nothing behaves exactly as the pre-stage-aware model
// did, for every preset and every CostModel override.
struct Stage {
  static constexpr double kInherit = -1.0;

  std::uint32_t fanout = 1;
  double latency_us = kInherit;
  double bw_bytes_per_us = kInherit;
  double occupancy_us = 0.0;
  double send_occupancy_us = kInherit;
  double occupancy_byte_us = kInherit;
  double link_contention_us = kInherit;

  bool operator==(const Stage&) const = default;
};

class Topology {
public:
  // Legacy flat constructor: one node stage plus one switch stage covering
  // all nodes. Equivalent to flat_switch(nodes, procs_per_node).
  Topology(std::uint32_t nodes, std::uint32_t procs_per_node)
      : Topology(make_flat_stages(nodes, procs_per_node),
                 flat_spec(nodes, procs_per_node)) {}

  // General uniform descriptor: stages[0] is the node level; the product of
  // stages[1..k].fanout is the node count.
  Topology(std::vector<Stage> stages, std::string spec)
      : stages_(std::move(stages)), spec_(std::move(spec)) {
    OMSP_CHECK(stages_.size() >= 2);
    OMSP_CHECK(stages_[0].fanout >= 1);
    nodes_ = 1;
    group_size_.assign(stages_.size(), 1);
    for (std::size_t i = 1; i < stages_.size(); ++i) {
      OMSP_CHECK(stages_[i].fanout >= 1);
      nodes_ *= stages_[i].fanout;
      group_size_[i] = group_size_[i - 1] * stages_[i].fanout;
    }
    OMSP_CHECK(group_size_.back() == nodes_);
  }

  // --- presets --------------------------------------------------------------

  // The paper's evaluation platform: 4 SMP nodes x 4 processors behind one
  // SP2 switch. Costs inherit the CostModel shm/net pairs, so this preset is
  // bit-for-bit the legacy two-level model.
  static Topology sp2() {
    Topology t(make_flat_stages(4, 4), "sp2");
    return t;
  }

  // The sp2 preset with the switch stage's congestion triple pinned to the
  // published SP2/AIX-era numbers instead of inheriting the CostModel's zero
  // defaults (docs/TOPOLOGY.md "Per-stage congestion and calibration"):
  //   send_occupancy_us 25 — UDP/IP send-side processing per message,
  //   occupancy_byte_us 0.01 — protocol-stack per-byte handling cost,
  //   link_contention_us 30 — the adapter holds the link roughly one
  //     small-message service time per send, so back-to-back senders queue.
  // Latency/bandwidth stay kInherit: the CostModel defaults (60us one-way,
  // 35 bytes/us) are already the calibrated switch numbers. The node stage
  // stays all-kInherit — intra-node costs are unchanged. With these numbers
  // the Table 2 per-application traffic prices out to Table 1-consistent
  // 16-processor runtimes (asserted by sim/topology_test.cc's calibration
  // band test).
  static Topology sp2_calibrated() {
    Topology t(make_flat_stages(4, 4), "sp2cal");
    t.stages_[1].send_occupancy_us = kSp2SendOccupancyUs;
    t.stages_[1].occupancy_byte_us = kSp2OccupancyByteUs;
    t.stages_[1].link_contention_us = kSp2LinkContentionUs;
    return t;
  }

  // `nodes` SMP nodes, `ppn` processors each, one crossbar switch.
  static Topology flat_switch(std::uint32_t nodes, std::uint32_t ppn) {
    return Topology(nodes, ppn);
  }

  // A `levels`-deep switch hierarchy of uniform `radix`: radix nodes per
  // edge switch, radix edge switches per next tier, ... (radix^levels nodes
  // total). The edge tier inherits the CostModel net pair (it stands in for
  // the endpoint UDP/IP stack); upper tiers are switch-to-switch hardware
  // hops, pinned at 25us latency / 300 bytes-per-us.
  static Topology fat_tree(std::uint32_t levels, std::uint32_t radix,
                           std::uint32_t ppn) {
    OMSP_CHECK(levels >= 1 && radix >= 1 && ppn >= 1);
    std::vector<Stage> stages;
    stages.push_back(Stage{ppn});
    stages.push_back(Stage{radix}); // edge tier: inherits net params
    for (std::uint32_t l = 1; l < levels; ++l)
      stages.push_back(Stage{radix, kSpineLatencyUs, kSpineBwBytesPerUs});
    return Topology(std::move(stages),
                    "fat:" + std::to_string(levels) + "x" +
                        std::to_string(radix) + "x" + std::to_string(ppn));
  }

  // Asymmetric node mix behind one switch: node i hosts node_procs[i]
  // processors. Ranks stay node-major (node 0's block first).
  static Topology asymmetric(std::vector<std::uint32_t> node_procs) {
    OMSP_CHECK(!node_procs.empty());
    std::uint32_t maxp = 1;
    for (const std::uint32_t p : node_procs) {
      OMSP_CHECK(p >= 1);
      maxp = std::max(maxp, p);
    }
    Topology t(make_flat_stages(
                   static_cast<std::uint32_t>(node_procs.size()), maxp),
               std::string());
    std::string spec = "asym:";
    for (std::size_t i = 0; i < node_procs.size(); ++i) {
      if (i) spec += '+';
      spec += std::to_string(node_procs[i]);
    }
    t.spec_ = std::move(spec);
    t.node_procs_ = std::move(node_procs);
    t.rank_base_.assign(t.node_procs_.size() + 1, 0);
    for (std::size_t i = 0; i < t.node_procs_.size(); ++i)
      t.rank_base_[i + 1] = t.rank_base_[i] + t.node_procs_[i];
    return t;
  }

  // --- spec strings ---------------------------------------------------------

  // Parse a descriptor spec: "sp2", "sp2cal", "flat:<nodes>x<ppn>",
  // "fat:<levels>x<radix>x<ppn>", or "asym:<p0>+<p1>+...". Returns nullopt
  // on malformed input. parse(t.spec()) round-trips for every preset.
  static std::optional<Topology> parse(std::string_view spec) {
    if (spec == "sp2") return sp2();
    if (spec == "sp2cal") return sp2_calibrated();
    if (spec.substr(0, 5) == "flat:") {
      const auto dims = parse_dims(spec.substr(5), 'x');
      if (dims.size() != 2) return std::nullopt;
      return flat_switch(dims[0], dims[1]);
    }
    if (spec.substr(0, 4) == "fat:") {
      const auto dims = parse_dims(spec.substr(4), 'x');
      if (dims.size() != 3) return std::nullopt;
      return fat_tree(dims[0], dims[1], dims[2]);
    }
    if (spec.substr(0, 5) == "asym:") {
      const auto procs = parse_dims(spec.substr(5), '+');
      if (procs.empty()) return std::nullopt;
      return asymmetric(procs);
    }
    return std::nullopt;
  }

  // Canonical spec string ("sp2", "flat:64x4", ...). Used as the JSON key
  // for per-topology bench baselines.
  const std::string& spec() const { return spec_; }

  // --- shape ----------------------------------------------------------------

  std::uint32_t nodes() const { return nodes_; }
  std::uint32_t num_stages() const {
    return static_cast<std::uint32_t>(stages_.size());
  }
  const Stage& stage(std::uint32_t i) const {
    OMSP_DCHECK(i < stages_.size());
    return stages_[i];
  }
  bool uniform() const { return node_procs_.empty(); }

  std::uint32_t procs_per_node() const {
    OMSP_CHECK(uniform()); // asymmetric mixes: use procs_on_node()
    return stages_[0].fanout;
  }
  std::uint32_t procs_on_node(NodeId n) const {
    OMSP_DCHECK(n < nodes_);
    return uniform() ? stages_[0].fanout : node_procs_[n];
  }
  std::uint32_t nprocs() const {
    return uniform() ? nodes_ * stages_[0].fanout
                     : static_cast<std::uint32_t>(rank_base_.back());
  }

  NodeId node_of_rank(Rank r) const {
    OMSP_DCHECK(r < nprocs());
    if (uniform()) return r / stages_[0].fanout;
    const auto it =
        std::upper_bound(rank_base_.begin(), rank_base_.end(), r);
    return static_cast<NodeId>(it - rank_base_.begin() - 1);
  }
  ProcId proc_of_rank(Rank r) const {
    OMSP_DCHECK(r < nprocs());
    if (uniform()) return r % stages_[0].fanout;
    return r - rank_base_[node_of_rank(r)];
  }
  Rank rank_of(NodeId n, ProcId p) const {
    OMSP_DCHECK(n < nodes_ && p < procs_on_node(n));
    if (uniform()) return n * stages_[0].fanout + p;
    return rank_base_[n] + p;
  }

  bool same_node(Rank a, Rank b) const {
    return node_of_rank(a) == node_of_rank(b);
  }

  // --- path costing ---------------------------------------------------------

  // The topmost stage a message between nodes a and b must cross: 0 when the
  // endpoints share a node, otherwise the smallest tier whose group contains
  // both. Symmetric in (a, b).
  std::uint32_t top_stage(NodeId a, NodeId b) const {
    OMSP_DCHECK(a < nodes_ && b < nodes_);
    if (a == b) return 0;
    for (std::uint32_t i = 1; i < stages_.size(); ++i)
      if (a / group_size_[i] == b / group_size_[i]) return i;
    return num_stages() - 1; // unreachable: the top stage covers all nodes
  }

  // The ordered list of stage indices a one-way message traverses: {0} for
  // same-node, else up through 1..k and back down k-1..1 where k =
  // top_stage. Lower tiers appear twice (up + down), the top tier once.
  std::vector<std::uint32_t> path_stages(NodeId a, NodeId b) const {
    const std::uint32_t k = top_stage(a, b);
    if (k == 0) return {0};
    std::vector<std::uint32_t> path;
    path.reserve(2 * k - 1);
    for (std::uint32_t i = 1; i <= k; ++i) path.push_back(i);
    for (std::uint32_t i = k - 1; i >= 1; --i) path.push_back(i);
    return path;
  }

  // Per-stage one-way traversal cost with kInherit resolved from `m`.
  double stage_cost_us(const CostModel& m, std::uint32_t i,
                       std::size_t bytes) const {
    const Stage& s = stages_[i];
    const double lat = s.latency_us == Stage::kInherit
                           ? (i == 0 ? m.shm_latency_us : m.net_latency_us)
                           : s.latency_us;
    const double bw = s.bw_bytes_per_us == Stage::kInherit
                          ? (i == 0 ? m.shm_bw_bytes_per_us
                                    : m.net_bw_bytes_per_us)
                          : s.bw_bytes_per_us;
    return lat + static_cast<double>(bytes) / bw + s.occupancy_us;
  }

  // One-way cost of a message of `bytes` between nodes a and b: the sum of
  // stage_cost_us over path_stages(a, b). For two-stage presets with zero
  // occupancy this is exactly the legacy CostModel::message_us split
  // (bit-for-bit, including for sp2()).
  double message_us(const CostModel& m, std::size_t bytes, NodeId a,
                    NodeId b) const {
    const std::uint32_t k = top_stage(a, b);
    if (k == 0) return stage_cost_us(m, 0, bytes);
    double total = 0.0;
    for (std::uint32_t i = 1; i < k; ++i)
      total += 2.0 * stage_cost_us(m, i, bytes);
    total += stage_cost_us(m, k, bytes);
    return total;
  }

  // Identifier of the contended link segment for a message a -> b: the
  // sender's uplink into the top stage crossed (stage 1: node a's NIC;
  // stage k >= 2: a's stage-(k-1) group's trunk). Same-node traffic keys on
  // (stage 0, node). Packs (stage << 32 | segment) so transports can use it
  // directly as a busy-window map key.
  std::uint64_t link_segment(NodeId a, NodeId b) const {
    const std::uint32_t k = top_stage(a, b);
    const std::uint64_t seg =
        k == 0 ? a : a / group_size_[k - 1];
    return (static_cast<std::uint64_t>(k) << 32) | seg;
  }

  // Extract the stage index back out of a packed segment key.
  static std::uint32_t segment_stage(std::uint64_t seg_key) {
    return static_cast<std::uint32_t>(seg_key >> 32);
  }

  // Every contended segment a one-way message a -> b traverses, in path
  // order, packed like link_segment. Going up, the message crosses a's
  // uplink at each tier (stage i keyed by a's stage-(i-1) group, i = 1..k);
  // coming down it crosses b's downlink at each tier (stage i keyed by b's
  // stage-(i-1) group, i = k-1..1). Same-node traffic is the single
  // (stage 0, node) segment. For any two-stage topology this is exactly
  // {link_segment(a, b)}, so flat presets keep their single busy window.
  std::vector<std::uint64_t> path_segments(NodeId a, NodeId b) const {
    std::vector<std::uint64_t> segs;
    for_each_path_segment(a, b,
                          [&](std::uint64_t s) { segs.push_back(s); });
    return segs;
  }

  // Allocation-free traversal of path_segments(a, b), in path order, for
  // transport hot paths.
  template <typename Fn>
  void for_each_path_segment(NodeId a, NodeId b, Fn&& fn) const {
    const std::uint32_t k = top_stage(a, b);
    if (k == 0) {
      fn(static_cast<std::uint64_t>(a));
      return;
    }
    for (std::uint32_t i = 1; i <= k; ++i)
      fn((static_cast<std::uint64_t>(i) << 32) | (a / group_size_[i - 1]));
    for (std::uint32_t i = k - 1; i >= 1; --i)
      fn((static_cast<std::uint64_t>(i) << 32) | (b / group_size_[i - 1]));
  }

  // --- per-stage congestion resolution --------------------------------------

  // The fixed per-send transport occupancy at stage i (kInherit -> the
  // CostModel scalar).
  double stage_send_occupancy_us(const CostModel& m, std::uint32_t i) const {
    const double v = stages_[i].send_occupancy_us;
    return v == Stage::kInherit ? m.send_occupancy_us : v;
  }
  // The per-byte serialization occupancy at stage i.
  double stage_occupancy_byte_us(const CostModel& m, std::uint32_t i) const {
    const double v = stages_[i].occupancy_byte_us;
    return v == Stage::kInherit ? m.occupancy_byte_us : v;
  }
  // The busy-window length one message holds a stage-i segment for.
  double stage_link_contention_us(const CostModel& m, std::uint32_t i) const {
    const double v = stages_[i].link_contention_us;
    return v == Stage::kInherit ? m.link_contention_us : v;
  }
  // Fixed + per-byte occupancy of one `bytes`-sized send at stage i;
  // all-kInherit stages make this exactly CostModel::occupancy_us(bytes).
  double stage_occupancy_us(const CostModel& m, std::uint32_t i,
                            std::size_t bytes) const {
    return stage_send_occupancy_us(m, i) +
           stage_occupancy_byte_us(m, i) * static_cast<double>(bytes);
  }
  // Occupancy a message a -> b charges its sender: the rate of the top
  // stage crossed — the bottleneck serialization point. Charged once per
  // message (not per segment), so all-kInherit topologies of any depth are
  // bit-for-bit the pre-stage-aware single-scalar model.
  double message_occupancy_us(const CostModel& m, std::size_t bytes, NodeId a,
                              NodeId b) const {
    return stage_occupancy_us(m, top_stage(a, b), bytes);
  }

  bool operator==(const Topology& o) const {
    return stages_ == o.stages_ && node_procs_ == o.node_procs_;
  }

private:
  static constexpr double kSpineLatencyUs = 25.0;
  static constexpr double kSpineBwBytesPerUs = 300.0;
  // sp2_calibrated switch-stage congestion (docs/TOPOLOGY.md).
  static constexpr double kSp2SendOccupancyUs = 25.0;
  static constexpr double kSp2OccupancyByteUs = 0.01;
  static constexpr double kSp2LinkContentionUs = 30.0;

  static std::vector<Stage> make_flat_stages(std::uint32_t nodes,
                                             std::uint32_t ppn) {
    OMSP_CHECK(nodes >= 1 && ppn >= 1);
    return {Stage{ppn}, Stage{nodes}};
  }
  static std::string flat_spec(std::uint32_t nodes, std::uint32_t ppn) {
    return "flat:" + std::to_string(nodes) + "x" + std::to_string(ppn);
  }

  // Split `s` on `sep` into positive u32s; empty vector on any bad field.
  static std::vector<std::uint32_t> parse_dims(std::string_view s, char sep) {
    std::vector<std::uint32_t> out;
    while (!s.empty()) {
      const std::size_t cut = s.find(sep);
      const std::string_view field =
          cut == std::string_view::npos ? s : s.substr(0, cut);
      if (field.empty()) return {};
      std::uint64_t v = 0;
      for (const char c : field) {
        if (c < '0' || c > '9') return {};
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 1u << 20) return {}; // implausible machine, reject
      }
      if (v == 0) return {};
      out.push_back(static_cast<std::uint32_t>(v));
      if (cut == std::string_view::npos) break;
      s.remove_prefix(cut + 1);
      if (s.empty()) return {}; // trailing separator ("4x", "4+")
    }
    return out;
  }

  std::vector<Stage> stages_;      // [0] = node level, [1..] = network tiers
  std::string spec_;               // canonical descriptor string
  std::uint32_t nodes_ = 1;
  std::vector<std::uint32_t> group_size_; // nodes per group at each stage
  // Asymmetric mixes only: per-node proc counts + node-major rank prefix.
  std::vector<std::uint32_t> node_procs_;
  std::vector<std::uint32_t> rank_base_;
};

} // namespace omsp::sim
