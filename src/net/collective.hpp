// Hierarchical collective schedules derived from the topology descriptor.
//
// A coll::Schedule is an n-level gather/scatter tree over the members of a
// collective (DSM contexts or MPI ranks), shaped by the machine hierarchy in
// sim::Topology: members on one node attach to their node leader across the
// cheap shared-memory stage, node leaders attach to their switch-group
// leader across the edge tier, group leaders to the next tier up, and so on
// to the root. The leader of a group is always its lowest member index, so
// the root of the whole tree is member 0 and the structure is a pure
// function of (topology, member -> node mapping) — deterministic and
// host-schedule free.
//
// Both synchronization stacks execute on the same schedule:
//  * DsmSystem::barrier() in tree mode reduces interval/write-notice
//    metadata up the tree (merging at each leader, Lamport-correct) and
//    broadcasts departures down it (docs/PROTOCOL.md "Hierarchical
//    collectives").
//  * MpiWorld barrier/bcast/reduce/allreduce build their send/recv pattern
//    from the same tree, including the fused one-pass allreduce.
//
// The flat-vs-tree switchover is XHC-style (SNIPPETS.md,
// coll_smhc_bcast_flat.c vs coll_smhc_bcast_tree.c): small payloads take the
// single-level star (fewer chained hops wins when latency dominates), large
// payloads take the hierarchy (per-leader fan-in/fan-out serialization wins
// when injection bandwidth dominates). Options::flat_max_bytes is the knob;
// `coll=central|tree|tree:<bytes>` in OMSP_CONFIG selects from the
// environment.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sim/topology.hpp"

namespace omsp::coll {

// Collective-engine selection. `tree == false` (the default, spec "central")
// keeps the seed algorithms bit-for-bit: the centralized DSM barrier manager
// and the classic flat MPI collectives. "tree" enables the hierarchical
// schedules; "tree:<bytes>" additionally sets the flat-vs-tree switchover
// point (payloads at or below it still use the flat star).
struct Options {
  bool tree = false;
  // Tree mode only: payloads <= this many bytes use the flat schedule.
  // Control messages (barriers) always use the tree when tree mode is on.
  std::size_t flat_max_bytes = 1024;
  // Tree broadcasts split payloads into segments of this size so a level can
  // forward segment s while segment s+1 is still in flight to it (pipelined
  // levels instead of store-and-forward of the whole payload).
  std::size_t segment_bytes = 16384;

  // Parse "central", "tree" or "tree:<flat_max_bytes>"; nullopt on anything
  // else (including empty numbers and non-digits).
  static std::optional<Options> parse(std::string_view spec);
};

// The gather/scatter tree for one collective. Members are dense indices
// 0..size()-1; the caller supplies their node placement. parent()/children()
// describe the tree (root is always member 0), level() is the topology stage
// an edge crosses (0 = intra-node, i >= 1 = network tier i), and
// up_order()/down_order() are deterministic post-/pre-order traversals for
// single-coordinator execution (the DSM barrier manager models the whole
// episode on one thread).
class Schedule {
public:
  // Single-level star rooted at member 0 — the shape of the centralized
  // algorithms, and the small-payload fallback in tree mode.
  static Schedule flat(std::uint32_t n);

  // The hierarchy tree: groups at stage level L are members whose nodes
  // share a stage-L group (level 0: the node itself); the leader of a group
  // is its lowest member index; a member attaches to the leader of the first
  // level where it is not itself the leader.
  static Schedule tree(const sim::Topology& topo, std::uint32_t n,
                       const std::function<NodeId(std::uint32_t)>& node_of);

  // Size-based switchover: flat when opts.tree is off or the payload is at
  // or below opts.flat_max_bytes, the hierarchy tree otherwise.
  static Schedule build(const sim::Topology& topo, std::uint32_t n,
                        std::size_t payload_bytes, const Options& opts,
                        const std::function<NodeId(std::uint32_t)>& node_of);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(parent_.size());
  }
  bool is_tree() const { return tree_; }

  // Parent member, or -1 at the root (member 0).
  int parent(std::uint32_t m) const { return parent_[m]; }
  // Topology stage level of the edge to the parent (0 for the root).
  std::uint32_t level(std::uint32_t m) const { return level_[m]; }
  // Children, far-first: descending edge level, then ascending index — the
  // down pass services the most expensive subtree first.
  const std::vector<std::uint32_t>& children(std::uint32_t m) const {
    return children_[m];
  }
  // Maximum number of tree edges on any root-to-leaf path (1 for a flat
  // star with n >= 2, 0 for a singleton).
  std::uint32_t depth() const { return depth_; }

  // Every member, children strictly before parents (the gather order).
  std::vector<std::uint32_t> up_order() const;
  // Every member, parents strictly before children (the scatter order).
  std::vector<std::uint32_t> down_order() const;

private:
  bool tree_ = false;
  std::uint32_t depth_ = 0;
  std::vector<int> parent_;
  std::vector<std::uint32_t> level_;
  std::vector<std::vector<std::uint32_t>> children_;
};

} // namespace omsp::coll
