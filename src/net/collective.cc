#include "net/collective.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"

namespace omsp::coll {

namespace {

// Strict decimal parse for the tree:<bytes> suffix — rejects empty strings,
// non-digits, and absurd values, matching Topology::parse_dims' posture.
bool parse_bytes(std::string_view text, std::size_t* out) {
  if (text.empty() || text.size() > 10) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  if (value > (std::size_t{1} << 30)) return false;
  *out = value;
  return true;
}

} // namespace

std::optional<Options> Options::parse(std::string_view spec) {
  Options opts;
  if (spec == "central") return opts;
  if (spec == "tree") {
    opts.tree = true;
    return opts;
  }
  constexpr std::string_view kTreePrefix = "tree:";
  if (spec.substr(0, kTreePrefix.size()) == kTreePrefix) {
    std::size_t bytes = 0;
    if (!parse_bytes(spec.substr(kTreePrefix.size()), &bytes)) {
      return std::nullopt;
    }
    opts.tree = true;
    opts.flat_max_bytes = bytes;
    return opts;
  }
  return std::nullopt;
}

Schedule Schedule::flat(std::uint32_t n) {
  OMSP_CHECK(n >= 1);
  Schedule s;
  s.tree_ = false;
  s.depth_ = n > 1 ? 1 : 0;
  s.parent_.assign(n, -1);
  s.level_.assign(n, 0);
  s.children_.resize(n);
  s.children_[0].reserve(n - 1);
  for (std::uint32_t m = 1; m < n; ++m) {
    s.parent_[m] = 0;
    s.children_[0].push_back(m);
  }
  return s;
}

Schedule Schedule::tree(const sim::Topology& topo, std::uint32_t n,
                        const std::function<NodeId(std::uint32_t)>& node_of) {
  OMSP_CHECK(n >= 1);
  const std::uint32_t num_stages = topo.num_stages();

  // Prefix products of the network-stage fanouts: nodes with equal
  // node / group_size[L] share a stage-L group (level 0: the node itself,
  // group_size 1). Mirrors the private table Topology::top_stage uses.
  std::vector<std::uint64_t> group_size(num_stages, 1);
  for (std::uint32_t i = 1; i < num_stages; ++i) {
    group_size[i] = group_size[i - 1] * topo.stage(i).fanout;
  }

  std::vector<NodeId> node(n);
  for (std::uint32_t m = 0; m < n; ++m) {
    node[m] = node_of(m);
    OMSP_CHECK(node[m] < topo.nodes());
  }

  // Leader of a group = lowest member index in it; members are scanned in
  // ascending order so the first index seen per key wins.
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> leader(
      num_stages);
  for (std::uint32_t level = 0; level < num_stages; ++level) {
    for (std::uint32_t m = 0; m < n; ++m) {
      const std::uint64_t key = node[m] / group_size[level];
      leader[level].emplace(key, m);
    }
  }

  Schedule s;
  s.tree_ = true;
  s.parent_.assign(n, -1);
  s.level_.assign(n, 0);
  s.children_.resize(n);
  for (std::uint32_t m = 0; m < n; ++m) {
    // Attach to the leader of the first (cheapest) level where this member
    // is not itself the leader. A member that leads every level up to the
    // top is the global root — the top group spans all nodes, so that is
    // exactly member 0.
    for (std::uint32_t level = 0; level < num_stages; ++level) {
      const std::uint32_t lead = leader[level].at(node[m] / group_size[level]);
      if (lead != m) {
        s.parent_[m] = static_cast<int>(lead);
        s.level_[m] = level;
        s.children_[lead].push_back(m);
        break;
      }
    }
  }
  OMSP_CHECK(s.parent_[0] == -1);

  // Far-first child order: the down pass hands the earliest (least queued)
  // injection slots to the subtrees behind the most expensive edges.
  for (auto& kids : s.children_) {
    std::sort(kids.begin(), kids.end(),
              [&s](std::uint32_t a, std::uint32_t b) {
                if (s.level_[a] != s.level_[b]) return s.level_[a] > s.level_[b];
                return a < b;
              });
  }

  // Depth = max tree edges on any root-to-leaf path. Parent indices are
  // strictly smaller than their children (leaders are lowest-index), so one
  // ascending scan resolves every chain.
  std::vector<std::uint32_t> hops(n, 0);
  for (std::uint32_t m = 1; m < n; ++m) {
    OMSP_CHECK(s.parent_[m] >= 0 &&
               static_cast<std::uint32_t>(s.parent_[m]) < m);
    hops[m] = hops[static_cast<std::uint32_t>(s.parent_[m])] + 1;
    s.depth_ = std::max(s.depth_, hops[m]);
  }
  return s;
}

Schedule Schedule::build(const sim::Topology& topo, std::uint32_t n,
                         std::size_t payload_bytes, const Options& opts,
                         const std::function<NodeId(std::uint32_t)>& node_of) {
  if (!opts.tree || payload_bytes <= opts.flat_max_bytes) return flat(n);
  return tree(topo, n, node_of);
}

std::vector<std::uint32_t> Schedule::up_order() const {
  // Parent indices are strictly smaller than child indices, so descending
  // index order is a valid post-order (all children before their parent).
  std::vector<std::uint32_t> order(size());
  for (std::uint32_t m = 0; m < size(); ++m) order[m] = size() - 1 - m;
  return order;
}

std::vector<std::uint32_t> Schedule::down_order() const {
  // Explicit pre-order so siblings appear in children() (far-first) order —
  // the traversal the departure broadcast models.
  std::vector<std::uint32_t> order;
  order.reserve(size());
  std::vector<std::uint32_t> stack = {0};
  while (!stack.empty()) {
    const std::uint32_t m = stack.back();
    stack.pop_back();
    order.push_back(m);
    const auto& kids = children_[m];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

} // namespace omsp::coll
