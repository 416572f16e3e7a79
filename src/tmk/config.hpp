// Configuration for a TreadMarks DSM instance.
//
// The two execution modes reproduce the paper's two systems:
//   * kThread  — the paper's contribution ("OpenMP/thread"): one DSM context
//     (address space) per SMP node, POSIX threads inside it, alias mapping of
//     the shared heap, per-page fault mutex.
//   * kProcess — the baseline ("OpenMP/original"): one DSM context per
//     processor; processors on one node still exchange protocol messages
//     (classified intra-node), no alias mapping, so page updates need the
//     extra write-enable/write-disable mprotect pair the paper counts.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "net/collective.hpp"
#include "net/transport.hpp"
#include "race/options.hpp"
#include "sim/cost_model.hpp"
#include "sim/topology.hpp"
#include "trace/tracer.hpp"

namespace omsp::tmk {

enum class Mode { kThread, kProcess };

// Consistency protocol family:
//  * kLazyRC  — TreadMarks' lazy release consistency with distributed diffs
//    fetched from their writers on demand (the paper's system).
//  * kHomeLRC — home-based LRC in the style of HLRC-SMP/Cashmere-2L (§6
//    related work): every page has a home; writers eagerly flush diffs to
//    the home at releases, and faulting nodes fetch the whole page from the
//    home. Fewer control messages, more data — the classic trade-off.
enum class Protocol { kLazyRC, kHomeLRC };

struct Config {
  sim::Topology topology = sim::Topology::sp2();
  Mode mode = Mode::kThread;
  std::size_t heap_bytes = 16u << 20; // shared heap size (rounded to pages)
  sim::CostModel cost = sim::CostModel::sp2_default();

  // Ablation knob. The default follows the paper: the thread version has
  // the alias ("second") mapping, the original does not.
  std::optional<bool> alias_mapping; // default: mode == kThread

  // When false, diffs are created eagerly at interval close instead of on
  // first request (TreadMarks is lazy; this knob exists for the ablation
  // bench).
  bool lazy_diffs = true;

  // Garbage collection: when the cluster-wide stored-diff volume exceeds
  // this many bytes, the next barrier runs a TreadMarks-style GC — every
  // context validates all its pages, then interval records and stored diffs
  // are discarded. 0 disables GC.
  std::size_t gc_threshold_bytes = 0;

  Protocol protocol = Protocol::kLazyRC;

  // The features below are off (or central) by default. OMSP_CONFIG turns
  // them on without touching code: DsmSystem applies it through with_env().

  // Structured protocol tracing (docs/OBSERVABILITY.md).
  trace::Options trace;

  // Seeded transport fault injection (net::PerturbingTransport): latency
  // jitter, bounded reordering of notifications, duplicate delivery and
  // per-link loss.
  net::PerturbOptions perturb;

  // Overlapped communication (net::QueuedTransport): concurrent per-creator
  // diff fetches and barrier-time batched prefetch. Off by default so the
  // InlineTransport seed semantics stay bit-for-bit. Only the lazy-RC
  // protocol has overlapped paths; home-based fetches stay synchronous.
  net::OverlapOptions overlap;

  // Collective engine (coll::Schedule): central keeps the seed's
  // manager-based barrier bit-for-bit; tree reduces arrivals up the
  // topology-derived leader tree and broadcasts departures down it
  // (docs/PROTOCOL.md "Hierarchical collectives").
  coll::Options coll;

  // Data-race detection (race::Detector): vector-clock concurrency checks
  // over flushed diffs, swept at barriers and joins (docs/PROTOCOL.md "Race
  // detection under lazy release consistency"). With the detector off every
  // modeled number stays bit-for-bit identical to the seed.
  race::Options race;

  // The OMSP_CONFIG grammar (common/env_config.hpp): the Config a config
  // string describes, every field no key sets left at its default.
  // Malformed input is an OMSP_CHECK failure naming the key.
  static Config parse(std::string_view spec);

  // The canonical config string: `topo` always, every other key only when
  // its feature is on, in kConfigKeys order; parse(to_string()) gives back
  // the same string. Fields no key reaches (mode, cost, the overlap
  // sub-masks, hand-set perturbation rates) are not part of it.
  std::string to_string() const;

  // This config with OMSP_CONFIG applied the way DsmSystem applies it: every
  // key except `topo` fills in a feature this config left at its default.
  Config with_env() const;

  bool use_alias_mapping() const {
    return alias_mapping.value_or(mode == Mode::kThread);
  }

  // One DSM context per node (thread mode) or per processor (process mode).
  std::uint32_t num_contexts() const {
    return mode == Mode::kThread ? topology.nodes() : topology.nprocs();
  }
  // Worker threads hosted by context c: that node's processor count in
  // thread mode (asymmetric mixes give different contexts different widths),
  // always 1 in process mode.
  std::uint32_t threads_in_context(ContextId c) const {
    return mode == Mode::kThread ? topology.procs_on_node(c) : 1;
  }
  // Uniform-topology shorthand; asymmetric configs must ask per context.
  std::uint32_t threads_per_context() const {
    return mode == Mode::kThread ? topology.procs_per_node() : 1;
  }
  ContextId context_of_rank(Rank r) const {
    return mode == Mode::kThread ? topology.node_of_rank(r) : r;
  }
  NodeId node_of_context(ContextId c) const {
    return mode == Mode::kThread ? c : topology.node_of_rank(c);
  }
  // Thread slot of rank within its context.
  std::uint32_t slot_of_rank(Rank r) const {
    return mode == Mode::kThread ? topology.proc_of_rank(r) : 0;
  }

  void validate() const {
    OMSP_CHECK(heap_bytes > 0);
    OMSP_CHECK(topology.nprocs() >= 1);
  }
};

} // namespace omsp::tmk
