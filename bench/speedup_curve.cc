// Speedup curves: speedup vs processor count for each system, the classic
// scaling view behind Figure 1's 16-way bars. Uses SOR (regular, stencil)
// and Water (reduction-heavy) as the probes.
//
// Two modes:
//  * default — the paper-scale sweep up to the SP2's 4x4, printed as a
//    table (unchanged seed behavior);
//  * --scale — the beyond-the-SP2 sweep (EXPERIMENTS.md "Scalability beyond
//    the SP2"): weak-scaled SOR over 16-, 64- and 256-node machines, flat
//    crossbar vs two-level fat tree, MPI at every size plus SDSM thread
//    mode at the sizes a single host can carry. --seed <n> runs the MPI
//    sweep over a lossy network (seeded per-link loss schedules, no jitter)
//    so the curves are a pure function of the seed; --json emits the curves
//    keyed by topology spec for the BENCH_pr10.json drift check, plus the
//    incast/saturation probes whose per-stage wait shape bench_smoke.sh
//    asserts (spine saturates before edge NICs on the fat trees).
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "net/router.hpp"
#include "net/transport.hpp"
#include "sim/virtual_clock.hpp"

namespace {

using namespace omsp;
using namespace omsp::bench;

// Weak scaling: the grid grows with the machine so per-rank work stays
// constant; the communication share then isolates what the topology costs.
apps::sor::Params scaled_sor(std::uint32_t nprocs) {
  apps::sor::Params p;
  p.rows = 8 * static_cast<std::int64_t>(nprocs);
  p.cols = g_smoke ? 64 : 128;
  p.iters = g_smoke ? 2 : 4;
  return p;
}

// One collective micro-episode under an explicit engine selection: modeled
// time per operation (cpu_scale is zero in the caller's cost model, so the
// number is a pure function of topology x schedule x cost knobs).
double coll_micro_us(const sim::Topology& topo, const sim::CostModel& cost,
                     bool tree, bool barrier_op, std::size_t payload_bytes,
                     int iters) {
  mpi::MpiWorld w(topo, cost);
  coll::Options opts;
  opts.tree = tree;
  // Compare the schedules themselves at every size; the size switchover is
  // the production default, but a benchmark that silently fell back to flat
  // would chart the same engine twice.
  opts.flat_max_bytes = 0;
  w.set_coll(opts);
  w.run([&](mpi::Comm& c) {
    if (barrier_op) {
      for (int i = 0; i < iters; ++i) c.barrier();
    } else {
      std::vector<double> buf(payload_bytes / sizeof(double),
                              static_cast<double>(c.rank()));
      for (int i = 0; i < iters; ++i)
        c.allreduce(buf.data(), buf.size(), std::plus<double>{});
    }
  });
  return w.makespan_us() / iters;
}

// --- saturation probes: which tier of the machine queues first -------------
// One request per sender at modeled time zero (each sender gets a fresh
// virtual clock), so the per-stage wait boards show WHERE the machine
// saturates, not just by how much. Requests reserve per-segment busy windows
// at the sp2-calibrated switch hold; a sender whose modeled time lands
// inside a segment's window queues behind it at that stage's rate.
struct IncastPoint {
  double makespan_us = 0; // max sender completion (latency + queueing)
  std::vector<net::InlineTransport::StageWait> waits;

  double stage_wait_us(std::size_t stage) const {
    return stage < waits.size() ? waits[stage].wait_us : 0.0;
  }
  // Edge tier = stage 1 (node NICs / endpoint links); spine = everything
  // above it (switch-to-switch trunks). Flat machines have no spine tiers.
  double edge_wait_us() const { return stage_wait_us(1); }
  double spine_wait_us() const {
    double s = 0;
    for (std::size_t i = 2; i < waits.size(); ++i) s += waits[i].wait_us;
    return s;
  }
};

// `shift` sends node i's one page-sized request to node (i + n/2) % n — a
// cross-switch permutation where every message climbs to the top of the
// tree; otherwise every sender targets rank 0 (the classic incast).
IncastPoint run_incast(const sim::Topology& topo, bool shift) {
  sim::CostModel cost = paper_cost();
  cost.cpu_scale = 0;
  cost.link_contention_us = 30.0; // the sp2cal switch hold (docs/TOPOLOGY.md)
  const std::uint32_t n = topo.nprocs();
  std::vector<NodeId> ctx(n);
  for (std::uint32_t i = 0; i < n; ++i) ctx[i] = topo.node_of_rank(i);
  net::Router router(std::move(ctx), cost, topo);
  struct Sink : net::MessageHandler {
    void handle(ContextId, net::MsgType, ByteReader&, ByteWriter&) override {}
  } sink;
  for (std::uint32_t i = 0; i < n; ++i) router.bind_handler(i, &sink);

  IncastPoint out;
  std::vector<std::uint8_t> page(4096, 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t dst = shift ? (i + n / 2) % n : 0u;
    if (dst == i) continue;
    sim::VirtualClock clk(0.0);
    sim::VirtualClock::Binder bind(&clk);
    ByteWriter req;
    req.put_span<std::uint8_t>({page.data(), page.size()});
    (void)router.transport().call(
        net::Envelope::request(i, dst, net::MsgType::kDiffRequest, req));
    out.makespan_us = std::max(out.makespan_us, clk.now_us());
  }
  out.waits =
      dynamic_cast<net::InlineTransport&>(router.transport()).stage_waits();
  return out;
}

std::string point_json(const apps::Result& r, std::uint32_t nprocs) {
  JsonObject o;
  o.add("nprocs", static_cast<std::uint64_t>(nprocs));
  o.add("time_us", r.time_us);
  o.add("msgs", r.stats[Counter::kMsgsSent]);
  o.add("bytes", r.stats[Counter::kBytesSent]);
  o.add("offnode_msgs", r.stats[Counter::kMsgsOffNode]);
  o.add("offnode_bytes", r.stats[Counter::kBytesOffNode]);
  return o.str();
}

int run_scale(const BenchArgs& args) {
  // Loss-only fault injection: per-link seeded schedules keep the makespan
  // of named-source programs (SOR is one) a deterministic function of the
  // seed. Jitter/duplication draws would come from a host-order-shared
  // generator, so they stay off.
  net::PerturbOptions perturb;
  if (args.seed != 0) {
    perturb.enabled = true;
    perturb.seed = args.seed;
    perturb.jitter_max_us = 0;
    perturb.duplicate_prob = 0;
    perturb.reorder_prob = 0;
    perturb.loss_prob = 0.02;
  }

  // Communication-bound curves: compute is charged at zero scale, so an MPI
  // makespan is a pure function of the modeled network (topology stages +
  // seeded loss schedule) — bit-identical across runs, which the smoke
  // script verifies by rerunning seed 1. With host CPU in the clock (the
  // default cpu_scale) the times would carry host noise and the topology
  // signal at these problem sizes would drown in it.
  sim::CostModel mpi_cost = paper_cost();
  mpi_cost.cpu_scale = 0;

  const sim::Topology mpi_topos[] = {
      sim::Topology::flat_switch(16, 2),  sim::Topology::fat_tree(2, 4, 2),
      sim::Topology::flat_switch(64, 2),  sim::Topology::fat_tree(2, 8, 2),
      sim::Topology::flat_switch(256, 2), sim::Topology::fat_tree(2, 16, 2),
  };
  // SDSM thread mode: one context per node. Each context keeps pending and
  // applied notice marks per allocated page per peer, so that state grows as
  // pages x contexts^2: about 0.5 GB for the 256-node grid, in one host
  // process with 512 worker threads. The DSM curve stops at 64 nodes; MPI
  // covers the full sweep.
  const sim::Topology dsm_topos[] = {
      sim::Topology::flat_switch(16, 2),
      sim::Topology::flat_switch(64, 2),
  };

  std::printf("Weak-scaled SOR across machine shapes (rows = 8 x nprocs)\n");
  if (args.seed != 0)
    std::printf("MPI sweep over lossy links: seed %llu, loss 0.02/delivery\n",
                static_cast<unsigned long long>(args.seed));
  print_rule(72);
  std::printf("%-14s %7s %14s %12s %14s\n", "topology", "procs", "time (s)",
              "msgs", "offnode MB");
  print_rule(72);

  std::string mpi_json, dsm_json;
  for (const auto& topo : mpi_topos) {
    const auto p = scaled_sor(topo.nprocs());
    const auto r = apps::sor::run_mpi(p, topo, mpi_cost, perturb);
    std::printf("mpi %-10s %7u %14.3f %12llu %14.2f\n", topo.spec().c_str(),
                topo.nprocs(), r.time_us * 1e-6,
                static_cast<unsigned long long>(r.stats[Counter::kMsgsSent]),
                static_cast<double>(r.stats[Counter::kBytesOffNode]) / 1e6);
    if (!mpi_json.empty()) mpi_json += ", ";
    mpi_json += "\"" + topo.spec() + "\": " + point_json(r, topo.nprocs());
  }
  for (const auto& topo : dsm_topos) {
    tmk::Config cfg = paper_config(tmk::Mode::kThread, topo);
    cfg.heap_bytes = 8u << 20;
    const auto p = scaled_sor(topo.nprocs());
    const auto r = apps::sor::run_omp(p, cfg);
    std::printf("dsm %-10s %7u %14.3f %12llu %14.2f\n", topo.spec().c_str(),
                topo.nprocs(), r.time_us * 1e-6,
                static_cast<unsigned long long>(r.stats[Counter::kMsgsSent]),
                static_cast<double>(r.stats[Counter::kBytesOffNode]) / 1e6);
    if (!dsm_json.empty()) dsm_json += ", ";
    dsm_json += "\"" + topo.spec() + "\": " + point_json(r, topo.nprocs());
  }
  print_rule(72);
  std::printf("\nFlat vs fat tree at equal node count isolates the spine "
              "tiers: same traffic,\nextra per-hop cost on the cross-switch "
              "share of it. The MPI rows are\ndeterministic (bit-identical "
              "across runs, per seed); the DSM rows carry the\nusual "
              "host-race tolerance (EXPERIMENTS.md).\n");

  // --- hierarchical collectives: central/flat vs tree ------------------------
  // Injection occupancy on (per-byte only): a sender holds its link for
  // bytes * occupancy_byte_us per message, so the flat star's root serializes
  // p-1 arrivals while the tree spreads them over node and switch leaders.
  // Latency-dominated small payloads still favor the flat star (fewer
  // chained hops) — the crossover coll=tree:<bytes> is tuned by.
  sim::CostModel coll_cost = paper_cost();
  coll_cost.cpu_scale = 0;
  coll_cost.occupancy_byte_us = 0.02;
  const int coll_iters = g_smoke ? 1 : 4;
  constexpr std::size_t kSmall = 8, kLarge = 64 * 1024;

  std::printf("\nCollectives on the fat trees: modeled us per operation\n");
  print_rule(72);
  std::printf("%-12s %6s %10s %10s %12s %12s %12s %12s\n", "topology", "ranks",
              "barr-ctr", "barr-tree", "ar8-flat", "ar8-tree", "ar64k-flat",
              "ar64k-tree");
  print_rule(72);
  std::string coll_json;
  for (const auto& topo :
       {sim::Topology::fat_tree(2, 4, 2), sim::Topology::fat_tree(2, 8, 2),
        sim::Topology::fat_tree(2, 16, 2)}) {
    const double barr_central =
        coll_micro_us(topo, coll_cost, false, true, 0, coll_iters);
    const double barr_tree =
        coll_micro_us(topo, coll_cost, true, true, 0, coll_iters);
    const double ar8_flat =
        coll_micro_us(topo, coll_cost, false, false, kSmall, coll_iters);
    const double ar8_tree =
        coll_micro_us(topo, coll_cost, true, false, kSmall, coll_iters);
    const double ar64k_flat =
        coll_micro_us(topo, coll_cost, false, false, kLarge, coll_iters);
    const double ar64k_tree =
        coll_micro_us(topo, coll_cost, true, false, kLarge, coll_iters);
    std::printf("%-12s %6u %10.1f %10.1f %12.1f %12.1f %12.1f %12.1f\n",
                topo.spec().c_str(), topo.nprocs(), barr_central, barr_tree,
                ar8_flat, ar8_tree, ar64k_flat, ar64k_tree);
    JsonObject o;
    o.add("nprocs", static_cast<std::uint64_t>(topo.nprocs()));
    o.add("barrier_central_us", barr_central);
    o.add("barrier_tree_us", barr_tree);
    o.add("allreduce8_flat_us", ar8_flat);
    o.add("allreduce8_tree_us", ar8_tree);
    o.add("allreduce64k_flat_us", ar64k_flat);
    o.add("allreduce64k_tree_us", ar64k_tree);
    if (!coll_json.empty()) coll_json += ", ";
    coll_json += "\"" + topo.spec() + "\": " + o.str();
  }
  print_rule(72);
  std::printf("\nThe tree barrier replaces log2(p) dissemination rounds of "
              "spine crossings with\none leader-merged pass up and down; the "
              "64 KB allreduce flips to the tree as\nper-byte injection "
              "occupancy overtakes hop latency. At 8 bytes the flat\nstar's "
              "two hops win up to 128 ranks; by 512 even small-message "
              "fan-in\nserializes enough to favor the tree — the size-and-"
              "scale crossover the\ncoll=tree:<bytes> knob tunes.\n");

  // --- incast/saturation shape: flat crossbar vs fat tree --------------------
  std::printf("\nSaturation probes: modeled queueing by tier (one 4 KB "
              "request per sender)\n");
  print_rule(72);
  std::printf("%-12s %-8s %6s %12s %12s %12s\n", "topology", "pattern",
              "nodes", "makespan us", "edge-wait us", "spine-wait us");
  print_rule(72);
  std::string incast_json;
  const sim::Topology sat_topos[] = {
      sim::Topology::flat_switch(64, 1), sim::Topology::fat_tree(2, 8, 1),
      sim::Topology::flat_switch(256, 1), sim::Topology::fat_tree(2, 16, 1),
  };
  for (const auto& topo : sat_topos) {
    for (const bool shift : {true, false}) {
      const IncastPoint pt = run_incast(topo, shift);
      const char* pattern = shift ? "shift" : "incast";
      std::printf("%-12s %-8s %6u %12.0f %12.0f %12.0f\n", topo.spec().c_str(),
                  pattern, topo.nodes(), pt.makespan_us, pt.edge_wait_us(),
                  pt.spine_wait_us());
      JsonObject o;
      o.add("nodes", static_cast<std::uint64_t>(topo.nodes()));
      o.add("makespan_us", pt.makespan_us);
      o.add("edge_wait_us", pt.edge_wait_us());
      o.add("spine_wait_us", pt.spine_wait_us());
      std::string stage_arr;
      for (const auto& w : pt.waits) {
        if (!stage_arr.empty()) stage_arr += ", ";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", w.wait_us);
        stage_arr += buf;
      }
      o.add("stage_wait_us", "[" + stage_arr + "]");
      if (!incast_json.empty()) incast_json += ", ";
      incast_json +=
          "\"" + topo.spec() + "/" + pattern + "\": " + o.str();
    }
  }
  print_rule(72);
  std::printf("\nThe shift permutation never queues on the crossbar (every "
              "node owns a private\nport) but serializes each fat-tree edge "
              "switch's senders behind its shared\nspine trunk: the spine "
              "saturates first, edge NICs pay only residual reply\nholds. "
              "Pointing everyone at rank 0 instead drags the hot receiver's "
              "edge\ndownlink into the queueing (at 256 nodes its wait grows "
              "~5x over the\npermutation's) — incast adds an edge-tier "
              "bottleneck below the spine\noversubscription.\n");

  if (!args.json_path.empty()) {
    JsonObject top;
    top.add_string("bench", "speedup_curve_scale");
    top.add("smoke", args.smoke);
    top.add("seed", static_cast<std::uint64_t>(args.seed));
    top.add("curves", "{\"mpi\": {" + mpi_json + "}, \"sdsm_thread\": {" +
                          dsm_json + "}, \"collectives\": {" + coll_json +
                          "}, \"incast\": {" + incast_json + "}}");
    write_json_file(args.json_path, top.str());
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  if (args.scale) return run_scale(args);

  struct Point {
    std::uint32_t nodes, ppn;
  };
  const Point points[] = {{1, 1}, {1, 2}, {1, 4}, {2, 4}, {4, 4}};

  const auto sor_p = sor_params();
  const auto water_p = water_params();

  for (const char* app : {"SOR", "Water"}) {
    const apps::Result seq = (app[0] == 'S')
                                 ? apps::sor::run_seq(sor_p, paper_cost().cpu_scale)
                                 : apps::water::run_seq(water_p,
                                                        paper_cost().cpu_scale);
    std::printf("\n%s — speedup vs processors (sequential %.2f s)\n", app,
                seq.time_us * 1e-6);
    print_rule(72);
    std::printf("%-10s %12s %14s %12s\n", "procs", "OpenMP/orig",
                "OpenMP/thread", "MPI");
    print_rule(72);
    for (const auto& pt : points) {
      const sim::Topology topo(pt.nodes, pt.ppn);
      auto run_one = [&](tmk::Mode mode) {
        tmk::Config cfg = paper_config(mode, topo);
        return (app[0] == 'S') ? apps::sor::run_omp(sor_p, cfg)
                               : apps::water::run_omp(water_p, cfg);
      };
      const auto orig = run_one(tmk::Mode::kProcess);
      const auto thrd = run_one(tmk::Mode::kThread);
      const auto mpi = (app[0] == 'S')
                           ? apps::sor::run_mpi(sor_p, topo, paper_cost())
                           : apps::water::run_mpi(water_p, topo, paper_cost());
      std::printf("%2ux%-7u %12.2f %14.2f %12.2f\n", pt.nodes, pt.ppn,
                  seq.time_us / orig.time_us, seq.time_us / thrd.time_us,
                  seq.time_us / mpi.time_us);
    }
    print_rule(72);
  }
  std::printf("\nAt one node the two OpenMP systems differ only by the alias "
              "mapping and the\nintra-node message elimination; the gap "
              "widens with node count as the paper's\nanalysis predicts.\n");
  return 0;
}
