// Table 2 — Amount of data and number of messages transmitted in the
// OpenMP/original, OpenMP/thread, and MPI versions on an SP2 with four
// four-processor SMP nodes.
//
// Paper values (for its larger problem sizes):
//             data (MB): orig / thread / MPI-total / MPI-offnode
//   Barnes     543.0 / 166.4 / 259.7 / 207.8
//   3D-FFT     159.4 / 126.5 / 157.3 / 125.8
//   Water      192.3 /  42.7 /  34.6 /  26.0
//   SOR          0.64 /  0.07 /  9.8 /  2.0
//   TSP          2.8 /   0.55 /  0.03 / 0.026
//   MGS        508.6 / 102.2 / 251.6 / 201.3
//             messages: orig / thread / MPI-total / MPI-offnode
//   Barnes    841565 / 100259 /   720 /  576
//   3D-FFT     40975 /  31694 /  9750 / 7800
//   Water      78402 /  24667 /  1776 / 1344
//   SOR         3637 /    735 /  1200 /  240
//   TSP         9227 /   4853 /  1256 / 1070
//   MGS       184583 /  37041 / 30720 / 24576
//
// Shape to reproduce: the thread version sends 1.26-9.1x less data and
// 1.29-8.4x fewer messages than the original; SDSM sends far more messages
// than MPI (except SOR, where TreadMarks' diffs beat MPI's whole boundary
// rows on data volume); MPI sends ~12/15 of its traffic off-node (SOR ~20%).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace omsp;
  using namespace omsp::bench;

  const BenchArgs args = parse_bench_args(argc, argv);

  struct Row {
    std::string name;
    apps::Result orig, thrd, mpi;
  };
  std::vector<Row> rows;
  for (const auto& app : all_apps()) {
    Row r;
    r.name = app.name;
    r.orig = app.run_omp(paper_config(tmk::Mode::kProcess));
    r.thrd = app.run_omp(paper_config(tmk::Mode::kThread));
    r.mpi = app.run_mpi(paper_topology(), paper_cost());
    rows.push_back(std::move(r));
  }

  std::printf("Table 2: data and messages, topology %s\n\n",
              paper_topology().spec().c_str());
  std::printf("Data (Mbytes)\n");
  print_rule(92);
  std::printf("%-8s %14s %14s %12s %14s %10s\n", "Appl.", "OpenMP/orig",
              "OpenMP/thread", "MPI total", "MPI off-node", "orig/thr");
  print_rule(92);
  for (const auto& r : rows) {
    std::printf("%-8s %14.2f %14.2f %12.2f %14.2f %9.1fx\n", r.name.c_str(),
                r.orig.stats.data_mbytes(), r.thrd.stats.data_mbytes(),
                r.mpi.stats.data_mbytes(), r.mpi.stats.offnode_mbytes(),
                r.orig.stats.data_mbytes() /
                    std::max(1e-9, r.thrd.stats.data_mbytes()));
  }

  std::printf("\nMessages\n");
  print_rule(92);
  std::printf("%-8s %14s %14s %12s %14s %10s\n", "Appl.", "OpenMP/orig",
              "OpenMP/thread", "MPI total", "MPI off-node", "orig/thr");
  print_rule(92);
  for (const auto& r : rows) {
    const auto m = [](const apps::Result& x) {
      return static_cast<unsigned long long>(x.stats[Counter::kMsgsSent]);
    };
    const auto moff = static_cast<unsigned long long>(
        r.mpi.stats[Counter::kMsgsOffNode]);
    std::printf("%-8s %14llu %14llu %12llu %14llu %9.1fx\n", r.name.c_str(),
                m(r.orig), m(r.thrd), m(r.mpi), moff,
                static_cast<double>(m(r.orig)) /
                    std::max(1ull, m(r.thrd)));
  }
  print_rule(92);

  if (!args.json_path.empty()) {
    JsonObject apps_obj;
    for (const auto& r : rows) {
      JsonObject versions;
      versions.add("orig", run_json(r.orig));
      versions.add("thread", run_json(r.thrd));
      versions.add("mpi", run_json(r.mpi));
      apps_obj.add(r.name, versions.str());
    }
    JsonObject root;
    root.add_string("bench", "table2_traffic");
    root.add("smoke", args.smoke);
    // The configuration the rows were measured under: the drift check
    // matches rows against the baseline for THIS machine shape and
    // collective engine only, so the exact 4x4 baseline survives sweeps.
    root.add_string("config", paper_config_string());
    root.add("apps", apps_obj.str());
    write_json_file(args.json_path, root.str());
  }
  return 0;
}
