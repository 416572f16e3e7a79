// Shared configuration for the evaluation-reproduction benches.
//
// By default every bench models the paper's platform: an IBM SP2 with 4
// nodes x 4 PowerPC-604 processors (sim::Topology::sp2()) and the SP2-era
// cost model. `topo=<spec>` in OMSP_CONFIG rebenches the same workloads on
// another machine shape ("flat:64x4", "fat:2x8x2", "asym:8+4+4", ... — see
// docs/TOPOLOGY.md); bench JSON carries the canonical config string so
// per-configuration baselines never collide. Problem sizes are scaled down
// from the paper's (which needed hours on the 1999 machine and would need
// comparable virtual time here); the per-app compute/communication
// character is preserved, and EXPERIMENTS.md records the paper-vs-measured
// comparison for every row.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/barnes.hpp"
#include "apps/fft3d.hpp"
#include "apps/mgs.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "apps/water.hpp"
#include "common/env_config.hpp"

namespace omsp::bench {

// OMSP_CONFIG's `topo` key; the DSM and MPI runs pick up its other keys
// themselves.
inline sim::Topology paper_topology() {
  const char* spec = env_config();
  return spec == nullptr ? sim::Topology::sp2()
                         : tmk::Config::parse(spec).topology;
}
inline sim::CostModel paper_cost() {
  sim::CostModel m = sim::CostModel::sp2_default();
  // The bench problem sizes are scaled well below the paper's; raising the
  // CPU scale restores a paper-like compute:communication ratio (one unit of
  // our compute stands for the larger per-iteration compute of the paper's
  // full-size problems). See EXPERIMENTS.md for the calibration notes.
  m.cpu_scale = 500.0;
  return m;
}

inline tmk::Config paper_config(tmk::Mode mode,
                                sim::Topology topo = paper_topology()) {
  tmk::Config cfg;
  cfg.topology = topo;
  cfg.mode = mode;
  cfg.cost = paper_cost();
  cfg.heap_bytes = 64u << 20;
  return cfg;
}

// The canonical config string the paper runs use, OMSP_CONFIG applied: the
// bench JSON names it so per-configuration baselines never collide.
inline std::string paper_config_string() {
  return paper_config(tmk::Mode::kThread).with_env().to_string();
}

// Problem-size tier: the regular bench sizes (scaled below the paper's but
// calibrated for the tables), or the CI smoke tier — small enough to run in
// seconds, still exercising every protocol path. Selected once per process
// by parse_bench_args(--smoke) before all_apps() materializes its params.
inline bool g_smoke = false;

// Scaled problem sizes (paper's sizes in comments).
inline apps::sor::Params sor_params() {
  if (g_smoke) return {128, 64, 4, 1.0};
  return {512, 256, 20, 1.0}; // paper: 8192 x 4096, 20 iterations
}
inline apps::mgs::Params mgs_params() {
  if (g_smoke) return {64, 64, 3};
  return {256, 256, 7}; // paper: 2048 x 2048
}
inline apps::tsp::Params tsp_params() {
  if (g_smoke) return {9, 42, 5};
  return {13, 42, 10}; // paper: 19 cities, -r14
}
inline apps::water::Params water_params() {
  if (g_smoke) return {128, 2, 1e-3, 0.3, 11};
  return {512, 3, 1e-3, 0.3, 11}; // paper: 4096 molecules, 4 steps
}
inline apps::fft3d::Params fft_params() {
  // nx and nz must stay divisible by the 16 MPI ranks.
  if (g_smoke) return {32, 16, 16, 2, 2};
  return {64, 64, 32, 4, 5}; // paper: 128 x 128 x 64, 10 iterations
}
inline apps::barnes::Params barnes_params() {
  if (g_smoke) return {256, 2, 0.7, 0.02, 0.05, 17};
  return {2048, 3, 0.7, 0.02, 0.05, 17}; // paper: 65536 bodies
}

// Shared CLI for the table/figure benches: `--smoke` switches to the CI
// problem sizes, `--json <path>` additionally writes machine-readable rows
// (scripts/bench_smoke.sh merges them into BENCH_pr3.json).
struct BenchArgs {
  bool smoke = false;
  std::string json_path;
  // speedup_curve only: `--scale` switches to the beyond-the-SP2 machine
  // sweep; `--seed <n>` (nonzero) runs its MPI curves over seeded lossy
  // links. Other benches accept and ignore both.
  bool scale = false;
  std::uint64_t seed = 0;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      a.smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      a.scale = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      a.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--scale] [--seed <n>] "
                   "[--json <path>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  g_smoke = a.smoke;
  return a;
}

// Minimal JSON emitter for the bench rows — flat enough that a hand-rolled
// writer beats a dependency.
class JsonObject {
public:
  void add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    fields_.push_back("\"" + key + "\": " + buf);
  }
  void add(const std::string& key, std::uint64_t v) {
    fields_.push_back("\"" + key + "\": " + std::to_string(v));
  }
  void add(const std::string& key, bool v) {
    fields_.push_back(std::string("\"") + key + "\": " + (v ? "true" : "false"));
  }
  void add(const std::string& key, const std::string& raw_value) {
    fields_.push_back("\"" + key + "\": " + raw_value);
  }
  void add_string(const std::string& key, const std::string& s) {
    fields_.push_back("\"" + key + "\": \"" + s + "\"");
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += fields_[i];
    }
    return out + "}";
  }

private:
  std::vector<std::string> fields_;
};

// Stats of one app run as a JSON object (the quantities the drift check and
// the perf trajectory care about).
inline std::string run_json(const apps::Result& r) {
  JsonObject o;
  o.add("time_us", r.time_us);
  o.add("msgs", r.stats[Counter::kMsgsSent]);
  o.add("bytes", r.stats[Counter::kBytesSent]);
  o.add("offnode_msgs", r.stats[Counter::kMsgsOffNode]);
  o.add("offnode_bytes", r.stats[Counter::kBytesOffNode]);
  return o.str();
}

inline void write_json_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(body.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

struct AppEntry {
  const char* name;
  const char* directives; // Table 1's "OpenMP parallel directives" column
  apps::Result (*run_seq)(double cpu_scale);
  apps::Result (*run_omp)(const tmk::Config& cfg);
  apps::Result (*run_mpi)(const sim::Topology&, const sim::CostModel&);
  std::string size_desc;
};

inline std::vector<AppEntry> all_apps() {
  static const auto sor_p = sor_params();
  static const auto mgs_p = mgs_params();
  static const auto tsp_p = tsp_params();
  static const auto water_p = water_params();
  static const auto fft_p = fft_params();
  static const auto barnes_p = barnes_params();
  std::vector<AppEntry> apps_list;
  apps_list.push_back(
      {"Barnes", "parallel region",
       [](double s) { return apps::barnes::run_seq(barnes_p, s); },
       [](const tmk::Config& c) { return apps::barnes::run_omp(barnes_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::barnes::run_mpi(barnes_p, t, m);
       },
       std::to_string(barnes_p.bodies) + " bodies, " +
           std::to_string(barnes_p.iters) + " iters"});
  apps_list.push_back(
      {"3D-FFT", "parallel for",
       [](double s) { return apps::fft3d::run_seq(fft_p, s); },
       [](const tmk::Config& c) { return apps::fft3d::run_omp(fft_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::fft3d::run_mpi(fft_p, t, m);
       },
       std::to_string(fft_p.nx) + "x" + std::to_string(fft_p.ny) + "x" +
           std::to_string(fft_p.nz) + ", " + std::to_string(fft_p.iters) +
           " iters"});
  apps_list.push_back(
      {"Water", "parallel for/region",
       [](double s) { return apps::water::run_seq(water_p, s); },
       [](const tmk::Config& c) { return apps::water::run_omp(water_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::water::run_mpi(water_p, t, m);
       },
       std::to_string(water_p.molecules) + " molecules, " +
           std::to_string(water_p.steps) + " steps"});
  apps_list.push_back(
      {"SOR", "parallel for",
       [](double s) { return apps::sor::run_seq(sor_p, s); },
       [](const tmk::Config& c) { return apps::sor::run_omp(sor_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::sor::run_mpi(sor_p, t, m);
       },
       std::to_string(sor_p.rows) + "x" + std::to_string(sor_p.cols) + ", " +
           std::to_string(sor_p.iters) + " iters"});
  apps_list.push_back(
      {"TSP", "parallel region",
       [](double s) { return apps::tsp::run_seq(tsp_p, s); },
       [](const tmk::Config& c) { return apps::tsp::run_omp(tsp_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::tsp::run_mpi(tsp_p, t, m);
       },
       std::to_string(tsp_p.cities) + " cities, -r" +
           std::to_string(tsp_p.solve_threshold)});
  apps_list.push_back(
      {"MGS", "parallel for",
       [](double s) { return apps::mgs::run_seq(mgs_p, s); },
       [](const tmk::Config& c) { return apps::mgs::run_omp(mgs_p, c); },
       [](const sim::Topology& t, const sim::CostModel& m) {
         return apps::mgs::run_mpi(mgs_p, t, m);
       },
       std::to_string(mgs_p.n) + " x " + std::to_string(mgs_p.dim)});
  return apps_list;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

} // namespace omsp::bench
