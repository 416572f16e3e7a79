// omsp_perf — driver of the repository benchmark (perfbench/README.md).
//
// Runs one workload, a fixed list of paper applications in one execution
// mode on a 2-node x 2-processor machine, and prints one JSON record per
// line for every span it times:
//   seq   — one app's run_seq, the checksum reference (once per app);
//   setup — construction and teardown of the workload's runtime
//           (core::OmpRuntime, or mpi::MpiWorld for the MPI workload);
//   run   — one apps::<app>::run_omp / run_mpi call, with its modeled time,
//           its checksum verdict against run_seq and its StatsSnapshot;
//   pass  — one pass over the workload's apps.
// Every span carries its host wall time and its getrusage delta; the last
// line carries the process's peak resident set. perfbench/run.py aggregates
// the records into the benchmark's metrics.
//
//   omsp_perf --workload dsm-orig|dsm-thread|mpi --seed <n>
//             [--seconds <s>]     time passes until s seconds have elapsed
//                                 (at least one)
//             [--passes <k>]      time exactly k passes instead
//             [--setups <k>]      runtime construct+destroy samples, spread
//                                 over the timed passes (0)
//             [--cpu-scale <x>]   modeled compute per host CPU second (0)
//             [--trace-dir <dir>] trace each timed run to <dir>/p<k>-<app>.trace
//
// Every invocation first runs one untimed warm-up pass (record "warmup":
// true), checked like the others. A failed OMSP_CHECK aborts the process;
// run.py counts the run that was in flight as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "apps/barnes.hpp"
#include "apps/fft3d.hpp"
#include "apps/mgs.hpp"
#include "apps/sor.hpp"
#include "apps/water.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace omsp;

// --- applications -------------------------------------------------------------

struct App {
  std::string name;
  double tolerance; // relative checksum tolerance of tests/apps/apps_test.cc
  std::function<apps::Result()> seq;
  std::function<apps::Result(const tmk::Config&)> omp;
  std::function<apps::Result(const sim::Topology&, const sim::CostModel&)> mpi;
};

template <typename P>
App make_app(const char* name, double tolerance, P p,
             apps::Result (*seq)(const P&, double),
             apps::Result (*omp)(const P&, const tmk::Config&),
             apps::Result (*mpi)(const P&, const sim::Topology&,
                                 const sim::CostModel&,
                                 const net::PerturbOptions&)) {
  return {name, tolerance, [=] { return seq(p, 0.0); },
          [=](const tmk::Config& c) { return omp(p, c); },
          [=](const sim::Topology& t, const sim::CostModel& m) {
            return mpi(p, t, m, {});
          }};
}

// The regular (non --smoke) problem sizes of bench/bench_common.hpp, pinned
// here so that the benchmark's inputs change only with the benchmark. The
// workload seed feeds every generator-driven app.
App make_app(const std::string& name, std::uint64_t seed) {
  if (name == "SOR")
    return make_app("SOR", 1e-9, apps::sor::Params{512, 256, 20, 1.0},
                    &apps::sor::run_seq, &apps::sor::run_omp,
                    &apps::sor::run_mpi);
  if (name == "MGS")
    return make_app("MGS", 1e-8, apps::mgs::Params{256, 256, seed},
                    &apps::mgs::run_seq, &apps::mgs::run_omp,
                    &apps::mgs::run_mpi);
  if (name == "3D-FFT")
    return make_app("3D-FFT", 1e-9, apps::fft3d::Params{64, 64, 32, 4, seed},
                    &apps::fft3d::run_seq, &apps::fft3d::run_omp,
                    &apps::fft3d::run_mpi);
  if (name == "Barnes")
    return make_app("Barnes", 1e-9,
                    apps::barnes::Params{2048, 3, 0.7, 0.02, 0.05, seed},
                    &apps::barnes::run_seq, &apps::barnes::run_omp,
                    &apps::barnes::run_mpi);
  OMSP_CHECK(name == "Water");
  return make_app("Water", 1e-9, apps::water::Params{512, 3, 1e-3, 0.3, seed},
                  &apps::water::run_seq, &apps::water::run_omp,
                  &apps::water::run_mpi);
}

// --- workloads ------------------------------------------------------------------

struct Workload {
  const char* name;
  bool mpi;
  tmk::Mode mode; // DSM workloads only
  std::vector<std::string> apps;
};

const Workload kWorkloads[] = {
    {"dsm-orig", false, tmk::Mode::kProcess, {"MGS", "3D-FFT"}},
    {"dsm-thread", false, tmk::Mode::kThread, {"SOR", "Barnes"}},
    {"mpi", true, tmk::Mode::kThread, {"SOR", "MGS", "3D-FFT", "Barnes", "Water"}},
};

sim::Topology machine() { return sim::Topology(2, 2); }

sim::CostModel cost(double cpu_scale) {
  sim::CostModel m = sim::CostModel::sp2_default();
  m.cpu_scale = cpu_scale;
  return m;
}

tmk::Config dsm_config(const Workload& w, double cpu_scale) {
  tmk::Config cfg;
  cfg.topology = machine();
  cfg.mode = w.mode;
  cfg.cost = cost(cpu_scale);
  cfg.heap_bytes = 64u << 20; // bench::paper_config's heap
  return cfg;
}

// --- host measurement -------------------------------------------------------------

struct Usage {
  double wall_s = 0, user_s = 0, sys_s = 0;
  long minflt = 0, majflt = 0, vol_csw = 0, invol_csw = 0;
};

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.majflt = ru.ru_majflt;
  u.vol_csw = ru.ru_nvcsw;
  u.invol_csw = ru.ru_nivcsw;
  return u;
}

// The process's own peak resident set in MB. getrusage's ru_maxrss is no
// use here: Linux carries the parent's high-water mark across fork and exec,
// so it would report run.py's resident set whenever that is the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- output ---------------------------------------------------------------------

class Record {
public:
  explicit Record(const char* span) { text_ = std::string("{\"span\": \"") + span + "\""; }
  Record& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    return raw(key, buf);
  }
  Record& integer(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  Record& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Record& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Record& usage(const Usage& a, const Usage& b) {
    num("wall_s", b.wall_s - a.wall_s);
    num("user_s", b.user_s - a.user_s);
    num("sys_s", b.sys_s - a.sys_s);
    integer("minflt", b.minflt - a.minflt);
    integer("majflt", b.majflt - a.majflt);
    integer("vol_csw", b.vol_csw - a.vol_csw);
    return integer("invol_csw", b.invol_csw - a.invol_csw);
  }
  Record& stats(const StatsSnapshot& s) {
    std::string obj = "{";
    for (std::size_t i = 0; i < s.v.size(); ++i) {
      if (i != 0) obj += ", ";
      obj += std::string("\"") + counter_name(static_cast<Counter>(i)) +
             "\": " + std::to_string(s.v[i]);
    }
    return raw("stats", obj + "}");
  }
  void print() {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout); // records survive an OMSP_CHECK abort later on
  }

private:
  Record& raw(const char* key, const std::string& value) {
    text_ += std::string(", \"") + key + "\": " + value;
    return *this;
  }
  std::string text_;
};

// --- the benchmark ------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0;
  int passes = 0;
  int setups = 0;
  double cpu_scale = 0;
  std::string trace_dir;
};

[[noreturn]] void usage_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dsm-orig|dsm-thread|mpi --seed <n> "
               "[--seconds <s> | --passes <k>] [--setups <k>] "
               "[--cpu-scale <x>] [--trace-dir <dir>]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_exit(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--passes") {
      o.passes = std::atoi(v);
    } else if (a == "--setups") {
      o.setups = std::atoi(v);
    } else if (a == "--cpu-scale") {
      o.cpu_scale = std::atof(v);
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else {
      usage_exit(argv[0]);
    }
  }
  if (o.workload == nullptr || (o.seconds <= 0 && o.passes <= 0))
    usage_exit(argv[0]);
  return o;
}

// One run_mpi call under a tracer installed here: MpiWorld has no trace
// option of its own, but its router emits the same message events.
apps::Result traced_mpi(const App& app, const sim::CostModel& m,
                        const std::string& path) {
  trace::Options topts;
  topts.enabled = true;
  topts.binary_path = path;
  trace::Tracer tracer(topts);
  OMSP_CHECK(tracer.install());
  const apps::Result r = app.mpi(machine(), m);
  tracer.finish(r.stats);
  return r;
}

apps::Result run_app(const Options& o, const App& app, const std::string& trace) {
  if (o.workload->mpi) {
    if (!trace.empty()) return traced_mpi(app, cost(o.cpu_scale), trace);
    return app.mpi(machine(), cost(o.cpu_scale));
  }
  tmk::Config cfg = dsm_config(*o.workload, o.cpu_scale);
  if (!trace.empty()) {
    cfg.trace.enabled = true;
    cfg.trace.binary_path = trace;
  }
  return app.omp(cfg);
}

void setup_once(const Options& o) {
  if (o.workload->mpi) {
    mpi::MpiWorld world(machine(), cost(o.cpu_scale));
  } else {
    core::OmpRuntime rt(dsm_config(*o.workload, o.cpu_scale));
  }
}

// A setup sample constructs and destroys the runtime back to back for at
// least 20 ms (an MpiWorld takes microseconds) and records how many times.
void setup_sample(const Options& o, int index) {
  const Usage u0 = usage_now();
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  int count = 0;
  do {
    setup_once(o);
    ++count;
  } while (std::chrono::steady_clock::now() < until);
  const Usage u1 = usage_now();
  Record("setup").integer("index", index).integer("count", count).usage(u0, u1).print();
}

} // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  std::vector<App> apps_list;
  std::vector<double> reference;
  for (const std::string& name : o.workload->apps) {
    apps_list.push_back(make_app(name, o.seed));
    const Usage u0 = usage_now();
    const apps::Result r = apps_list.back().seq();
    const Usage u1 = usage_now();
    reference.push_back(r.checksum);
    Record("seq").str("app", name).num("checksum", r.checksum).usage(u0, u1).print();
  }

  const double start = usage_now().wall_s;
  int setups_done = 0;
  for (int pass = -1;; ++pass) {
    const bool warmup = pass < 0;
    const double progress = o.passes > 0
                                ? static_cast<double>(std::max(pass, 0)) / o.passes
                                : (usage_now().wall_s - start) / o.seconds;
    // Setup samples are spread over the timed passes, so that they see the
    // same host load as the passes do; all are taken by the end.
    while (!warmup && setups_done < o.setups && progress * o.setups >= setups_done)
      setup_sample(o, setups_done++);
    // At least one timed pass, even when the warm-up outlasts --seconds.
    if (!warmup && pass > 0 && progress >= 1) break;
    const Usage p0 = usage_now();
    double modeled_us = 0;
    for (std::size_t i = 0; i < apps_list.size(); ++i) {
      const App& app = apps_list[i];
      std::string trace;
      if (!warmup && !o.trace_dir.empty())
        trace = o.trace_dir + "/p" + std::to_string(pass) + "-" + app.name +
                ".trace";
      const Usage u0 = usage_now();
      const apps::Result r = run_app(o, app, trace);
      const Usage u1 = usage_now();
      const double scale =
          std::max({std::abs(r.checksum), std::abs(reference[i]), 1.0});
      const double err = std::abs(r.checksum - reference[i]) / scale;
      const bool ok = std::isfinite(r.checksum) && err <= app.tolerance;
      modeled_us += r.time_us;
      Record("run")
          .str("app", app.name)
          .integer("pass", pass)
          .flag("warmup", warmup)
          .flag("ok", ok)
          .num("checksum_err", err)
          .num("modeled_us", r.time_us)
          .str("trace", trace)
          .usage(u0, u1)
          .stats(r.stats)
          .print();
    }
    const Usage p1 = usage_now();
    Record("pass")
        .integer("pass", pass)
        .flag("warmup", warmup)
        .num("modeled_ms", modeled_us / 1000.0)
        .usage(p0, p1)
        .print();
  }

  Record("end")
      .str("workload", o.workload->name)
      .integer("seed", static_cast<long long>(o.seed))
      .num("cpu_scale", o.cpu_scale)
      .num("peak_rss_mb", peak_rss_mb())
      .print();
  return 0;
}
