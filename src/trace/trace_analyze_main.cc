// omsp-trace — analyzer CLI for omsp binary traces.
//
//   omsp-trace summary <run.trace>            event census + audit verdict +
//                                             the run's config string
//   omsp-trace pages   <run.trace> [--top N]  per-page fault/diff heatmap
//   omsp-trace threads <run.trace>            per-rank virtual-time breakdown
//   omsp-trace races   <run.trace>            data-race report digest (v7)
//   omsp-trace check   <run.trace>            trace totals vs embedded counters
//   omsp-trace export  <run.trace> -o t.json  convert to Chrome trace JSON
//   omsp-trace record  <sor|tsp> [--mode thread|process] [-o base]
//                                             run an app with tracing enabled,
//                                             write base.trace, then export
//                                             it to base.json
//   omsp-trace --self-check                   record SOR and TSP in both
//                                             modes, audit each trace, exit
//                                             non-zero on any mismatch
//
// The check/self-check audit is exact: every StatsBoard counter must equal
// the total reconstructed from the trace (see reconstruct_counters), and the
// trace must be lossless (no ring overflow drops).
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "net/message.hpp"
#include "trace/sinks.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace omsp;
using namespace omsp::trace;

int usage() {
  std::fprintf(
      stderr,
      "usage: omsp-trace <summary|pages|threads|races|check|export|record> "
      "...\n"
      "       omsp-trace --self-check\n");
  return 2;
}

// ---------------------------------------------------------------------------

void cmd_summary(const TraceFile& tf) {
  struct MsgRow {
    std::uint64_t count = 0, bytes = 0, offnode = 0, perturbed = 0;
    std::uint64_t lost = 0, rexmit = 0; // reliability layer, per type
    double lat_sum = 0, lat_max = 0; // modeled one-way cost (dur_us)
  };
  struct CollLevel {
    std::uint64_t stages = 0, bytes = 0;
  };
  std::map<EventKind, std::uint64_t> by_kind;
  std::map<ContextId, std::uint64_t> by_ctx;
  std::map<net::MsgType, MsgRow> by_msg;
  std::map<std::uint64_t, CollLevel> coll_levels; // level -> stage traffic
  std::uint64_t losses = 0, rexmits = 0, acks = 0;
  double rto_wait = 0; // total modeled time spent in retransmission timers
  double tmax = 0;
  for (const Event& e : tf.events) {
    ++by_kind[e.kind];
    ++by_ctx[e.ctx];
    tmax = std::max(tmax, e.ts_us + e.dur_us);
    if (e.kind == EventKind::kMessage) {
      MsgRow& row = by_msg[net::message_type_of_arg1(e.arg1)];
      ++row.count;
      row.bytes += e.arg0;
      if (e.flags & kFlagOffNode) ++row.offnode;
      if (e.flags & kFlagPerturbed) ++row.perturbed;
      row.lat_sum += e.dur_us;
      row.lat_max = std::max(row.lat_max, e.dur_us);
    } else if (e.kind == EventKind::kMessageLost) {
      ++by_msg[net::message_type_of_arg1(e.arg1)].lost;
      ++losses;
    } else if (e.kind == EventKind::kRetransmit) {
      ++by_msg[net::message_type_of_arg1(e.arg1)].rexmit;
      ++rexmits;
      rto_wait += e.dur_us;
    } else if (e.kind == EventKind::kAck) {
      ++acks;
    } else if (e.kind == EventKind::kCollStage) {
      CollLevel& lvl = coll_levels[e.arg1 >> 32];
      ++lvl.stages;
      lvl.bytes += e.arg0;
    }
  }
  std::printf("%zu events, %" PRIu64 " dropped, %.1f us of virtual time\n\n",
              tf.events.size(), tf.dropped, tmax);
  std::printf("%-18s %12s\n", "event", "count");
  for (const auto& [kind, n] : by_kind)
    std::printf("%-18s %12" PRIu64 "\n", event_name(kind), n);
  if (!by_msg.empty()) {
    std::printf("\n%-18s %10s %12s %10s %10s %8s %8s %10s %10s\n", "message",
                "count", "bytes", "offnode", "perturbed", "lost", "rexmit",
                "lat_mean", "lat_max");
    for (const auto& [type, row] : by_msg)
      std::printf("%-18s %10" PRIu64 " %12" PRIu64 " %10" PRIu64 " %10" PRIu64
                  " %8" PRIu64 " %8" PRIu64 " %10.2f %10.2f\n",
                  net::msg_name(type), row.count, row.bytes, row.offnode,
                  row.perturbed, row.lost, row.rexmit,
                  row.count != 0 ? row.lat_sum / static_cast<double>(row.count)
                                 : 0.0,
                  row.lat_max);
  }
  if (losses != 0 || rexmits != 0 || acks != 0)
    std::printf("\nreliability: %" PRIu64 " lost, %" PRIu64
                " retransmits (%.1f us in RTO timers), %" PRIu64 " acks\n",
                losses, rexmits, rto_wait, acks);
  if (!coll_levels.empty()) {
    std::uint64_t stages = 0;
    for (const auto& [level, row] : coll_levels) stages += row.stages;
    // A root-to-leaf path crosses each stage level at most once, in
    // decreasing order, so the deepest tree has one hop per distinct level
    // observed — the distinct-level count is the max tree depth.
    std::printf("\ncollectives: %" PRIu64
                " stage messages, max tree depth %zu (top stage level %"
                PRIu64 ")\n",
                stages, coll_levels.size(), coll_levels.rbegin()->first);
    std::printf("%-18s %12s %12s\n", "level", "stages", "bytes");
    for (const auto& [level, row] : coll_levels)
      std::printf("level%-13" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n", level,
                  row.stages, row.bytes);
  }
  std::printf("\n%-18s %12s\n", "context", "events");
  for (const auto& [ctx, n] : by_ctx)
    std::printf("ctx%-15u %12" PRIu64 "\n", ctx, n);
}

// ---------------------------------------------------------------------------

struct PageRow {
  std::uint64_t faults = 0, wfaults = 0, twins = 0, diffs_created = 0,
                diffs_applied = 0, invalidations = 0, fetches = 0,
                fetch_bytes = 0;
  std::uint64_t total() const {
    return faults + twins + diffs_created + diffs_applied + invalidations +
           fetches;
  }
};

void cmd_pages(const TraceFile& tf, std::size_t top) {
  std::map<std::uint64_t, PageRow> pages;
  for (const Event& e : tf.events) {
    switch (e.kind) {
    case EventKind::kPageFault:
      ++pages[e.arg0].faults;
      if (e.flags & kFlagWrite) ++pages[e.arg0].wfaults;
      break;
    case EventKind::kTwinCreate: ++pages[e.arg0].twins; break;
    case EventKind::kDiffCreate: ++pages[e.arg0].diffs_created; break;
    case EventKind::kDiffApply: ++pages[e.arg0].diffs_applied; break;
    case EventKind::kInvalidate: ++pages[e.arg0].invalidations; break;
    case EventKind::kDiffFetch:
      ++pages[e.arg0].fetches;
      pages[e.arg0].fetch_bytes += e.arg1;
      break;
    default: break;
    }
  }
  std::vector<std::pair<std::uint64_t, PageRow>> rows(pages.begin(),
                                                      pages.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total() > b.second.total();
  });
  std::printf("%zu pages with protocol activity; top %zu by event count:\n\n",
              rows.size(), std::min(top, rows.size()));
  std::printf("%8s %8s %8s %6s %8s %8s %8s %8s %10s\n", "page", "faults",
              "wfaults", "twins", "diffs+", "diffs<", "invals", "fetches",
              "fetchB");
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const auto& [p, r] = rows[i];
    std::printf("%8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %6" PRIu64
                " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %10" PRIu64 "\n",
                p, r.faults, r.wfaults, r.twins, r.diffs_created,
                r.diffs_applied, r.invalidations, r.fetches, r.fetch_bytes);
  }
  // Coarse heatmap over the touched page range: fault density per bucket.
  if (!pages.empty()) {
    const std::uint64_t lo = pages.begin()->first;
    const std::uint64_t hi = pages.rbegin()->first;
    constexpr int kBuckets = 64;
    std::vector<std::uint64_t> heat(kBuckets, 0);
    const std::uint64_t span = hi - lo + 1;
    for (const auto& [p, r] : pages)
      heat[static_cast<std::size_t>((p - lo) * kBuckets / span)] += r.faults;
    const std::uint64_t peak =
        std::max<std::uint64_t>(1, *std::max_element(heat.begin(), heat.end()));
    static const char* shades[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
    std::printf("\nfault heatmap, pages %" PRIu64 "..%" PRIu64 ": [", lo, hi);
    for (const auto h : heat)
      std::fputs(shades[h * 7 / peak], stdout);
    std::printf("]\n");
  }
}

// ---------------------------------------------------------------------------

// Digest of the vector-clock detector's output (race=page|word traces): sweep
// totals, then one row per distinct (page, writer pair) with the merged byte
// range — the shape a user needs to map a report back to a data structure.
// Exit status mirrors the verdict so scripts can assert "race-clean".
int cmd_races(const TraceFile& tf) {
  struct PairRow {
    std::uint64_t reports = 0;
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0; // merged byte range
    std::uint64_t seq_a = 0, seq_b = 0;           // example interval pair
  };
  std::uint64_t sweeps = 0, checks = 0, entries = 0;
  // Key: page << 32 | ctx_a << 16 | ctx_b (ctx pairs are 16-bit on the wire).
  std::map<std::uint64_t, PairRow> pairs;
  for (const Event& e : tf.events) {
    if (e.kind == EventKind::kRaceCheck) {
      ++sweeps;
      checks += e.arg0;
      entries += e.arg1;
    } else if (e.kind == EventKind::kRaceDetected) {
      const std::uint64_t page = e.arg0 >> 32;
      const std::uint64_t lo = (e.arg0 >> 16) & 0xFFFFu;
      const std::uint64_t hi = e.arg0 & 0xFFFFu;
      const std::uint64_t ctx_a = e.arg1 >> 48;
      const std::uint64_t ctx_b = (e.arg1 >> 32) & 0xFFFFu;
      PairRow& row = pairs[page << 32 | ctx_a << 16 | ctx_b];
      ++row.reports;
      row.lo = std::min(row.lo, lo);
      row.hi = std::max(row.hi, hi);
      row.seq_a = (e.arg1 >> 16) & 0xFFFFu;
      row.seq_b = e.arg1 & 0xFFFFu;
    }
  }
  if (sweeps == 0) {
    std::printf("no detector sweeps in this trace — was it recorded with "
                "race=page|word in OMSP_CONFIG?\n");
    return 2;
  }
  std::printf("%" PRIu64 " detector sweeps, %" PRIu64 " pairwise checks over %"
              PRIu64 " write entries\n",
              sweeps, checks, entries);
  if (pairs.empty()) {
    std::printf("race-clean: no concurrent overlapping writes detected\n");
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& [key, row] : pairs) total += row.reports;
  std::printf("\n%" PRIu64 " write-write race report(s), %zu distinct "
              "(page, writer-pair) site(s):\n\n",
              total, pairs.size());
  std::printf("%8s %8s %16s %8s %18s\n", "page", "writers", "bytes[lo,hi)",
              "reports", "example seqs");
  for (const auto& [key, row] : pairs)
    std::printf("%8" PRIu64 " %3" PRIu64 "|%-4" PRIu64 " [%6" PRIu64 ",%6"
                PRIu64 ") %8" PRIu64 "     s%" PRIu64 "|s%" PRIu64 "\n",
                key >> 32, (key >> 16) & 0xFFFFu, key & 0xFFFFu, row.lo,
                row.hi, row.reports, row.seq_a, row.seq_b);
  return 1;
}

// ---------------------------------------------------------------------------

void cmd_threads(const TraceFile& tf) {
  struct RankRow {
    ContextId ctx = 0;
    double span = 0, fault = 0, sync = 0;
    std::uint64_t faults = 0, waits = 0;
  };
  std::map<std::uint32_t, RankRow> ranks;
  for (const Event& e : tf.events) {
    RankRow& r = ranks[e.rank];
    r.span = std::max(r.span, e.ts_us + e.dur_us);
    if (e.kind == EventKind::kPageFault) {
      r.fault += e.dur_us;
      ++r.faults;
      r.ctx = e.ctx;
    } else if (e.kind == EventKind::kBarrierWait ||
               e.kind == EventKind::kLockAcquire) {
      r.sync += e.dur_us;
      ++r.waits;
      r.ctx = e.ctx;
    }
  }
  std::printf("per-rank virtual-time breakdown (us; compute = span - fault "
              "service - sync wait):\n\n");
  std::printf("%6s %6s %12s %12s %12s %12s %8s %8s\n", "rank", "ctx", "span",
              "compute", "fault_svc", "sync_wait", "faults", "waits");
  for (const auto& [rank, r] : ranks) {
    const double compute = std::max(0.0, r.span - r.fault - r.sync);
    std::printf("%6u %6u %12.1f %12.1f %12.1f %12.1f %8" PRIu64 " %8" PRIu64
                "\n",
                rank, r.ctx, r.span, compute, r.fault, r.sync, r.faults,
                r.waits);
  }
}

// ---------------------------------------------------------------------------

// Audit one trace: reconstruct counters from events and compare with the
// StatsSnapshot embedded at record time. Returns true when exact.
bool audit(const TraceFile& tf, bool verbose) {
  bool ok = true;
  if (tf.dropped != 0) {
    std::printf("FAIL: %" PRIu64 " events dropped to full rings — raise "
                "Options::ring_events\n",
                tf.dropped);
    ok = false;
  }
  const StatsSnapshot rec = reconstruct_counters(tf.events);
  if (verbose)
    std::printf("%-22s %14s %14s %10s\n", "counter", "stats", "trace",
                "delta");
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t a = tf.stats[c], b = rec[c];
    if (verbose || a != b)
      std::printf("%-22s %14" PRIu64 " %14" PRIu64 " %10lld%s\n",
                  counter_name(c), a, b,
                  static_cast<long long>(b) - static_cast<long long>(a),
                  a == b ? "" : "   <-- MISMATCH");
    if (a != b) ok = false;
  }
  std::printf("%s\n", ok ? "OK: trace reconstructs every counter exactly"
                         : "FAIL: trace/counter mismatch");
  return ok;
}

// ---------------------------------------------------------------------------

// Run one app with tracing enabled, writing base.trace (and exporting it to
// base.json, as `export` would).
bool record_run(const std::string& app, tmk::Mode mode,
                const std::string& base, bool json) {
  tmk::Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = mode;
  cfg.trace.enabled = true;
  cfg.trace.binary_path = base + ".trace";

  apps::Result r;
  if (app == "sor") {
    apps::sor::Params p;
    p.rows = 128;
    p.cols = 64;
    p.iters = 4;
    r = apps::sor::run_omp(p, cfg);
  } else if (app == "tsp") {
    apps::tsp::Params p;
    p.cities = 9;
    p.solve_threshold = 5;
    r = apps::tsp::run_omp(p, cfg);
  } else {
    std::fprintf(stderr, "unknown app '%s' (want sor|tsp)\n", app.c_str());
    return false;
  }
  if (json)
    write_chrome_json(base + ".json", read_binary(base + ".trace").events);
  std::printf("recorded %s (%s mode): checksum %.6g, %.0f us simulated -> "
              "%s.trace%s\n",
              app.c_str(), mode == tmk::Mode::kThread ? "thread" : "process",
              r.checksum, r.time_us, base.c_str(),
              json ? (" + " + base + ".json").c_str() : "");
  return true;
}

int self_check() {
  struct Case {
    const char* app;
    tmk::Mode mode;
    const char* name;
  };
  const Case cases[] = {
      {"sor", tmk::Mode::kThread, "sor-thread"},
      {"sor", tmk::Mode::kProcess, "sor-process"},
      {"tsp", tmk::Mode::kThread, "tsp-thread"},
      {"tsp", tmk::Mode::kProcess, "tsp-process"},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const std::string base =
        std::string("/tmp/omsp_selfcheck_") + c.name + "_" +
        std::to_string(static_cast<unsigned>(::getpid()));
    std::printf("=== %s ===\n", c.name);
    if (!record_run(c.app, c.mode, base, /*json=*/false)) {
      ++failures;
      continue;
    }
    const TraceFile tf = read_binary(base + ".trace");
    if (!audit(tf, /*verbose=*/false)) ++failures;
    std::remove((base + ".trace").c_str());
    std::printf("\n");
  }
  std::printf("self-check: %d of %zu cases failed\n", failures,
              std::size(cases));
  return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "--self-check") return self_check();

  if (cmd == "record") {
    if (argc < 3) return usage();
    const std::string app = argv[2];
    tmk::Mode mode = tmk::Mode::kThread;
    std::string base = app;
    for (int i = 3; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--mode" && i + 1 < argc) {
        const std::string m = argv[++i];
        if (m == "process")
          mode = tmk::Mode::kProcess;
        else if (m == "thread")
          mode = tmk::Mode::kThread;
        else {
          std::fprintf(stderr, "unknown --mode '%s' (want thread|process)\n",
                       m.c_str());
          return 2;
        }
      } else if (a == "-o" && i + 1 < argc)
        base = argv[++i];
      else
        return usage();
    }
    return record_run(app, mode, base, /*json=*/true) ? 0 : 1;
  }

  if (cmd != "summary" && cmd != "pages" && cmd != "threads" &&
      cmd != "races" && cmd != "check" && cmd != "export")
    return usage();
  if (argc < 3) return usage();
  // Friendly error for a mistyped path; read_binary OMSP_CHECK-aborts.
  if (std::FILE* f = std::fopen(argv[2], "rb"); f == nullptr) {
    std::fprintf(stderr, "omsp-trace: cannot open '%s'\n", argv[2]);
    return 1;
  } else {
    std::fclose(f);
  }
  const TraceFile tf = read_binary(argv[2]);

  if (cmd == "summary") {
    cmd_summary(tf);
    const bool ok = audit(tf, /*verbose=*/false);
    std::printf("\nconfig: %s\n", tf.config.c_str());
    return ok ? 0 : 1;
  }
  if (cmd == "pages") {
    std::size_t top = 20;
    for (int i = 3; i < argc; ++i)
      if (std::string(argv[i]) == "--top" && i + 1 < argc)
        top = static_cast<std::size_t>(std::atoll(argv[++i]));
    cmd_pages(tf, top);
    return 0;
  }
  if (cmd == "threads") {
    cmd_threads(tf);
    return 0;
  }
  if (cmd == "races") return cmd_races(tf);
  if (cmd == "check") return audit(tf, /*verbose=*/true) ? 0 : 1;
  if (cmd == "export") {
    std::string out;
    for (int i = 3; i < argc; ++i)
      if (std::string(argv[i]) == "-o" && i + 1 < argc) out = argv[++i];
    if (out.empty()) return usage();
    write_chrome_json(out, tf.events);
    std::printf("wrote %s (%zu events)\n", out.c_str(), tf.events.size());
    return 0;
  }
  return usage();
}
