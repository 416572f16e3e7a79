// omsp::trace tests: ring semantics, serialization round-trips, sink output,
// and the end-to-end invariant the subsystem exists to uphold — an enabled
// trace reconstructs every StatsBoard counter exactly (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tmk/system.hpp"
#include "trace/sinks.hpp"
#include "trace/tracer.hpp"

namespace omsp::trace {
namespace {

Event make_event(EventKind kind, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0, std::uint16_t flags = 0) {
  Event e;
  e.kind = kind;
  e.ctx = 1;
  e.rank = 3;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.flags = flags;
  e.ts_us = 12.5;
  e.dur_us = 2.25;
  return e;
}

// ------------------------------------------------------------------ ring ----

TEST(Ring, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(Ring(5).capacity(), 8u);
  EXPECT_EQ(Ring(8).capacity(), 8u);
  EXPECT_EQ(Ring(1).capacity(), 2u);
}

TEST(Ring, DropsWhenFullAndCountsEveryDrop) {
  Ring ring(4);
  for (std::uint64_t i = 0; i < 7; ++i)
    ring.push(make_event(EventKind::kPageFault, i));
  EXPECT_EQ(ring.dropped(), 3u);

  std::vector<Event> out;
  ring.drain([&](const Event& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].arg0, i);
}

TEST(Ring, WrapsCorrectlyAcrossManyDrainCycles) {
  Ring ring(4);
  std::uint64_t next_expected = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.push(make_event(EventKind::kMessage, i)));
    if (i % 3 == 2) {
      ring.drain([&](const Event& e) {
        ASSERT_EQ(e.arg0, next_expected);
        ++next_expected;
      });
    }
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

// --------------------------------------------------------- serialization ----

TEST(EventWire, RoundTripsEveryField) {
  const Event e =
      make_event(EventKind::kLockAcquire, 42, 7, kFlagRemote | kFlagWrite);
  ByteWriter w;
  serialize_event(e, w);
  EXPECT_EQ(w.size(), kEventWireBytes);
  ByteReader r(w.bytes());
  EXPECT_EQ(deserialize_event(r), e);
  EXPECT_TRUE(r.done());
}

TEST(TraceContainer, RoundTripsEventsDropsAndCounters) {
  std::vector<Event> events = {make_event(EventKind::kPageFault, 9),
                               make_event(EventKind::kTwinCreate, 9),
                               make_event(EventKind::kBarrierArrive, 0)};
  StatsSnapshot stats;
  stats[Counter::kPageFaults] = 1;
  stats[Counter::kTwins] = 1;
  stats[Counter::kBarriers] = 1;

  const auto bytes =
      encode_trace(events, /*dropped=*/5, "topo=sp2;coll=tree", stats);
  const TraceFile tf = decode_trace(bytes.data(), bytes.size());
  EXPECT_EQ(tf.events, events);
  EXPECT_EQ(tf.dropped, 5u);
  EXPECT_EQ(tf.config, "topo=sp2;coll=tree");
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(tf.stats.v[c], stats.v[c]) << counter_name(static_cast<Counter>(c));
  EXPECT_EQ(tf.raw_counters.size(),
            static_cast<std::size_t>(Counter::kCount));
}

TEST(TraceContainer, RejectsCorruptMagic) {
  auto bytes = encode_trace({}, 0, "", StatsSnapshot{});
  bytes[0] = 'X';
  EXPECT_DEATH(decode_trace(bytes.data(), bytes.size()), "bad magic");
}

// A length field is checked against the bytes left before anything is
// allocated from it: a corrupt header dies with a message, not with
// std::length_error or a multi-gigabyte allocation.
TEST(TraceContainer, RejectsEventCountBeyondFile) {
  auto bytes = encode_trace({}, 0, "", StatsSnapshot{});
  const std::uint64_t huge = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + bytes.size() - sizeof huge, &huge, sizeof huge);
  EXPECT_DEATH(decode_trace(bytes.data(), bytes.size()),
               "trace event count exceeds the file");
}

TEST(TraceContainer, RejectsStringLengthBeyondFile) {
  auto bytes = encode_trace({}, 0, "", StatsSnapshot{});
  // The config string's length follows magic, version and drop count.
  const std::uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + sizeof kTraceMagic + sizeof(std::uint32_t) +
                  sizeof(std::uint64_t),
              &huge, sizeof huge);
  EXPECT_DEATH(decode_trace(bytes.data(), bytes.size()),
               "ByteReader underflow");
}

TEST(ChromeJson, EmitsSlicesInstantsAndTrackMetadata) {
  std::vector<Event> events = {make_event(EventKind::kPageFault, 9),
                               make_event(EventKind::kTwinCreate, 9)};
  events[1].dur_us = 0; // instant
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"page_fault\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos); // dur > 0
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos); // dur == 0
  EXPECT_NE(json.find("\"name\":\"ctx1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank3\""), std::string::npos);
}

// ---------------------------------------------------------- reconstruction --

TEST(Reconstruct, MapsEveryCounterBearingKind) {
  std::vector<Event> events = {
      make_event(EventKind::kMessage, 100, 2, kFlagOffNode),
      make_event(EventKind::kMessage, 40, 0, 0),
      make_event(EventKind::kPageFault, 3, 0, kFlagWrite),
      make_event(EventKind::kPageFault, 3, 0, 0),
      make_event(EventKind::kTwinCreate, 3),
      make_event(EventKind::kDiffCreate, 3, 64),
      make_event(EventKind::kDiffApply, 3, 64),
      make_event(EventKind::kMprotect, 3, 2),
      make_event(EventKind::kLockAcquire, 7, 0, kFlagRemote),
      make_event(EventKind::kLockAcquire, 7, 0, 0),
      make_event(EventKind::kBarrierArrive, 0),
      make_event(EventKind::kIntervalClose, 4, 2),
      make_event(EventKind::kWriteNoticesSent, 6),
      make_event(EventKind::kWriteNoticesRecv, 5),
      make_event(EventKind::kInvalidate, 3),
      make_event(EventKind::kFullPageFetch, 3),
      // Analysis-only kinds must not perturb any counter.
      make_event(EventKind::kBarrierWait, 0),
      make_event(EventKind::kDiffFetch, 3, 80),
      make_event(EventKind::kGcEpisode, 9000),
      make_event(EventKind::kRegionBegin, 1),
      make_event(EventKind::kRegionEnd, 1),
  };
  const StatsSnapshot s = reconstruct_counters(events);
  EXPECT_EQ(s[Counter::kMsgsSent], 2u);
  EXPECT_EQ(s[Counter::kBytesSent], 140u);
  EXPECT_EQ(s[Counter::kMsgsOffNode], 1u);
  EXPECT_EQ(s[Counter::kBytesOffNode], 100u);
  EXPECT_EQ(s[Counter::kPageFaults], 2u);
  EXPECT_EQ(s[Counter::kWriteFaults], 1u);
  EXPECT_EQ(s[Counter::kReadFaults], 1u);
  EXPECT_EQ(s[Counter::kTwins], 1u);
  EXPECT_EQ(s[Counter::kDiffsCreated], 1u);
  EXPECT_EQ(s[Counter::kDiffBytesCreated], 64u);
  EXPECT_EQ(s[Counter::kDiffsApplied], 1u);
  EXPECT_EQ(s[Counter::kMprotect], 1u);
  EXPECT_EQ(s[Counter::kLockAcquires], 2u);
  EXPECT_EQ(s[Counter::kLockRemoteAcquires], 1u);
  EXPECT_EQ(s[Counter::kBarriers], 1u);
  EXPECT_EQ(s[Counter::kIntervals], 1u);
  EXPECT_EQ(s[Counter::kWriteNoticesSent], 6u);
  EXPECT_EQ(s[Counter::kWriteNoticesRecv], 5u);
  EXPECT_EQ(s[Counter::kPageInvalidations], 1u);
  EXPECT_EQ(s[Counter::kFullPageFetches], 1u);
}

// The one kind→counter table: between them the kinds move all 31 counters,
// and the analysis-only kinds move none.
TEST(CountEvent, EveryCounterHasAKind) {
  const std::array<EventKind, 6> analysis_only = {
      EventKind::kRegionBegin, EventKind::kRegionEnd,
      EventKind::kDiffFetch,   EventKind::kBarrierWait,
      EventKind::kLockGrant,   EventKind::kGcEpisode};
  const std::array<std::uint16_t, 2> flag_sets = {
      0, kFlagWrite | kFlagOffNode | kFlagRemote};
  std::array<bool, static_cast<std::size_t>(Counter::kCount)> touched{};
  for (std::uint16_t k = 0; k < static_cast<std::uint16_t>(EventKind::kCount);
       ++k) {
    const auto kind = static_cast<EventKind>(k);
    const bool counted = std::find(analysis_only.begin(), analysis_only.end(),
                                   kind) == analysis_only.end();
    for (const std::uint16_t flags : flag_sets)
      count_event(make_event(kind, 1, 1, flags),
                  [&](Counter c, std::uint64_t) {
                    EXPECT_TRUE(counted) << event_name(kind) << " moves "
                                         << counter_name(c);
                    touched[static_cast<std::size_t>(c)] = true;
                  });
  }
  for (std::size_t c = 0; c < touched.size(); ++c)
    EXPECT_TRUE(touched[c]) << counter_name(static_cast<Counter>(c))
                            << " has no kind";
}

// ----------------------------------------------------------- tracer core ----

Options enabled_options(std::size_t ring_events = 1u << 16) {
  Options o;
  o.enabled = true;
  o.ring_events = ring_events;
  return o;
}

TEST(Tracer, SecondInstallLosesAndEmissionGoesToFirst) {
  Tracer first(enabled_options());
  Tracer second(enabled_options());
  ASSERT_TRUE(first.install());
  EXPECT_FALSE(second.install());
  EXPECT_EQ(Tracer::active(), &first);

  note(EventKind::kTwinCreate, 0, 11);
  EXPECT_EQ(first.snapshot_events().size(), 1u);
  EXPECT_EQ(second.snapshot_events().size(), 0u);

  first.uninstall();
  EXPECT_EQ(Tracer::active(), nullptr);
  note(EventKind::kTwinCreate, 0, 12); // no active tracer: dropped silently
  EXPECT_EQ(first.snapshot_events().size(), 1u);
}

TEST(Tracer, ClearResetsEventsAndDropAccounting) {
  Tracer tr(enabled_options(/*ring_events=*/4));
  ASSERT_TRUE(tr.install());
  for (int i = 0; i < 10; ++i) note(EventKind::kInvalidate, 0, i);
  EXPECT_EQ(tr.dropped_total(), 6u);
  tr.clear();
  EXPECT_EQ(tr.dropped_total(), 0u);
  EXPECT_TRUE(tr.snapshot_events().empty());
  note(EventKind::kInvalidate, 0, 99);
  EXPECT_EQ(tr.snapshot_events().size(), 1u);
  tr.uninstall();
}

// record() counts on the board whether or not a tracer is active, and with
// one active it emits exactly the event it counted.
TEST(Record, CountsWithoutTracerAndTracesTheSameEvent) {
  const std::uint64_t a1 = (std::uint64_t{5} << 32) | 2;
  StatsBoard board;
  Tracer tr(enabled_options());
  ASSERT_EQ(Tracer::active(), nullptr);
  record(board, EventKind::kMessage, 3, 100, a1, kFlagOffNode, 2.5);
  EXPECT_TRUE(tr.snapshot_events().empty());
  StatsSnapshot once;
  board.accumulate(once.v);
  StatsSnapshot expected;
  expected[Counter::kMsgsSent] = 1;
  expected[Counter::kMsgsOffNode] = 1;
  expected[Counter::kBytesSent] = 100;
  expected[Counter::kBytesOffNode] = 100;
  EXPECT_EQ(once.v, expected.v);

  ASSERT_TRUE(tr.install());
  record(board, EventKind::kMessage, 3, 100, a1, kFlagOffNode, 2.5);
  const std::vector<Event> events = tr.snapshot_events();
  tr.uninstall();
  StatsSnapshot twice;
  board.accumulate(twice.v);
  ASSERT_EQ(events.size(), 1u);
  const Event& e = events[0];
  EXPECT_EQ(e.kind, EventKind::kMessage);
  EXPECT_EQ(e.ctx, 3u);
  EXPECT_EQ(e.arg0, 100u);
  EXPECT_EQ(e.arg1, a1);
  EXPECT_EQ(e.flags, kFlagOffNode);
  EXPECT_EQ(e.dur_us, 2.5);
  const StatsSnapshot rebuilt = reconstruct_counters(events);
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], twice.v[c] - once.v[c])
        << counter_name(static_cast<Counter>(c));
  EXPECT_EQ(rebuilt.v, expected.v);
}

// ----------------------------------------------------------- integration ----

// The protocol-hostile triangular-update pattern (see tests/tmk/stress_test)
// plus explicit barrier and lock traffic, run with tracing enabled: the
// reconstructed counters must equal the live StatsBoard totals EXACTLY, and
// nothing may be dropped.
void run_traced_workload(tmk::Mode mode) {
  tmk::Config cfg;
  cfg.topology = sim::Topology(2, 2);
  cfg.mode = mode;
  cfg.trace.enabled = true;
  tmk::DsmSystem dsm(cfg);
  ASSERT_NE(dsm.tracer(), nullptr);

  constexpr std::int64_t kN = 16, kD = 512; // one page per vector
  auto data = dsm.alloc_page_aligned<long>(kN * kD);
  auto counter = dsm.alloc_page_aligned<long>(1);
  for (std::int64_t i = 0; i < kN * kD; ++i) data[i] = 1;
  counter[0] = 0;

  for (std::int64_t i = 0; i < kN; i += 4) {
    dsm.parallel([&](Rank r) {
      const std::int64_t lo = i, hi = std::min<std::int64_t>(i + 4, kN);
      for (std::int64_t j = lo + r; j < hi; j += dsm.nprocs())
        for (std::int64_t k = 0; k < kD; ++k) data[j * kD + k] += j;
      dsm.barrier();
      dsm.lock_acquire(3);
      counter[0] = counter[0] + 1;
      dsm.lock_release(3);
      dsm.barrier();
    });
  }
  EXPECT_EQ(counter[0], (kN / 4) * static_cast<long>(dsm.nprocs()));

  const auto events = dsm.tracer()->snapshot_events();
  EXPECT_GT(events.size(), 0u);
  EXPECT_EQ(dsm.tracer()->dropped_total(), 0u);

  const StatsSnapshot live = dsm.stats();
  const StatsSnapshot rebuilt = reconstruct_counters(events);
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
  // The workload must exercise the full taxonomy's counter-bearing core.
  EXPECT_GT(live[Counter::kPageFaults], 0u);
  EXPECT_GT(live[Counter::kBarriers], 0u);
  EXPECT_GT(live[Counter::kLockAcquires], 0u);
  EXPECT_GT(live[Counter::kDiffsCreated], 0u);
}

TEST(TraceIntegration, ReconstructsCountersExactlyThreadMode) {
  run_traced_workload(tmk::Mode::kThread);
}

TEST(TraceIntegration, ReconstructsCountersExactlyProcessMode) {
  run_traced_workload(tmk::Mode::kProcess);
}

TEST(TraceIntegration, ResetStatsAlsoClearsTrace) {
  tmk::Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.trace.enabled = true;
  tmk::DsmSystem dsm(cfg);
  ASSERT_NE(dsm.tracer(), nullptr);

  auto x = dsm.alloc_page_aligned<long>(1);
  dsm.parallel([&](Rank r) {
    if (r == 1) x[0] = 7;
    dsm.barrier();
  });
  EXPECT_GT(dsm.tracer()->snapshot_events().size(), 0u);

  // reset_stats mid-run (what apps::run_openmp does before timing a region)
  // must discard buffered events too, or finish-time reconciliation breaks.
  dsm.reset_stats();
  EXPECT_TRUE(dsm.tracer()->snapshot_events().empty());

  dsm.parallel([&](Rank r) {
    if (r == 0) x[0] = 9;
    dsm.barrier();
  });
  const StatsSnapshot live = dsm.stats();
  const StatsSnapshot rebuilt =
      reconstruct_counters(dsm.tracer()->snapshot_events());
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], live.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
}

TEST(TraceIntegration, FinishWritesSelfContainedBinaryFile) {
  const std::string path =
      "/tmp/omsp_trace_test_" + std::to_string(::getpid()) + ".trace";
  tmk::Config cfg;
  cfg.topology = sim::Topology(2, 1);
  cfg.trace.enabled = true;
  cfg.trace.binary_path = path;
  {
    tmk::DsmSystem dsm(cfg);
    auto x = dsm.alloc_page_aligned<long>(64);
    dsm.parallel([&](Rank r) {
      x[r] = r;
      dsm.barrier();
      x[32 + r] = x[1 - r];
    });
  } // destructor drains and writes the sink

  const TraceFile tf = read_binary(path);
  std::remove(path.c_str());
  EXPECT_GT(tf.events.size(), 0u);
  EXPECT_EQ(tf.dropped, 0u);
  // The header names the configuration the run used, OMSP_CONFIG included.
  EXPECT_EQ(tf.config, cfg.with_env().to_string());
  EXPECT_EQ(tf.config.rfind("topo=flat:2x1;", 0), 0u);
  const StatsSnapshot rebuilt = reconstruct_counters(tf.events);
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
    EXPECT_EQ(rebuilt.v[c], tf.stats.v[c])
        << "counter " << counter_name(static_cast<Counter>(c));
}

TEST(TraceIntegration, DisabledTracingInstallsNothing) {
  tmk::Config cfg;
  cfg.topology = sim::Topology(2, 1);
  tmk::DsmSystem dsm(cfg);
  EXPECT_EQ(dsm.tracer(), nullptr);
  EXPECT_EQ(Tracer::active(), nullptr);
}

} // namespace
} // namespace omsp::trace
