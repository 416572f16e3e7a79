#include "trace/sinks.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "net/message.hpp"
#include "trace/tracer.hpp"

namespace omsp::trace {

std::vector<std::uint8_t> encode_trace(const std::vector<Event>& events,
                                       std::uint64_t dropped,
                                       const std::string& config,
                                       const StatsSnapshot& stats) {
  ByteWriter w(64 + config.size() + events.size() * kEventWireBytes);
  w.put_bytes(kTraceMagic, sizeof kTraceMagic);
  w.put<std::uint32_t>(kTraceVersion);
  w.put<std::uint64_t>(dropped);
  w.put_string(config);
  const auto ncounters = static_cast<std::uint32_t>(Counter::kCount);
  w.put<std::uint32_t>(ncounters);
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    w.put_string(counter_name(static_cast<Counter>(i)));
    w.put<std::uint64_t>(stats.v[i]);
  }
  w.put<std::uint64_t>(events.size());
  for (const Event& e : events) serialize_event(e, w);
  return w.take();
}

TraceFile decode_trace(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  char magic[sizeof kTraceMagic];
  r.get_bytes(magic, sizeof magic);
  OMSP_CHECK_MSG(std::memcmp(magic, kTraceMagic, sizeof magic) == 0,
                 "not an omsp trace file (bad magic)");
  const auto version = r.get<std::uint32_t>();
  OMSP_CHECK_MSG(version == kTraceVersion, "unsupported trace version");

  TraceFile tf;
  tf.dropped = r.get<std::uint64_t>();
  tf.config = r.get_string();
  const auto ncounters = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    std::string name = r.get_string();
    const auto value = r.get<std::uint64_t>();
    tf.raw_counters.emplace_back(name, value);
    // Match by name so traces survive counter-enum reordering.
    for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c)
      if (name == counter_name(static_cast<Counter>(c))) tf.stats.v[c] = value;
  }
  const auto nevents = r.get<std::uint64_t>();
  OMSP_CHECK_MSG(nevents <= r.remaining() / kEventWireBytes,
                 "trace event count exceeds the file");
  tf.events.reserve(nevents);
  for (std::uint64_t i = 0; i < nevents; ++i)
    tf.events.push_back(deserialize_event(r));
  OMSP_CHECK_MSG(r.done(), "trailing bytes after trace events");
  return tf;
}

void write_binary(const std::string& path, const std::vector<Event>& events,
                  std::uint64_t dropped, const std::string& config,
                  const StatsSnapshot& stats) {
  const auto bytes = encode_trace(events, dropped, config, stats);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  OMSP_CHECK_MSG(f != nullptr, "cannot open trace file for writing");
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  OMSP_CHECK_MSG(n == bytes.size(), "short write to trace file");
}

TraceFile read_binary(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  OMSP_CHECK_MSG(f != nullptr, "cannot open trace file for reading");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  OMSP_CHECK_MSG(n == bytes.size(), "short read from trace file");
  return decode_trace(bytes.data(), bytes.size());
}

namespace {

void append_args(std::string& out, const Event& e) {
  char buf[160];
  switch (e.kind) {
  case EventKind::kMessage:
    std::snprintf(buf, sizeof buf,
                  "{\"bytes\":%" PRIu64 ",\"type\":\"%s\",\"dst\":%u,"
                  "\"offnode\":%d,\"perturbed\":%d}",
                  e.arg0, net::msg_name(net::message_type_of_arg1(e.arg1)),
                  net::message_dst_of_arg1(e.arg1),
                  (e.flags & kFlagOffNode) ? 1 : 0,
                  (e.flags & kFlagPerturbed) ? 1 : 0);
    break;
  case EventKind::kPageFault:
    std::snprintf(buf, sizeof buf, "{\"page\":%" PRIu64 ",\"write\":%d}",
                  e.arg0, (e.flags & kFlagWrite) ? 1 : 0);
    break;
  case EventKind::kLockAcquire:
    std::snprintf(buf, sizeof buf, "{\"lock\":%" PRIu64 ",\"remote\":%d}",
                  e.arg0, (e.flags & kFlagRemote) ? 1 : 0);
    break;
  case EventKind::kLockGrant:
    std::snprintf(buf, sizeof buf, "{\"lock\":%" PRIu64 ",\"to\":%" PRIu64 "}",
                  e.arg0, e.arg1);
    break;
  case EventKind::kDiffCreate:
  case EventKind::kDiffApply:
  case EventKind::kDiffFetch:
  case EventKind::kPrefetchHit:
    std::snprintf(buf, sizeof buf, "{\"page\":%" PRIu64 ",\"bytes\":%" PRIu64
                  ",\"offnode\":%d}",
                  e.arg0, e.arg1, (e.flags & kFlagOffNode) ? 1 : 0);
    break;
  case EventKind::kMessageLost:
  case EventKind::kRetransmit:
  case EventKind::kAck:
    std::snprintf(buf, sizeof buf,
                  "{\"arg0\":%" PRIu64 ",\"type\":\"%s\",\"dst\":%u}", e.arg0,
                  net::msg_name(net::message_type_of_arg1(e.arg1)),
                  net::message_dst_of_arg1(e.arg1));
    break;
  case EventKind::kCollStage:
    std::snprintf(buf, sizeof buf,
                  "{\"bytes\":%" PRIu64 ",\"level\":%" PRIu64
                  ",\"leader\":%" PRIu64 "}",
                  e.arg0, e.arg1 >> 32, e.arg1 & std::uint64_t{0xFFFFFFFF});
    break;
  case EventKind::kRaceDetected:
    std::snprintf(buf, sizeof buf,
                  "{\"page\":%" PRIu64 ",\"lo\":%" PRIu64 ",\"hi\":%" PRIu64
                  ",\"ctx_a\":%" PRIu64 ",\"ctx_b\":%" PRIu64
                  ",\"seq_a\":%" PRIu64 ",\"seq_b\":%" PRIu64 "}",
                  e.arg0 >> 32, (e.arg0 >> 16) & std::uint64_t{0xFFFF},
                  e.arg0 & std::uint64_t{0xFFFF}, e.arg1 >> 48,
                  (e.arg1 >> 32) & std::uint64_t{0xFFFF},
                  (e.arg1 >> 16) & std::uint64_t{0xFFFF},
                  e.arg1 & std::uint64_t{0xFFFF});
    break;
  default:
    std::snprintf(buf, sizeof buf, "{\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64
                  "}",
                  e.arg0, e.arg1);
    break;
  }
  out += buf;
}

} // namespace

std::string chrome_trace_json(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 128 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

  // Metadata: name the per-context process groups and per-rank tracks so
  // Perfetto's timeline reads "node N / rank R" instead of bare ids.
  std::vector<std::pair<ContextId, std::uint32_t>> tracks;
  for (const Event& e : events) {
    std::pair<ContextId, std::uint32_t> key{e.ctx, e.rank};
    bool seen = false;
    for (const auto& t : tracks)
      if (t == key) {
        seen = true;
        break;
      }
    if (!seen) tracks.push_back(key);
  }
  char buf[256];
  bool first = true;
  for (const auto& [ctx, rank] : tracks) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"ctx%u\"}},\n",
                  ctx, ctx);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":%u,\"args\":{\"name\":\"rank%u\"}}",
                  ctx, rank, rank);
    out += buf;
  }

  for (const Event& e : events) {
    if (!first) out += ",\n";
    first = false;
    const bool slice = e.dur_us > 0;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"omsp\",\"ph\":\"%s\","
                  "\"ts\":%.3f,%s\"pid\":%u,\"tid\":%u,\"args\":",
                  event_name(e.kind), slice ? "X" : "i", e.ts_us,
                  slice ? "" : "\"s\":\"t\",", e.ctx, e.rank);
    out += buf;
    append_args(out, e);
    if (slice) {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f}", e.dur_us);
      out += buf;
    } else {
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_json(const std::string& path,
                       const std::vector<Event>& events) {
  const std::string json = chrome_trace_json(events);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  OMSP_CHECK_MSG(f != nullptr, "cannot open json trace file for writing");
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  OMSP_CHECK_MSG(n == json.size(), "short write to json trace file");
}

StatsSnapshot reconstruct_counters(const std::vector<Event>& events) {
  StatsSnapshot s;
  for (const Event& e : events)
    count_event(e, [&s](Counter c, std::uint64_t n) { s[c] += n; });
  return s;
}

// Tracer::finish lives here so tracer.cc stays sink-agnostic.
void Tracer::finish(const StatsSnapshot& stats) {
  drain_all();
  if (!opts_.binary_path.empty())
    write_binary(opts_.binary_path, collected_, dropped_total(),
                 opts_.run_config, stats);
}

} // namespace omsp::trace
