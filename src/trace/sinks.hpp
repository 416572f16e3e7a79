// Trace sinks and the trace→counters reconstruction.
//
// Two on-disk formats:
//  * Binary (`.trace`) — the authoritative record: a small header (magic,
//    version, drop count, the run's config string), the StatsSnapshot at
//    finish time (name/value
//    pairs, so the file is self-describing even if counters change), and the
//    fixed-width event stream. `omsp-trace` consumes this.
//  * Chrome trace_event JSON — opens directly in Perfetto / chrome://tracing
//    with one process group per DSM context and one track per worker rank on
//    the virtual-time axis. Duration events (faults, barrier waits, lock
//    acquires) render as slices; everything else as instants.
//
// reconstruct_counters folds an event stream back into a StatsSnapshot
// through count_event (event.hpp), the same table trace::record moves the
// live counters with — the core of the trace/stats audit (`omsp-trace check`
// / `--self-check`), which catches dropped events and misaligned windows.
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "trace/event.hpp"

namespace omsp::trace {

inline constexpr char kTraceMagic[8] = {'O', 'M', 'S', 'P',
                                        'T', 'R', 'C', '1'};
// Version 2: kMessage packs (msg type << 32) | dst ctx into arg1 so
// analyzers can report traffic by registry name (net/message.hpp).
// Version 3: kMessage carries the modeled one-way cost in dur_us (the
// analyzer's per-type latency column); adds the overlapped-fetch kinds
// kPrefetchBatch/kPrefetchHit (and a per-round fetch kind, dropped in
// version 10) and the prefetch counters.
// Version 4: adds the reliable-delivery kinds kMessageLost/kRetransmit/kAck
// and the msgs_lost/retransmits/acks_sent counters (lossy transport).
// Version 5: adds the hierarchical-collectives kind kCollStage (arg0 = wire
// bytes, arg1 = (level<<32)|leader) and the coll_stages/coll_bytes counters.
// Version 6: adds a zero-copy delivery kind and two counters (removed again
// in version 9).
// Version 7: adds the data-race detector kinds kRaceCheck (arg0 = pair
// checks, arg1 = entries swept) and kRaceDetected (arg0 = (page<<32)|
// (lo<<16)|hi, arg1 = packed writer ctxs + interval seqs) and the
// race_checks/races_detected counters (Config::race).
// Version 8: adds the per-stage congestion kind kContentionWait (arg0 =
// topology stage, arg1 = packed segment key, dur = modeled wait) and the
// contention_stage_waits counter (stage-aware link busy windows).
// Version 9: drops the zero-copy kind and its counters (kinds after it
// renumber), and the header carries the run's canonical config string
// (tmk::Config::to_string) after the drop count.
// Version 10: drops the per-round overlapped-fetch kind (kinds after it
// renumber); every fault-time fetch, overlapped or not, emits one
// kDiffFetch per creator.
inline constexpr std::uint32_t kTraceVersion = 10;

struct TraceFile {
  std::vector<Event> events;
  std::uint64_t dropped = 0;   // events lost to full rings while recording
  std::string config;          // the run's config string ("" if not given)
  StatsSnapshot stats;         // counters embedded at finish time
  std::vector<std::pair<std::string, std::uint64_t>> raw_counters; // as stored
};

// Serialize / parse the binary container (in-memory; tests use these).
std::vector<std::uint8_t> encode_trace(const std::vector<Event>& events,
                                       std::uint64_t dropped,
                                       const std::string& config,
                                       const StatsSnapshot& stats);
TraceFile decode_trace(const std::uint8_t* data, std::size_t size);

// File variants. Readers abort (OMSP_CHECK) on malformed input.
void write_binary(const std::string& path, const std::vector<Event>& events,
                  std::uint64_t dropped, const std::string& config,
                  const StatsSnapshot& stats);
TraceFile read_binary(const std::string& path);

// Chrome trace_event JSON (the "traceEvents" object form Perfetto accepts).
std::string chrome_trace_json(const std::vector<Event>& events);
void write_chrome_json(const std::string& path,
                       const std::vector<Event>& events);

// Fold the event stream back into counter totals through count_event; the
// returned snapshot is the all-context sum.
StatsSnapshot reconstruct_counters(const std::vector<Event>& events);

} // namespace omsp::trace
