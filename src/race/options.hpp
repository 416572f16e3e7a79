// omsp::race — on-line data-race detection for the DSM protocol.
//
// Mode selection for the vector-clock diff-overlap detector
// (docs/PROTOCOL.md "Race detection under lazy release consistency"):
//   * kOff  — the default. The runtime never constructs a Detector and every
//     hook is a null-pointer test, so all modeled numbers stay bit-for-bit
//     identical to the seed.
//   * kPage — byte-exact overlap: two diffs from concurrent intervals racing
//     on a page are reported only for the byte ranges both actually wrote.
//   * kWord — shadow granularity of 4-byte words: every written run is
//     widened to word boundaries before intersection, so two writers sharing
//     one word (sub-word false sharing, the classic torn-update hazard) are
//     flagged even when their byte ranges are disjoint.
//
// `race=off|page|word` in OMSP_CONFIG is the code-free enable, applied at
// DsmSystem construction when the Config leaves the detector off; a
// malformed value is a hard error — a typo must not silently disable the
// correctness oracle.
#pragma once

#include <optional>
#include <string_view>

namespace omsp::race {

enum class Mode { kOff, kPage, kWord };

struct Options {
  Mode mode = Mode::kOff;

  bool enabled() const { return mode != Mode::kOff; }

  // Parse "off", "page" or "word"; nullopt on anything else.
  static std::optional<Options> parse(std::string_view spec);
};

} // namespace omsp::race
