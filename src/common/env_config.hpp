// OMSP_CONFIG — the one environment variable that configures the simulator.
//
// It holds ';'-separated key=value entries, for example
//   OMSP_CONFIG='topo=fat:2x8x2;coll=tree;overlap=on;loss=0.05;perturb=3'
// tmk::Config::parse gives every key its meaning (README "Debugging knobs"
// has the table). This header is the lexical layer all readers share, so the
// MPI library can pick out `coll` without linking the DSM. Malformed input —
// an entry without '=', an unknown or repeated key, a value its key cannot
// parse — is an OMSP_CHECK failure that names the key: a typo must never
// silently run the default configuration.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace omsp {

// Every key the grammar accepts, in the order tmk::Config::to_string writes
// them.
inline constexpr std::array<std::string_view, 7> kConfigKeys = {
    "topo", "coll", "overlap", "perturb", "loss", "race", "trace"};

// The OMSP_CONFIG value, or nullptr when it is unset or empty. The only
// reader of the variable: one getenv, and no allocation when it is unset.
inline const char* env_config() {
  const char* s = std::getenv("OMSP_CONFIG");
  return s != nullptr && *s != '\0' ? s : nullptr;
}

[[noreturn]] inline void config_error(const std::string& what) {
  detail::check_failed("OMSP_CONFIG", __FILE__, __LINE__, what.c_str());
}

struct ConfigEntry {
  std::string_view key;
  std::string_view value;
};

// The entries of a config string, in order; "" has none.
inline std::vector<ConfigEntry> split_config(std::string_view spec) {
  std::vector<ConfigEntry> entries;
  if (spec.empty()) return entries;
  for (;;) {
    const std::size_t cut = spec.find(';');
    const std::string_view item = spec.substr(0, cut);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      config_error("entry '" + std::string(item) + "' has no '='");
    const ConfigEntry e{item.substr(0, eq), item.substr(eq + 1)};
    if (std::find(kConfigKeys.begin(), kConfigKeys.end(), e.key) ==
        kConfigKeys.end())
      config_error("unknown key '" + std::string(e.key) + "'");
    for (const ConfigEntry& seen : entries)
      if (seen.key == e.key)
        config_error("repeated key '" + std::string(e.key) + "'");
    entries.push_back(e);
    if (cut == std::string_view::npos) return entries;
    spec.remove_prefix(cut + 1);
  }
}

// parse(e.value) unwrapped, or an OMSP_CHECK failure naming the key when the
// value does not parse.
template <typename Parse>
auto parse_config_value(const ConfigEntry& e, Parse&& parse) {
  auto v = parse(e.value);
  if (!v.has_value())
    config_error("bad value '" + std::string(e.value) + "' for key '" +
                 std::string(e.key) + "'");
  return *std::move(v);
}

} // namespace omsp
