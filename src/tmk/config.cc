#include "tmk/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/env_config.hpp"

namespace omsp::tmk {

namespace {

// The whole string as one decimal number: a sign, a space, trailing text or
// an overflow is no number ("0,05" is not 0).
template <typename T> std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

// perturb=<seed>: a positive seed.
std::optional<std::uint64_t> parse_seed(std::string_view s) {
  const auto v = parse_number<std::uint64_t>(s);
  if (!v.has_value() || *v == 0) return std::nullopt;
  return v;
}

// loss=<p>: a probability in (0, 1].
std::optional<double> parse_loss(std::string_view s) {
  const auto v = parse_number<double>(s);
  if (!v.has_value() || !(*v > 0 && *v <= 1)) return std::nullopt;
  return v;
}

std::optional<bool> parse_switch(std::string_view s) {
  if (s == "on") return true;
  if (s == "off") return false;
  return std::nullopt;
}

std::optional<std::string> parse_path(std::string_view s) {
  if (s.empty()) return std::nullopt;
  return std::string(s);
}

// Shortest spelling that parses back to exactly `v`.
std::string format_number(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

} // namespace

Config Config::parse(std::string_view spec) {
  Config c;
  std::optional<std::uint64_t> seed;
  std::optional<double> loss;
  for (const ConfigEntry& e : split_config(spec)) {
    if (e.key == "topo") {
      c.topology = parse_config_value(e, sim::Topology::parse);
    } else if (e.key == "coll") {
      c.coll = parse_config_value(e, coll::Options::parse);
    } else if (e.key == "overlap") {
      c.overlap.enabled = parse_config_value(e, parse_switch);
    } else if (e.key == "perturb") {
      seed = parse_config_value(e, parse_seed);
    } else if (e.key == "loss") {
      loss = parse_config_value(e, parse_loss);
    } else if (e.key == "race") {
      c.race = parse_config_value(e, race::Options::parse);
    } else if (e.key == "trace") {
      c.trace.binary_path = parse_config_value(e, parse_path);
    }
  }
  c.trace.enabled = !c.trace.binary_path.empty();
  if (seed.has_value() || loss.has_value()) {
    c.perturb.enabled = true;
    if (seed.has_value()) {
      c.perturb.seed = *seed;
    } else {
      // Loss on its own injects ONLY loss, so lossy runs stay comparable to
      // clean ones modulo retransmissions.
      c.perturb.jitter_max_us = 0;
      c.perturb.duplicate_prob = 0;
      c.perturb.reorder_prob = 0;
    }
  }
  if (loss.has_value()) {
    c.perturb.loss_prob = *loss < 1.0 ? *loss : 0.95; // p = 1 never delivers
    // Config-string sweeps run the entire suite, so scale the retry cap to
    // the rate: an attempt fails with q = 1-(1-p)^2 (request or reply lost);
    // pick the cap that leaves a per-exchange exhaustion residual of
    // q^(cap+1) <= 1e-12. Code that sets loss_prob keeps the cap it sets.
    const double p = c.perturb.loss_prob;
    const double q = 1.0 - (1.0 - p) * (1.0 - p);
    const double need = std::ceil(-12.0 / std::log10(q));
    c.perturb.max_retries =
        std::clamp(static_cast<std::uint32_t>(need), 8u, 64u);
  }
  return c;
}

std::string Config::to_string() const {
  std::string s = "topo=" + topology.spec();
  if (coll.tree)
    s += coll.flat_max_bytes == coll::Options{}.flat_max_bytes
             ? ";coll=tree"
             : ";coll=tree:" + std::to_string(coll.flat_max_bytes);
  if (overlap.enabled) s += ";overlap=on";
  const bool jitter = perturb.jitter_max_us > 0 ||
                      perturb.duplicate_prob > 0 || perturb.reorder_prob > 0;
  if (perturb.enabled && jitter)
    s += ";perturb=" + std::to_string(perturb.seed);
  if (perturb.enabled && perturb.loss_prob > 0)
    s += ";loss=" + format_number(perturb.loss_prob);
  if (race.enabled())
    s += race.mode == race::Mode::kPage ? ";race=page" : ";race=word";
  if (trace.enabled && !trace.binary_path.empty())
    s += ";trace=" + trace.binary_path;
  return s;
}

Config Config::with_env() const {
  Config c = *this;
  const char* spec = env_config();
  if (spec == nullptr) return c;
  const Config env = parse(spec);
  if (!c.trace.enabled) c.trace = env.trace;
  if (!c.perturb.enabled) c.perturb = env.perturb;
  if (!c.overlap.enabled) c.overlap = env.overlap;
  if (!c.coll.tree) c.coll = env.coll;
  if (!c.race.enabled()) c.race = env.race;
  return c;
}

} // namespace omsp::tmk
