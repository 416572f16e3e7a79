#include "race/options.hpp"

namespace omsp::race {

std::optional<Options> Options::parse(std::string_view spec) {
  Options opts;
  if (spec == "off") {
    opts.mode = Mode::kOff;
  } else if (spec == "page") {
    opts.mode = Mode::kPage;
  } else if (spec == "word") {
    opts.mode = Mode::kWord;
  } else {
    return std::nullopt;
  }
  return opts;
}

} // namespace omsp::race
