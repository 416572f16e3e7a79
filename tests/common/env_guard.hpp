// Tests that compare a reference run against a feature run (or one run
// against another) rely on the reference really being the seed
// configuration. The CI config matrix exports OMSP_CONFIG (perturb=1,
// coll=tree;loss=0.05, ...), which DsmSystem and MpiWorld consult whenever
// the code leaves a feature at its default — silently flipping the
// reference run. Instantiate a ScopedEnvClear to unset OMSP_CONFIG for the
// test's scope; the destructor restores the outer value.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace omsp::test {

class ScopedEnvClear {
public:
  ScopedEnvClear() {
    if (const char* v = std::getenv("OMSP_CONFIG"); v != nullptr) saved_ = v;
    ::unsetenv("OMSP_CONFIG");
  }
  ~ScopedEnvClear() {
    if (saved_.has_value()) ::setenv("OMSP_CONFIG", saved_->c_str(), 1);
    else ::unsetenv("OMSP_CONFIG");
  }
  ScopedEnvClear(const ScopedEnvClear&) = delete;
  ScopedEnvClear& operator=(const ScopedEnvClear&) = delete;

private:
  std::optional<std::string> saved_;
};

} // namespace omsp::test
