// Config, its OMSP_CONFIG grammar, and GlobalPtr unit tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "../common/env_guard.hpp"
#include "tmk/config.hpp"
#include "tmk/global_ptr.hpp"

namespace omsp::tmk {
namespace {

// ------------------------------------------------ the OMSP_CONFIG grammar --

// The CI environment stacks, each written as one config string, with the
// Config fields it must resolve to: the values the per-feature environment
// variables produced before the grammar replaced them (max_retries scales
// with the loss rate, p = 1 caps at 0.95, and jitter/duplicate/reorder are
// on only when perturb= is given).
struct GrammarRow {
  const char* spec;
  const char* topo = "sp2";
  bool tree = false;
  bool overlap = false;
  bool perturb = false;
  std::uint64_t seed = 1;
  double jitter_max_us = 25.0;
  double loss_prob = 0;
  std::uint32_t max_retries = 8;
  race::Mode race = race::Mode::kOff;
  const char* trace = "";
};

const GrammarRow kGrammarRows[] = {
    {.spec = ""},
    {.spec = "perturb=1", .perturb = true},
    {.spec = "perturb=3", .perturb = true, .seed = 3},
    {.spec = "loss=0.05", .perturb = true, .jitter_max_us = 0,
     .loss_prob = 0.05, .max_retries = 12},
    {.spec = "loss=0.2", .perturb = true, .jitter_max_us = 0,
     .loss_prob = 0.2, .max_retries = 28},
    {.spec = "loss=0.25", .perturb = true, .jitter_max_us = 0,
     .loss_prob = 0.25, .max_retries = 34},
    {.spec = "loss=1.0", .perturb = true, .jitter_max_us = 0,
     .loss_prob = 0.95, .max_retries = 64},
    {.spec = "coll=tree", .tree = true},
    {.spec = "coll=tree;loss=0.05;perturb=2", .tree = true, .perturb = true,
     .seed = 2, .loss_prob = 0.05, .max_retries = 12},
    {.spec = "overlap=on", .overlap = true},
    {.spec = "overlap=off"},
    {.spec = "race=page", .race = race::Mode::kPage},
    {.spec = "trace=heat.trace", .trace = "heat.trace"},
    {.spec = "topo=fat:2x8x2", .topo = "fat:2x8x2"},
};

TEST(ConfigGrammar, CiStacksResolveToTheirFields) {
  for (const GrammarRow& row : kGrammarRows) {
    SCOPED_TRACE(row.spec);
    const Config c = Config::parse(row.spec);
    EXPECT_EQ(c.topology.spec(), row.topo);
    EXPECT_EQ(c.coll.tree, row.tree);
    EXPECT_EQ(c.overlap.enabled, row.overlap);
    EXPECT_TRUE(c.overlap.prefetch);
    EXPECT_EQ(c.perturb.enabled, row.perturb);
    EXPECT_EQ(c.perturb.seed, row.seed);
    EXPECT_EQ(c.perturb.jitter_max_us, row.jitter_max_us);
    const bool jitter = row.jitter_max_us > 0;
    EXPECT_EQ(c.perturb.duplicate_prob, jitter ? 0.05 : 0.0);
    EXPECT_EQ(c.perturb.reorder_prob, jitter ? 0.10 : 0.0);
    EXPECT_EQ(c.perturb.loss_prob, row.loss_prob);
    EXPECT_EQ(c.perturb.max_retries, row.max_retries);
    EXPECT_EQ(c.race.mode, row.race);
    EXPECT_EQ(c.trace.enabled, *row.trace != '\0');
    EXPECT_EQ(c.trace.binary_path, row.trace);
  }
}

// to_string is canonical: parsing it gives back the same fields and the same
// string, whatever order the keys were written in.
TEST(ConfigGrammar, ToStringRoundTrips) {
  for (const GrammarRow& row : kGrammarRows) {
    SCOPED_TRACE(row.spec);
    const Config c = Config::parse(row.spec);
    const Config back = Config::parse(c.to_string());
    EXPECT_EQ(back.to_string(), c.to_string());
    EXPECT_EQ(back.topology, c.topology);
    EXPECT_EQ(back.coll.tree, c.coll.tree);
    EXPECT_EQ(back.coll.flat_max_bytes, c.coll.flat_max_bytes);
    EXPECT_EQ(back.overlap.enabled, c.overlap.enabled);
    EXPECT_EQ(back.perturb.enabled, c.perturb.enabled);
    EXPECT_EQ(back.perturb.seed, c.perturb.seed);
    EXPECT_EQ(back.perturb.jitter_max_us, c.perturb.jitter_max_us);
    EXPECT_EQ(back.perturb.duplicate_prob, c.perturb.duplicate_prob);
    EXPECT_EQ(back.perturb.reorder_prob, c.perturb.reorder_prob);
    EXPECT_EQ(back.perturb.loss_prob, c.perturb.loss_prob);
    EXPECT_EQ(back.perturb.max_retries, c.perturb.max_retries);
    EXPECT_EQ(back.race.mode, c.race.mode);
    EXPECT_EQ(back.trace.enabled, c.trace.enabled);
    EXPECT_EQ(back.trace.binary_path, c.trace.binary_path);
  }
  EXPECT_EQ(Config::parse("perturb=2;loss=0.05;coll=tree:4096").to_string(),
            "topo=sp2;coll=tree:4096;perturb=2;loss=0.05");
}

// DsmSystem's precedence: every key but topo fills in a feature the code
// left at its default; a feature the code set keeps the code's value.
TEST(ConfigGrammar, WithEnvFillsOnlyDefaultedFeatures) {
  const test::ScopedEnvClear env;
  Config code;
  code.race.mode = race::Mode::kWord;
  EXPECT_EQ(code.with_env().to_string(), "topo=sp2;race=word");
  ::setenv("OMSP_CONFIG", "topo=flat:64x4;coll=tree;race=page;loss=0.2", 1);
  const Config c = code.with_env();
  ::unsetenv("OMSP_CONFIG");
  EXPECT_EQ(c.topology.spec(), "sp2"); // topo is the benches' key
  EXPECT_TRUE(c.coll.tree);
  EXPECT_EQ(c.race.mode, race::Mode::kWord);
  EXPECT_EQ(c.perturb.loss_prob, 0.2);
}

// One policy for malformed input: an OMSP_CHECK failure naming the key. The
// `coll` and `race` values die in their own suites (CollOptionsDeathTest,
// RaceEnvDeathTest).
struct BadSpec {
  const char* name;
  const char* spec;
  const char* message;
};

// Without a printer gtest lists the parameter as its raw bytes, which hold
// string addresses that move with every build, and so would the test names.
void PrintTo(const BadSpec& s, std::ostream* os) { *os << s.name; }

class ConfigGrammarDeathTest : public ::testing::TestWithParam<BadSpec> {};

TEST_P(ConfigGrammarDeathTest, NamesTheKey) {
  EXPECT_DEATH((void)Config::parse(GetParam().spec), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    Keys, ConfigGrammarDeathTest,
    ::testing::Values(
        BadSpec{"topo", "topo=fat:2x", "bad value 'fat:2x' for key 'topo'"},
        BadSpec{"overlap", "overlap=1", "bad value '1' for key 'overlap'"},
        BadSpec{"perturb", "perturb=abc", "bad value 'abc' for key 'perturb'"},
        BadSpec{"loss", "loss=0,05", "bad value '0,05' for key 'loss'"},
        BadSpec{"trace", "trace=", "bad value '' for key 'trace'"},
        BadSpec{"unknown", "coll=tree;colll=tree", "unknown key 'colll'"},
        BadSpec{"repeated", "coll=tree;coll=central", "repeated key 'coll'"},
        BadSpec{"no_equals", "coll=tree;", "entry '' has no '='"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Config, ThreadModeContextLayout) {
  Config cfg;
  cfg.topology = sim::Topology(4, 4);
  cfg.mode = Mode::kThread;
  EXPECT_EQ(cfg.num_contexts(), 4u);
  EXPECT_EQ(cfg.threads_per_context(), 4u);
  EXPECT_EQ(cfg.context_of_rank(0), 0u);
  EXPECT_EQ(cfg.context_of_rank(5), 1u);
  EXPECT_EQ(cfg.slot_of_rank(5), 1u);
  EXPECT_EQ(cfg.node_of_context(3), 3u);
  EXPECT_TRUE(cfg.use_alias_mapping());
}

TEST(Config, ProcessModeContextLayout) {
  Config cfg;
  cfg.topology = sim::Topology(4, 4);
  cfg.mode = Mode::kProcess;
  EXPECT_EQ(cfg.num_contexts(), 16u);
  EXPECT_EQ(cfg.threads_per_context(), 1u);
  EXPECT_EQ(cfg.context_of_rank(5), 5u);
  EXPECT_EQ(cfg.node_of_context(5), 1u); // context 5 = rank 5 lives on node 1
  EXPECT_FALSE(cfg.use_alias_mapping());
}

TEST(Config, AblationOverridesStick) {
  Config cfg;
  cfg.mode = Mode::kProcess;
  cfg.alias_mapping = true;
  EXPECT_TRUE(cfg.use_alias_mapping());
}

TEST(GlobalPtr, NullAndArithmetic) {
  GlobalPtr<double> p;
  EXPECT_TRUE(p.is_null());
  EXPECT_FALSE(static_cast<bool>(p));
  GlobalPtr<double> q(128);
  EXPECT_EQ((q + 4).addr(), 128 + 4 * sizeof(double));
  EXPECT_EQ((q - 2).addr(), 128 - 2 * sizeof(double));
  q += 1;
  EXPECT_EQ(q.addr(), 128 + sizeof(double));
  EXPECT_EQ(q.cast<std::uint8_t>().addr(), q.addr());
}

TEST(GlobalPtr, ResolvesThroughBinding) {
  alignas(16) std::uint8_t arena[256] = {};
  ThreadHeapBinding::Scope scope(arena);
  GlobalPtr<std::uint32_t> p(16);
  *p = 0xabcd1234;
  EXPECT_EQ(p[0], 0xabcd1234u);
  EXPECT_EQ(*reinterpret_cast<std::uint32_t*>(arena + 16), 0xabcd1234u);
  // Rebinding moves the view.
  alignas(16) std::uint8_t other[256] = {};
  {
    ThreadHeapBinding::Scope inner(other);
    p[0] = 7;
    EXPECT_EQ(*reinterpret_cast<std::uint32_t*>(other + 16), 7u);
  }
  EXPECT_EQ(p[0], 0xabcd1234u); // outer binding restored
}

} // namespace
} // namespace omsp::tmk
