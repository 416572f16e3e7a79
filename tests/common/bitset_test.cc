#include <gtest/gtest.h>

#include <set>

#include "common/bitset.hpp"
#include "common/rng.hpp"

namespace omsp {
namespace {

TEST(Bitset, SetTestReset) {
  DynamicBitset b(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(199));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, ClearEmptiesEverything) {
  DynamicBitset b(130);
  for (std::size_t i = 0; i < 130; i += 3) b.set(i);
  EXPECT_TRUE(b.any());
  b.clear();
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, ForEachVisitsAscendingExactly) {
  DynamicBitset b(500);
  std::set<std::size_t> expected;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto idx = rng.next_below(500);
    b.set(idx);
    expected.insert(idx);
  }
  std::vector<std::size_t> visited;
  b.for_each_set([&](std::size_t i) { visited.push_back(i); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(std::set<std::size_t>(visited.begin(), visited.end()), expected);
}

TEST(Bitset, ResizeResets) {
  DynamicBitset b(64);
  b.set(10);
  b.resize(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_FALSE(b.any());
}

TEST(Bitset, GrowKeepsBits) {
  DynamicBitset b(70);
  b.set(3);
  b.set(69);
  b.grow(70); // same size: nothing changes
  b.grow(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(69));
  for (std::size_t i = 70; i < 200; ++i) ASSERT_FALSE(b.test(i)) << i;
  b.set(199);
  std::vector<std::size_t> visited;
  b.for_each_set([&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{3, 69, 199}));
}

TEST(Bitset, RandomizedAgainstReference) {
  DynamicBitset b(317);
  std::set<std::size_t> ref;
  Rng rng(99);
  for (int step = 0; step < 3000; ++step) {
    const auto idx = rng.next_below(317);
    if (rng.next_bool()) {
      b.set(idx);
      ref.insert(idx);
    } else {
      b.reset(idx);
      ref.erase(idx);
    }
    if (step % 250 == 0) {
      ASSERT_EQ(b.count(), ref.size());
      for (std::size_t i = 0; i < 317; ++i)
        ASSERT_EQ(b.test(i), ref.count(i) > 0) << i;
    }
  }
}

} // namespace
} // namespace omsp
