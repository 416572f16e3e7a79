// Property suite for the vectorized diff kernels (ISSUE 8): the canonical
// run encoding means every correct encoder emits byte-identical output, so
// create_diff() (AVX2 or portable64, chosen at build time) is checked
// byte-for-byte against create_diff_scalar(), the original word-at-a-time
// reference. Round-trips cover 0/5/25/100% dirtiness, runs engineered to
// straddle word and vector-lane boundaries, and adversarial encodings —
// truncated headers, truncated payloads, and the run-overflows-page case the
// hardened apply_diff() must reject BEFORE copying a byte.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "tmk/diff.hpp"

namespace omsp::tmk {
namespace {

std::vector<std::uint8_t> random_page(Rng& rng) {
  std::vector<std::uint8_t> page(kPageSize);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng.next_u32());
  return page;
}

// Flip `fraction` of the bytes at random positions (not contiguous runs):
// the hardest shape for a mask->run emitter, since runs open and close at
// arbitrary bit offsets inside every 64-byte block.
std::vector<std::uint8_t> scatter_dirty(const std::vector<std::uint8_t>& twin,
                                        double fraction, Rng& rng) {
  auto cur = twin;
  const auto n = static_cast<std::size_t>(kPageSize * fraction);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = rng.next_u32() % kPageSize;
    cur[at] ^= static_cast<std::uint8_t>(1 + rng.next_u32() % 255);
  }
  return cur;
}

TEST(DiffSimd, KernelNameIsKnown) {
  const std::string k = diff_kernel_name();
  EXPECT_TRUE(k == "avx2" || k == "portable64") << k;
}

// The core property: SIMD output == scalar output, byte for byte, and both
// round-trip, across dirtiness levels and many random layouts of a
// `page_size`-byte page.
void expect_matches_scalar(std::size_t page_size, std::uint64_t seed) {
  Rng rng(seed);
  for (const double frac : {0.0, 0.05, 0.25, 1.0}) {
    for (int trial = 0; trial < 32; ++trial) {
      auto twin = random_page(rng);
      auto cur =
          frac == 1.0 ? scatter_dirty(twin, 2.0, rng) // saturate: all touched
                      : scatter_dirty(twin, frac, rng);
      twin.resize(page_size);
      cur.resize(page_size);
      const auto simd = create_diff(twin.data(), cur.data(), page_size);
      ASSERT_EQ(simd, create_diff_scalar(twin.data(), cur.data(), page_size))
          << "frac=" << frac << " trial=" << trial;
      auto rebuilt = twin;
      apply_diff(simd, rebuilt.data(), page_size);
      ASSERT_EQ(rebuilt, cur) << "frac=" << frac << " trial=" << trial;
    }
  }
}

TEST(DiffSimd, ScalarEquivalenceAcrossDirtiness) {
  expect_matches_scalar(kPageSize, 1234);
}

// A page size that is not a multiple of 64 leaves a tail of whole words
// that every build encodes with the portable word kernel: at 4088 bytes,
// seven words follow the last 64-byte block, so this checks word_mask
// against the scalar reference even where the blocks take the AVX2 path.
TEST(DiffSimd, WordTailMatchesScalar) {
  expect_matches_scalar(kPageSize - 8, 4088);
}

// Runs positioned to straddle every alignment boundary the kernels care
// about: 8-byte words (portable64), 32-byte lanes (AVX2) and the 64-byte
// block the emitter consumes per step.
TEST(DiffSimd, RunsStraddlingLaneBoundaries) {
  for (const std::size_t boundary : {8u, 16u, 32u, 64u, 128u, 4032u}) {
    for (int span = 1; span <= 5; ++span) {
      for (int lead = -3; lead <= 3; ++lead) {
        const std::ptrdiff_t start =
            static_cast<std::ptrdiff_t>(boundary) + lead;
        if (start < 0 ||
            start + span > static_cast<std::ptrdiff_t>(kPageSize))
          continue;
        std::vector<std::uint8_t> twin(kPageSize, 0x11);
        auto cur = twin;
        for (int i = 0; i < span; ++i)
          cur[static_cast<std::size_t>(start) + static_cast<std::size_t>(i)] ^=
              0xff;
        const auto simd = create_diff(twin.data(), cur.data());
        const auto scalar = create_diff_scalar(twin.data(), cur.data());
        ASSERT_EQ(simd, scalar)
            << "boundary=" << boundary << " start=" << start
            << " span=" << span;
        ASSERT_EQ(diff_run_count(simd), 1u);
        ASSERT_EQ(diff_patch_bytes(simd), static_cast<std::size_t>(span));
        auto rebuilt = twin;
        apply_diff(simd, rebuilt.data());
        ASSERT_EQ(rebuilt, cur);
      }
    }
  }
}

// Alternating differ/equal bytes: maximal run COUNT (2048 one-byte runs),
// which stresses the open-run carry logic across every block boundary.
TEST(DiffSimd, AlternatingBytesMaximalRunCount) {
  std::vector<std::uint8_t> twin(kPageSize, 0x00);
  auto cur = twin;
  for (std::size_t i = 0; i < kPageSize; i += 2) cur[i] = 0x01;
  const auto simd = create_diff(twin.data(), cur.data());
  EXPECT_EQ(simd, create_diff_scalar(twin.data(), cur.data()));
  EXPECT_EQ(diff_run_count(simd), kPageSize / 2);
  auto rebuilt = twin;
  apply_diff(simd, rebuilt.data());
  EXPECT_EQ(rebuilt, cur);
}

// First and last byte of the page: the edges of the very first and very
// last vector lane.
TEST(DiffSimd, PageEdgeBytes) {
  std::vector<std::uint8_t> twin(kPageSize, 0x42);
  auto cur = twin;
  cur[0] ^= 0x80;
  cur[kPageSize - 1] ^= 0x80;
  const auto simd = create_diff(twin.data(), cur.data());
  EXPECT_EQ(simd, create_diff_scalar(twin.data(), cur.data()));
  EXPECT_EQ(diff_run_count(simd), 2u);
  auto rebuilt = twin;
  apply_diff(simd, rebuilt.data());
  EXPECT_EQ(rebuilt, cur);
}

// A full-page run exercises the u16 length field at its extreme (4096 fits;
// the header type caps pages at 64K by design).
TEST(DiffSimd, FullPageSingleRun) {
  std::vector<std::uint8_t> twin(kPageSize, 0xaa);
  std::vector<std::uint8_t> cur(kPageSize, 0x55);
  const auto simd = create_diff(twin.data(), cur.data());
  EXPECT_EQ(simd, create_diff_scalar(twin.data(), cur.data()));
  EXPECT_EQ(diff_run_count(simd), 1u);
  EXPECT_EQ(diff_patch_bytes(simd), kPageSize);
}

// ------------------------------------------------ adversarial encodings ----

using DiffSimdDeath = ::testing::Test;

// Regression (ISSUE 8 bugfix): a run whose offset+length exceeds the page
// must be rejected BEFORE any byte is copied. Before the hardened
// for_each_run, apply_diff validated the payload against the diff buffer but
// not the run's landing zone against page_size — this encoding memcpy'd past
// the end of the destination page.
TEST(DiffSimdDeath, RunOverflowingPageRejected) {
  std::vector<std::uint8_t> diff;
  const std::uint16_t offset = kPageSize - 4; // 4092
  const std::uint16_t length = 16;            // lands at 4108 > 4096
  diff.push_back(static_cast<std::uint8_t>(offset & 0xff));
  diff.push_back(static_cast<std::uint8_t>(offset >> 8));
  diff.push_back(static_cast<std::uint8_t>(length & 0xff));
  diff.push_back(static_cast<std::uint8_t>(length >> 8));
  diff.insert(diff.end(), length, 0xee);
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_DEATH(apply_diff(diff, page.data()), "overflows page");
}

TEST(DiffSimdDeath, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> diff = {0x00, 0x01, 0x02}; // 3 of 4 bytes
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_DEATH(apply_diff(diff, page.data()), "truncated diff header");
  EXPECT_DEATH((void)diff_patch_bytes(diff), "truncated diff header");
}

TEST(DiffSimdDeath, TruncatedPayloadRejected) {
  std::vector<std::uint8_t> diff = {0x00, 0x00, 0x20, 0x00}; // 32-byte run
  diff.insert(diff.end(), 16, 0xdd);                         // only 16 present
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_DEATH(apply_diff(diff, page.data()), "truncated diff run");
  EXPECT_DEATH((void)diff_run_count(diff), "truncated diff run");
}

// A valid encoding against a SMALLER logical page must also die: the same
// bytes can be fine for a 4K page and hostile for a 1K one.
TEST(DiffSimdDeath, RunOverflowingSmallerPageRejected) {
  std::vector<std::uint8_t> twin(kPageSize, 1), cur(kPageSize, 2);
  const auto diff = create_diff(twin.data(), cur.data()); // one 4096-run
  std::vector<std::uint8_t> small(1024, 0);
  EXPECT_DEATH(apply_diff(diff, small.data(), small.size()), "overflows page");
}

} // namespace
} // namespace omsp::tmk
