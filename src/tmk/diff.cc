#include "tmk/diff.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

// Build-time kernel selection: src/tmk/CMakeLists.txt compiles this file
// with -mavx2 when the build host runs AVX2, and the portable 64-bit word
// kernel serves every other host. The compare kernels only read memory and
// produce per-byte difference masks; the run encoding itself is shared, so
// both kernels emit byte-identical diffs (asserted by the property tests).
#if defined(__AVX2__)
#include <immintrin.h>
#define OMSP_DIFF_KERNEL_NAME "avx2"
#else
#define OMSP_DIFF_KERNEL_NAME "portable64"
#endif

namespace omsp::tmk {

namespace {

using detail::RunHeader;

// Largest encoding of one page: maximal runs are separated by at least one
// equal byte, so there are at most ceil(page_size / 2) of them.
constexpr std::size_t max_diff_bytes(std::size_t page_size) {
  return page_size + sizeof(RunHeader) * ((page_size + 1) / 2);
}

// This thread's scratch buffer, with room for the largest encoding of a
// page. Both encoders store their runs into it with plain stores and copy
// them out once at their exact size: no growth checks per run, and no
// doubling slack in the diffs the protocol stores.
std::uint8_t* diff_scratch(std::size_t page_size) {
  thread_local std::vector<std::uint8_t> scratch;
  if (scratch.size() < max_diff_bytes(page_size))
    scratch.resize(max_diff_bytes(page_size));
  return scratch.data();
}

// Stores one run at `out`, which has room for it; returns the new end.
inline std::uint8_t* put_run(std::uint8_t* out, std::size_t offset,
                             std::size_t length, const std::uint8_t* data) {
  OMSP_CHECK(length <= 0xffff); // u16 wire length; offset checked by caller
  const RunHeader h{static_cast<std::uint16_t>(offset),
                    static_cast<std::uint16_t>(length)};
  std::memcpy(out, &h, sizeof h);
  std::memcpy(out + sizeof h, data + offset, length);
  return out + sizeof h + length;
}

// Turns per-byte difference masks into maximal byte-exact runs. Fed one
// block at a time: bit i of `m` says byte (base + i) differs. A run that
// reaches the end of a block is left open and either extended or closed by
// the next block — so runs straddle word, lane and block boundaries without
// the kernels having to care. Runs are stored at `out`, which must have
// max_diff_bytes() of room.
struct RunEmitter {
  std::uint8_t* out;
  const std::uint8_t* cur;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t run_begin = kNone;

  // `nbytes` is the block width (<= 64); bits >= nbytes of `m` must be 0.
  inline void feed(std::size_t base, std::uint64_t m, unsigned nbytes) {
    unsigned bit = 0;
    if (run_begin != kNone) {
      const unsigned ones = static_cast<unsigned>(std::countr_one(m));
      if (ones >= nbytes) return; // open run covers this whole block
      out = put_run(out, run_begin, base + ones - run_begin, cur);
      run_begin = kNone;
      m >>= ones;
      bit = ones;
    }
    while (m != 0) {
      const unsigned zeros = static_cast<unsigned>(std::countr_zero(m));
      m >>= zeros;
      bit += zeros;
      const unsigned ones = static_cast<unsigned>(std::countr_one(m));
      if (bit + ones >= nbytes) { // run reaches block end: leave it open
        run_begin = base + bit;
        return;
      }
      out = put_run(out, base + bit, ones, cur);
      m >>= ones;
      bit += ones;
    }
  }

  inline void close_at(std::size_t end) {
    if (run_begin != kNone) {
      out = put_run(out, run_begin, end - run_begin, cur);
      run_begin = kNone;
    }
  }
};

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Per-byte difference mask of one 8-byte word (bit b set iff byte b
// differs), used by the portable kernel and every tail smaller than the
// vector width. Branch-free: t keeps the high bit of each nonzero byte of x
// (adding 0x7f to the low seven bits carries into bit 7 unless they are all
// zero), and the multiply gathers those eight bits into the top byte; the
// products land on distinct bit positions, so no carry disturbs them.
inline std::uint64_t word_mask(const std::uint8_t* twin,
                               const std::uint8_t* cur) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t x = load_u64(twin) ^ load_u64(cur);
  const std::uint64_t t = (((x & kLow7) + kLow7) | x) & ~kLow7;
  return ((t >> 7) * 0x0102040810204080ULL) >> 56;
}

// Per-byte difference mask of one 64-byte block.
inline std::uint64_t block_mask64(const std::uint8_t* twin,
                                  const std::uint8_t* cur) {
#if defined(__AVX2__)
  const __m256i t0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twin));
  const __m256i c0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur));
  const __m256i t1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twin + 32));
  const __m256i c1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + 32));
  const auto eq0 = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(t0, c0)));
  const auto eq1 = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(t1, c1)));
  return ~(static_cast<std::uint64_t>(eq0) |
           (static_cast<std::uint64_t>(eq1) << 32));
#else
  std::uint64_t m = 0;
  for (unsigned w = 0; w < 8; ++w)
    m |= word_mask(twin + 8 * w, cur + 8 * w) << (8 * w);
  return m;
#endif
}

} // namespace

const char* diff_kernel_name() { return OMSP_DIFF_KERNEL_NAME; }

DiffBytes create_diff(const std::uint8_t* twin, const std::uint8_t* current,
                      std::size_t page_size) {
  OMSP_CHECK(page_size % sizeof(std::uint64_t) == 0);
  OMSP_CHECK(page_size <= 65536);
  std::uint8_t* const buf = diff_scratch(page_size);

  // Runs must be byte-exact: a diff may never carry an unchanged byte,
  // because concurrent writers of the same page (false sharing) rely on the
  // merge touching only bytes they actually wrote. Blocks are compared 64
  // bytes at a time; only blocks with differences reach the run emitter.
  RunEmitter em{buf, current};
  std::size_t base = 0;
  for (; base + 64 <= page_size; base += 64) {
    const std::uint64_t m = block_mask64(twin + base, current + base);
    if (m == 0) {
      em.close_at(base); // an equal byte always terminates an open run
      continue;
    }
    em.feed(base, m, 64);
  }
  for (; base < page_size; base += 8)
    em.feed(base, word_mask(twin + base, current + base), 8);
  em.close_at(page_size);
  return DiffBytes(buf, em.out);
}

DiffBytes create_diff_scalar(const std::uint8_t* twin,
                             const std::uint8_t* current,
                             std::size_t page_size) {
  OMSP_CHECK(page_size % sizeof(std::uint64_t) == 0);
  OMSP_CHECK(page_size <= 65536);
  std::uint8_t* const buf = diff_scratch(page_size);
  std::uint8_t* out = buf;

  // The original TreadMarks-style encoder: compare a machine word at a time,
  // refine changed words to exact byte runs. Kept as the reference
  // implementation the compare kernels are proved against; it shares their
  // scratch buffer and copy-out, so the two differ only in the compare.
  const std::size_t words = page_size / sizeof(std::uint64_t);
  std::uint64_t tw, cw;
  std::size_t run_begin = page_size; // page_size == "no open run"
  for (std::size_t w = 0; w < words; ++w) {
    std::memcpy(&tw, twin + w * 8, 8);
    std::memcpy(&cw, current + w * 8, 8);
    if (tw == cw) {
      if (run_begin != page_size) {
        out = put_run(out, run_begin, w * 8 - run_begin, current);
        run_begin = page_size;
      }
      continue;
    }
    for (std::size_t b = w * 8; b < w * 8 + 8; ++b) {
      if (twin[b] != current[b]) {
        if (run_begin == page_size) run_begin = b;
      } else if (run_begin != page_size) {
        out = put_run(out, run_begin, b - run_begin, current);
        run_begin = page_size;
      }
    }
  }
  if (run_begin != page_size)
    out = put_run(out, run_begin, page_size - run_begin, current);
  return DiffBytes(buf, out);
}

namespace {

// memcpy for one run. Most runs are short (a few words of one cache line),
// where libc memcpy's size dispatch dominates; copy those with overlapping
// fixed-width moves instead. Every store stays inside [dst, dst+n) — the
// overlap is between the head and tail copies of the same run, never with
// bytes outside it, so the byte-exact merge contract holds.
inline void copy_run(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  if (n > 64) { // first test, not last: keeps the big-run path hot
    if (n <= 128) { // two overlapping 64-byte moves beat a libc call
      std::memcpy(dst, src, 64);
      std::memcpy(dst + n - 64, src + n - 64, 64);
      return;
    }
    std::memcpy(dst, src, n);
    return;
  }
  if (n >= 16) {
    if (n > 32) {
      std::memcpy(dst, src, 32);
      std::memcpy(dst + n - 32, src + n - 32, 32);
      return;
    }
    std::memcpy(dst, src, 16);
    std::memcpy(dst + n - 16, src + n - 16, 16);
    return;
  }
  if (n >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + n - 8, src + n - 8, 8);
    return;
  }
  if (n >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + n - 4, src + n - 4, 4);
    return;
  }
  if (n >= 2) {
    std::memcpy(dst, src, 2);
    std::memcpy(dst + n - 2, src + n - 2, 2);
    return;
  }
  if (n == 1) *dst = *src;
}

} // namespace

void apply_diff(std::span<const std::uint8_t> diff, std::uint8_t* dst,
                std::size_t page_size) {
  for_each_run(diff, page_size,
               [dst](std::size_t offset, const std::uint8_t* src,
                     std::size_t length) { copy_run(dst + offset, src, length); });
}

std::size_t diff_patch_bytes(std::span<const std::uint8_t> diff,
                             std::size_t page_size) {
  std::size_t total = 0;
  for_each_run(diff, page_size,
               [&total](std::size_t, const std::uint8_t*, std::size_t length) {
                 total += length;
               });
  return total;
}

std::size_t diff_run_count(std::span<const std::uint8_t> diff,
                           std::size_t page_size) {
  std::size_t runs = 0;
  for_each_run(diff, page_size,
               [&runs](std::size_t, const std::uint8_t*, std::size_t) { ++runs; });
  return runs;
}

} // namespace omsp::tmk
