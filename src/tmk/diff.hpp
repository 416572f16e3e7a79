// Twin/diff machinery for the multiple-writer protocol.
//
// On the first write to a page in an interval the faulting context copies the
// page to a "twin". A diff is the run-length encoding of the bytes that
// changed between the twin and the current contents; applying a diff patches
// only those bytes, which is what lets two contexts modify disjoint parts of
// the same page concurrently (false sharing) and merge at the next
// synchronization.
//
// Encoding: sequence of runs, each {u16 offset, u16 length, length bytes}.
// A run is a MAXIMAL stretch of strictly differing bytes — any equal byte
// terminates it — so the encoding is canonical: every correct encoder
// produces byte-identical output for the same (twin, current) pair. That is
// the contract that lets create_diff() be vectorized: its compare kernel
// (AVX2 when the build host runs it, otherwise a portable 64-bit-word
// kernel) computes a per-byte "differs" mask 64 bytes at a time and feeds it
// to one shared mask->run emitter, and the property tests assert the output
// equals create_diff_scalar()'s byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace omsp::tmk {

inline constexpr std::size_t kPageSize = 4096;

using DiffBytes = std::vector<std::uint8_t>;

namespace detail {

// Wire layout of one run header. A page offset fits in 16 bits for pages up
// to 64K; so does the length of any run shorter than a full 64K page.
struct RunHeader {
  std::uint16_t offset;
  std::uint16_t length;
};

} // namespace detail

// Walk every run of a diff, validating as it goes: each header must be
// complete, each run's payload must be inside the diff buffer, and each run
// must land entirely inside [0, page_size). All of apply_diff(),
// diff_patch_bytes() and diff_run_count() are this one loop — malformed
// input dies on the same OMSP_CHECKs everywhere.
// fn(offset, payload, length) is called once per run.
template <typename Fn>
inline void for_each_run(std::span<const std::uint8_t> diff,
                         std::size_t page_size, Fn&& fn) {
  const std::uint8_t* p = diff.data();
  const std::size_t n = diff.size();
  std::size_t pos = 0;
  while (pos < n) {
    OMSP_CHECK_MSG(pos + sizeof(detail::RunHeader) <= n,
                   "truncated diff header");
    detail::RunHeader h;
    std::memcpy(&h, p + pos, sizeof h);
    pos += sizeof h;
    const std::size_t offset = h.offset, length = h.length;
    // One fused test: run payload inside the diff AND inside the page.
    OMSP_CHECK_MSG((pos + length <= n) & (offset + length <= page_size),
                   "truncated diff run or run overflows page");
    fn(offset, p + pos, length);
    pos += length;
  }
}

// Encode the difference (twin -> current) of one page. Returns an empty
// vector when nothing changed. Uses the compare kernel the build selected
// (see diff_kernel_name()); the runs are encoded into a per-thread scratch
// buffer and copied out at their exact size.
DiffBytes create_diff(const std::uint8_t* twin, const std::uint8_t* current,
                      std::size_t page_size = kPageSize);

// The original word-at-a-time scalar encoder, kept as the executable
// reference: property tests assert the SIMD kernel's output is
// byte-identical, and micro_dsm benches it against create_diff() to record
// the speedup in BENCH_*.json.
DiffBytes create_diff_scalar(const std::uint8_t* twin,
                             const std::uint8_t* current,
                             std::size_t page_size = kPageSize);

// Which compare kernel create_diff() was compiled with: "avx2" or
// "portable64".
const char* diff_kernel_name();

// Patch `dst` with a diff produced by create_diff. `dst` must point at a
// buffer of at least `page_size` bytes; a run that would write outside it is
// rejected (OMSP_CHECK) before any byte of that run is copied.
void apply_diff(std::span<const std::uint8_t> diff, std::uint8_t* dst,
                std::size_t page_size = kPageSize);

// Number of payload bytes a diff patches (sum of run lengths); used by
// tests and the stats counters.
std::size_t diff_patch_bytes(std::span<const std::uint8_t> diff,
                             std::size_t page_size = kPageSize);

// Number of runs in a diff.
std::size_t diff_run_count(std::span<const std::uint8_t> diff,
                           std::size_t page_size = kPageSize);

} // namespace omsp::tmk
