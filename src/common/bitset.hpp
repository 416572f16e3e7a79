// Dynamic bitset used for page-level dirty tracking. Grows with the page
// table; the fault-path operations (test/set/reset) are branch-free word
// ops. Not thread-safe by itself — callers hold the relevant page or context
// lock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace omsp {

class DynamicBitset {
public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  // Extend to `bits`, keeping every bit already set; the new bits are clear.
  void grow(std::size_t bits) {
    OMSP_DCHECK(bits >= bits_);
    bits_ = bits;
    words_.resize((bits + 63) / 64, 0);
  }

  std::size_t size() const { return bits_; }

  bool test(std::size_t i) const {
    OMSP_DCHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i) {
    OMSP_DCHECK(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) {
    OMSP_DCHECK(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  // Visit every set bit in ascending order.
  template <typename Fn> void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        const int b = __builtin_ctzll(w);
        fn(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

} // namespace omsp
