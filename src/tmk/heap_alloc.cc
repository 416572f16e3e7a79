#include "tmk/heap_alloc.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/mathutil.hpp"

namespace omsp::tmk {

HeapAllocator::HeapAllocator(std::size_t heap_bytes) : total_(heap_bytes) {
  if (heap_bytes > 0) free_blocks_.emplace(0, heap_bytes);
}

GlobalAddr HeapAllocator::allocate(std::size_t bytes, std::size_t align) {
  OMSP_CHECK(bytes > 0);
  OMSP_CHECK(is_pow2(align));
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    const GlobalAddr block = it->first;
    const std::size_t len = it->second;
    const GlobalAddr user = round_up(block, align);
    const std::size_t pad = static_cast<std::size_t>(user - block);
    if (bytes > len || pad > len - bytes) continue; // no wrap for huge sizes

    free_blocks_.erase(it);
    if (pad > 0) free_blocks_.emplace(block, pad);
    const std::size_t used = pad + bytes;
    if (used < len) free_blocks_.emplace(block + used, len - used);

    live_.emplace(user, Live{user, bytes});
    in_use_ += bytes;
    high_water_ = std::max(high_water_, user + bytes);
    return user;
  }
  return kNullGlobalAddr;
}

void HeapAllocator::free(GlobalAddr addr) {
  auto it = live_.find(addr);
  OMSP_CHECK_MSG(it != live_.end(), "free of unknown shared-heap block");
  GlobalAddr begin = it->second.block;
  std::size_t len = it->second.length;
  in_use_ -= it->second.length;
  live_.erase(it);

  // Coalesce with the following free block.
  auto next = free_blocks_.lower_bound(begin);
  if (next != free_blocks_.end() && next->first == begin + len) {
    len += next->second;
    free_blocks_.erase(next);
  }
  // Coalesce with the preceding free block.
  auto prev = free_blocks_.lower_bound(begin);
  if (prev != free_blocks_.begin()) {
    --prev;
    if (prev->first + prev->second == begin) {
      begin = prev->first;
      len += prev->second;
      free_blocks_.erase(prev);
    }
  }
  free_blocks_.emplace(begin, len);
}

std::size_t HeapAllocator::allocation_size(GlobalAddr addr) const {
  auto it = live_.find(addr);
  return it == live_.end() ? 0 : it->second.length;
}

} // namespace omsp::tmk
