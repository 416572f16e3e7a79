// Shared-heap allocator (the Tmk_malloc of the paper).
//
// Returns GlobalAddr offsets into the shared heap. A first-fit free list with
// coalescing; metadata lives host-side (not in DSM memory), which is
// interface-equivalent to TreadMarks' allocator while keeping allocator
// traffic out of the measured protocol counters. Allocation is master-only
// (OpenMP programs allocate shared data in sequential sections; the paper's
// translator hoists such allocations the same way), so the class is not
// thread-safe by design — DsmSystem enforces the discipline.
#pragma once

#include <cstddef>
#include <map>

#include "common/types.hpp"

namespace omsp::tmk {

class HeapAllocator {
public:
  explicit HeapAllocator(std::size_t heap_bytes);

  // Allocate `bytes` aligned to `align` (a power of two). Returns
  // kNullGlobalAddr when the heap is exhausted.
  GlobalAddr allocate(std::size_t bytes, std::size_t align = 16);

  // Free a block previously returned by allocate. Coalesces with free
  // neighbours.
  void free(GlobalAddr addr);

  std::size_t bytes_in_use() const { return in_use_; }
  std::size_t bytes_total() const { return total_; }
  std::size_t allocation_count() const { return live_.size(); }
  // End of the highest block ever handed out. Never decreases: every live
  // or freed allocation lies below it.
  std::size_t high_water() const { return high_water_; }

  // Size recorded for a live allocation (0 if unknown).
  std::size_t allocation_size(GlobalAddr addr) const;

private:
  std::size_t total_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  // Free blocks by offset -> length. Adjacent blocks are always coalesced.
  std::map<GlobalAddr, std::size_t> free_blocks_;
  // Live allocations: user offset -> (block offset, block length).
  struct Live {
    GlobalAddr block;
    std::size_t length;
  };
  std::map<GlobalAddr, Live> live_;
};

} // namespace omsp::tmk
