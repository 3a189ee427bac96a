// Heap-allocation counting for the allocation-free hot-path contracts.
//
// Linking support/alloc_counter.cpp into a test binary replaces the global
// operator new/delete (plain and std::align_val_t forms) for the whole
// binary; allocations are counted only while an AllocationCounter is
// alive, on any thread. Blocks large enough to get pages of their own
// (`common::map_pages`, behind `common::ArenaAllocator`) count too.
#pragma once

#include <cstdint>

namespace skh::testutil {

/// Counts heap allocations and mapped page blocks made while it is alive.
class AllocationCounter {
 public:
  AllocationCounter();
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;
  [[nodiscard]] std::uint64_t count() const;

 private:
  std::uint64_t start_;
};

}  // namespace skh::testutil
