#include "support/alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/flat_table.h"

namespace {

std::atomic<int> g_alloc_scopes{0};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_alloc_scopes.load(std::memory_order_relaxed) > 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace skh::testutil {

AllocationCounter::AllocationCounter()
    : start_(g_allocs.load() + common::mapped_blocks()) {
  g_alloc_scopes.fetch_add(1);
}
AllocationCounter::~AllocationCounter() { g_alloc_scopes.fetch_sub(1); }
std::uint64_t AllocationCounter::count() const {
  return g_allocs.load() + common::mapped_blocks() - start_;
}

}  // namespace skh::testutil

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
