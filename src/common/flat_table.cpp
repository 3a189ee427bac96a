#include "common/flat_table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>

#include <sys/mman.h>

namespace skh::common {

namespace {

std::atomic<std::uint64_t> g_mapped_blocks{0};

constexpr std::size_t kMinSlots = 64;  // one full occupancy word at minimum
constexpr std::size_t kSlotsPerWord = 64;

/// Round `n` up to the next multiple of the 64-byte arena alignment, so
/// every section starts on its own cache line.
constexpr std::size_t cache_align(std::size_t n) noexcept {
  return (n + 63U) & ~std::size_t{63};
}

}  // namespace

// AddressSanitizer puts redzones only around heap blocks, so its builds
// keep these blocks on the heap, page-aligned, where an overrun is caught.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::align_val_t kPageAlign{4096};

void* map_pages(std::size_t bytes) {
  void* p = ::operator new(bytes, kPageAlign);
  g_mapped_blocks.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void unmap_pages(void* p, std::size_t) noexcept {
  ::operator delete(p, kPageAlign);
}
#else
void* map_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  g_mapped_blocks.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept { ::munmap(p, bytes); }
#endif

std::uint64_t mapped_blocks() noexcept {
  return g_mapped_blocks.load(std::memory_order_relaxed);
}

FlatPairTable::FlatPairTable(FlatTableConfig cfg) {
  if (cfg.capacity > 0) reserve(cfg.capacity);
}

std::size_t FlatPairTable::slots_for(std::size_t capacity) noexcept {
  // More than twice `capacity`, so `capacity` keys sit at or below the
  // occupancy limit; then the next power of two for mask probing.
  return std::bit_ceil(std::max(2 * capacity + 1, kMinSlots));
}

void FlatPairTable::rebuild(std::size_t new_slots) {
  assert(std::has_single_bit(new_slots) && new_slots >= kMinSlots);
  const std::size_t word_bytes =
      (new_slots / kSlotsPerWord) * sizeof(std::uint64_t);
  const std::size_t key_off = cache_align(word_bytes);
  const std::size_t id_off =
      cache_align(key_off + new_slots * sizeof(EndpointPair));
  const std::size_t total = cache_align(id_off + new_slots * sizeof(SlotId));

  std::vector<std::byte, ArenaAllocator<>> na(total, std::byte{0});
  auto* nwords = reinterpret_cast<std::uint64_t*>(na.data());
  auto* nkeys = reinterpret_cast<EndpointPair*>(na.data() + key_off);
  auto* nids = reinterpret_cast<SlotId*>(na.data() + id_off);

  // Re-place every mapping; ids are carried verbatim (the whole point of
  // the id indirection).
  const std::size_t mask = new_slots - 1;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (!used(s)) continue;
    const EndpointPair& key = keys()[s];
    std::size_t t = hash_key(key) & mask;
    while ((nwords[t >> 6] >> (t & 63U)) & 1U) t = (t + 1) & mask;
    nwords[t >> 6] |= std::uint64_t{1} << (t & 63U);
    nkeys[t] = key;
    nids[t] = ids()[s];
  }

  arena_ = std::move(na);
  slots_ = new_slots;
  key_off_ = key_off;
  id_off_ = id_off;
}

void FlatPairTable::reserve(std::size_t capacity) {
  const std::size_t want = slots_for(capacity);
  if (want > slots_) rebuild(want);
}

FlatPairTable::InsertResult FlatPairTable::insert(const EndpointPair& key) {
  if (slots_ == 0) {
    rebuild(slots_for(1));
  } else if (used_ + 1 > virtual_capacity()) {
    // Past the virtual capacity: double. Ids are untouched.
    ++stats_.grows;
    rebuild(slots_ * 2);
  }

  const std::size_t mask = slots_ - 1;
  std::size_t s = hash_key(key) & mask;
  std::size_t steps = 0;
  for (; used(s); s = (s + 1) & mask, ++steps) {
    if (keys()[s] == key) break;
  }
  stats_.probe_steps += steps;
  stats_.max_probe =
      std::max(stats_.max_probe, static_cast<std::uint64_t>(steps));
  if (used(s)) return {ids()[s], false};

  const auto id = static_cast<SlotId>(used_++);
  words()[s >> 6] |= std::uint64_t{1} << (s & 63U);
  keys()[s] = key;
  ids()[s] = id;
  return {id, true};
}

}  // namespace skh::common
