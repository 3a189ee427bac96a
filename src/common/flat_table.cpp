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

constexpr std::size_t kMinSlots = 64;  // one full state word at minimum
constexpr std::size_t kSlotsPerWord = 32;

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

  // Re-place every live mapping; tombstones are dropped, ids are carried
  // verbatim (the whole point of the id indirection).
  const std::size_t mask = new_slots - 1;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (state_of(s) != SlotState::kUsed) continue;
    const EndpointPair& key = keys()[s];
    std::size_t t = hash_key(key) & mask;
    while (((nwords[t >> 5] >> ((t & 31U) << 1)) & 3U) != 0) {
      t = (t + 1) & mask;
    }
    nwords[t >> 5] |= std::uint64_t{1} << ((t & 31U) << 1);
    nkeys[t] = key;
    nids[t] = ids()[s];
  }

  arena_ = std::move(na);
  slots_ = new_slots;
  key_off_ = key_off;
  id_off_ = id_off;
  tombstones_ = 0;
}

void FlatPairTable::reserve(std::size_t capacity) {
  const std::size_t want = slots_for(capacity);
  if (want > slots_) rebuild(want);
}

FlatPairTable::InsertResult FlatPairTable::insert(const EndpointPair& key) {
  if (slots_ == 0) {
    rebuild(slots_for(1));
  } else if (used_ + tombstones_ + 1 > virtual_capacity()) {
    // Past the virtual capacity. If tombstones are the bulk of the
    // occupancy, a same-size purge restores headroom without growing;
    // otherwise the table is genuinely full and doubles. Either way ids
    // are untouched.
    if (tombstones_ >= used_ && used_ + 1 <= virtual_capacity()) {
      ++stats_.purges;
      rebuild(slots_);
    } else {
      ++stats_.grows;
      rebuild(slots_ * 2);
    }
  }

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t mask = slots_ - 1;
  std::size_t s = hash_key(key) & mask;
  std::size_t first_deleted = kNone;
  std::size_t steps = 0;
  for (;; s = (s + 1) & mask, ++steps) {
    const SlotState st = state_of(s);
    if (st == SlotState::kEmpty) break;
    if (st == SlotState::kUsed) {
      if (keys()[s] == key) {
        stats_.probe_steps += steps;
        stats_.max_probe = std::max(stats_.max_probe,
                                    static_cast<std::uint64_t>(steps));
        return {ids()[s], false};
      }
    } else if (first_deleted == kNone) {
      first_deleted = s;
    }
  }
  stats_.probe_steps += steps;
  stats_.max_probe =
      std::max(stats_.max_probe, static_cast<std::uint64_t>(steps));

  std::size_t target = s;
  if (first_deleted != kNone) {
    target = first_deleted;  // tombstone reuse keeps chains short
    --tombstones_;
  }
  SlotId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    ++stats_.recycled_ids;
  } else {
    id = next_id_++;
  }
  set_state(target, SlotState::kUsed);
  keys()[target] = key;
  ids()[target] = id;
  ++used_;
  return {id, true};
}

bool FlatPairTable::erase(const EndpointPair& key) {
  if (used_ == 0) return false;
  const std::size_t mask = slots_ - 1;
  std::size_t s = hash_key(key) & mask;
  for (std::size_t step = 0; step <= mask; ++step, s = (s + 1) & mask) {
    const SlotState st = state_of(s);
    if (st == SlotState::kEmpty) return false;
    if (st == SlotState::kUsed && keys()[s] == key) {
      set_state(s, SlotState::kDeleted);
      ++tombstones_;
      --used_;
      free_ids_.push_back(ids()[s]);
      return true;
    }
  }
  return false;
}

}  // namespace skh::common
