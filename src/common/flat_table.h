// Cache-resident fixed-capacity pair table for the ingest hot path.
//
// `FlatPairTable` maps an `EndpointPair` to a stable dense id using one
// arena-backed open-addressing slot array: one occupancy bit per slot
// packed 64-per-word, the keys, and the ids all live in a single
// 64-byte-aligned allocation, probed with linear shifting (the probe
// sequence shifts one slot per step from the hash slot). The table is
// insert-only — a mapping lives as long as the table — so a slot is either
// empty or used. It is sized once at plan time — the pair count is known
// after skeleton inference — at most half full: for a planned capacity C
// the slot array holds next_pow2(2C + 1) slots, so the *virtual* capacity
// (half the slots, the occupancy at which a rebuild would trigger) is at
// least C and steady-state probe chains stay short. A correctly planned
// table therefore performs zero rehashes and zero allocations on the
// ingest path.
//
// Ids are NOT probe-slot indices. A probe slot moves when the table grows;
// the id is allocated once per key from a bump counter, in insertion
// order, and never moves, so callers can index dense side arrays
// (placement, pair slots) by id across rebuilds. The full layout contract
// is documented in ARCHITECTURE.md ("Memory layout & hot path").
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/ids.h"

namespace skh::common {

/// Maps `bytes` of private anonymous pages, page-aligned; throws
/// std::bad_alloc when the kernel refuses. AddressSanitizer builds take the
/// block from the heap instead, so its redzones guard it.
[[nodiscard]] void* map_pages(std::size_t bytes);
/// Returns pages from `map_pages(bytes)` to the kernel.
void unmap_pages(void* p, std::size_t bytes) noexcept;
/// Blocks `map_pages` has mapped in this process so far; the
/// allocation-free contracts count them beside operator new.
[[nodiscard]] std::uint64_t mapped_blocks() noexcept;

/// Blocks of this many bytes and more get pages of their own. It is
/// glibc's default mmap threshold, fixed here because glibc raises its own
/// after the process frees a larger mapped block.
inline constexpr std::size_t kOwnPagesBytes = std::size_t{128} << 10;

/// 64-byte-aligned allocator for the slot arena, the detector's per-pair
/// arrays and the recorder's window rings.
/// Alignment is a property of the allocator (not a runtime offset fix-up)
/// so that the section offsets computed at rebuild stay valid across value
/// copies — a copied table (e.g. inside a detector snapshot) reuses them
/// untouched. A block of `kOwnPagesBytes` or more is mapped on pages of its
/// own and unmapped when freed: these arrays regrow at plan time, each
/// replan a little larger, and on the allocator's heap every old block
/// would leave a hole the next, larger one cannot use, so the process
/// footprint would climb with each replan instead of tracking what is
/// live.
template <typename T = std::byte>
struct ArenaAllocator {
  using value_type = T;

  template <typename U>
  struct rebind {
    using other = ArenaAllocator<U>;
  };

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kOwnPagesBytes) return static_cast<T*>(map_pages(bytes));
    return static_cast<T*>(::operator new(bytes, std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kOwnPagesBytes) {
      unmap_pages(p, bytes);
    } else {
      ::operator delete(p, std::align_val_t{64});
    }
  }
  template <typename U>
  friend bool operator==(const ArenaAllocator&, const ArenaAllocator<U>&) {
    return true;
  }
};

struct FlatTableConfig {
  /// Planned live-key count; the slot array is sized so this many keys fit
  /// without a rebuild. 0 defers sizing to the first insert / `reserve`.
  std::size_t capacity = 0;
};

class FlatPairTable {
 public:
  /// Stable dense id of a key; survives table rebuilds (see file header).
  using SlotId = std::uint32_t;
  static constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

  struct InsertResult {
    SlotId id;
    bool inserted;  ///< false: key already present, `id` is its mapping
  };

  struct Stats {
    std::uint64_t grows = 0;         ///< slot-array doublings
    std::uint64_t probe_steps = 0;   ///< linear shifts beyond the hash slot
    std::uint64_t max_probe = 0;     ///< longest single insert chain
    std::uint64_t recycled_ids = 0;  ///< always 0: ids are never reused
  };

  explicit FlatPairTable(FlatTableConfig cfg = {});

  /// Id of `key`, or kNoSlot. Zero allocation, at most one cache line of
  /// occupancy words plus the probed key slots. The table is never full
  /// (see `insert`), so every probe chain ends at an empty slot.
  [[nodiscard]] SlotId find(const EndpointPair& key) const noexcept {
    if (used_ == 0) return kNoSlot;
    const std::size_t mask = slots_ - 1;
    for (std::size_t s = hash_key(key) & mask; used(s); s = (s + 1) & mask) {
      if (keys()[s] == key) return ids()[s];
    }
    return kNoSlot;
  }

  /// Get-or-create the mapping for `key`. A new mapping takes the first
  /// empty slot on its probe chain and the next id from the bump counter.
  /// Doubles the slot array only when occupancy would exceed the virtual
  /// capacity — never on a correctly planned table.
  InsertResult insert(const EndpointPair& key);

  /// Ensure `capacity` keys fit without further rebuilds. Ids are stable
  /// across the rebuild; only probe-slot positions move.
  void reserve(std::size_t capacity);

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_; }
  /// Occupancy at which the next insert rebuilds: half the slots.
  [[nodiscard]] std::size_t virtual_capacity() const noexcept {
    return slots_ / 2;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Visit every mapping as f(key, id), in slot order (deterministic for a
  /// given insert history).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < slots_; ++s) {
      if (used(s)) f(keys()[s], ids()[s]);
    }
  }

 private:
  /// splitmix64 finalizer: full-avalanche mix of one 64-bit lane.
  [[nodiscard]] static constexpr std::uint64_t mix64(
      std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  /// Both 16 bytes of the pair feed the hash (two packed 64-bit lanes);
  /// the dense container/RNIC ids the simulator assigns are exactly the
  /// low-entropy keys a weaker mix would cluster under power-of-two masks.
  [[nodiscard]] static std::size_t hash_key(const EndpointPair& k) noexcept {
    const std::uint64_t lane0 =
        (static_cast<std::uint64_t>(k.src.container.value()) << 32) |
        k.src.rnic.value();
    const std::uint64_t lane1 =
        (static_cast<std::uint64_t>(k.dst.container.value()) << 32) |
        k.dst.rnic.value();
    return static_cast<std::size_t>(
        mix64(lane0 ^ mix64(lane1 ^ 0x9e3779b97f4a7c15ULL)));
  }

  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(arena_.data());
  }
  [[nodiscard]] std::uint64_t* words() noexcept {
    return reinterpret_cast<std::uint64_t*>(arena_.data());
  }
  [[nodiscard]] const EndpointPair* keys() const noexcept {
    return reinterpret_cast<const EndpointPair*>(arena_.data() + key_off_);
  }
  [[nodiscard]] EndpointPair* keys() noexcept {
    return reinterpret_cast<EndpointPair*>(arena_.data() + key_off_);
  }
  [[nodiscard]] const SlotId* ids() const noexcept {
    return reinterpret_cast<const SlotId*>(arena_.data() + id_off_);
  }
  [[nodiscard]] SlotId* ids() noexcept {
    return reinterpret_cast<SlotId*>(arena_.data() + id_off_);
  }

  /// Whether `slot` holds a mapping: one occupancy bit per slot.
  [[nodiscard]] bool used(std::size_t slot) const noexcept {
    return (words()[slot >> 6] >> (slot & 63U)) & 1U;
  }

  /// Slot count that holds `capacity` keys at most half full.
  [[nodiscard]] static std::size_t slots_for(std::size_t capacity) noexcept;
  /// Re-lay every mapping into a fresh arena of `new_slots` slots.
  void rebuild(std::size_t new_slots);

  std::size_t slots_ = 0;
  std::size_t used_ = 0;     ///< mappings, which are also the ids issued
  std::size_t key_off_ = 0;  ///< byte offset of the key section
  std::size_t id_off_ = 0;   ///< byte offset of the id section
  std::vector<std::byte, ArenaAllocator<>> arena_;
  Stats stats_;
};

}  // namespace skh::common
