// Differential fuzz of FlatPairTable against std::unordered_map.
//
// The table is the ingest hot path's single source of truth for pair ->
// id mappings, so its contract is pinned here the blunt way: drive both
// containers with the same randomized insert/find/iterate history and
// require identical observable state at every step — including the parts
// std::unordered_map does not have an analogue for (stable dense ids in
// insertion order, occupancy-triggered rebuilds), which are checked
// against the documented invariants instead.
#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace skh::common {
namespace {

Endpoint ep(std::uint32_t c, std::uint32_t r) {
  return Endpoint{ContainerId{c}, RnicId{r}};
}

/// Key universe shaped like the simulator's: dense container/RNIC ids,
/// so hash quality under power-of-two masks is exercised, not dodged.
EndpointPair key_of(std::uint32_t i, std::uint32_t universe) {
  const std::uint32_t a = i % universe;
  const std::uint32_t b = (i * 7 + 3) % universe;
  return EndpointPair{ep(a, a % 4), ep(b, b % 4)};
}

TEST(FlatPairTable, EmptyTableFindsNothingAndHoldsNoSlots) {
  FlatPairTable t;
  EXPECT_EQ(t.size(), 0U);
  EXPECT_EQ(t.slot_count(), 0U);
  EXPECT_EQ(t.find(key_of(0, 8)), FlatPairTable::kNoSlot);
}

TEST(FlatPairTable, InsertFindRoundTrip) {
  FlatPairTable t({.capacity = 16});
  const auto k = key_of(5, 64);
  const auto [id, inserted] = t.insert(k);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.find(k), id);
  const auto again = t.insert(k);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, id);
  EXPECT_EQ(t.size(), 1U);
  EXPECT_EQ(t.find(key_of(6, 64)), FlatPairTable::kNoSlot);
}

TEST(FlatPairTable, PlannedCapacityNeverRebuilds) {
  // The plan-time contract: a table sized for C keys does zero rehashes
  // and zero grows while holding <= C keys.
  constexpr std::size_t kPlanned = 500;
  FlatPairTable t({.capacity = kPlanned});
  const std::size_t slots_before = t.slot_count();
  EXPECT_GE(t.virtual_capacity(), kPlanned);
  for (std::uint32_t i = 0; i < kPlanned; ++i) {
    t.insert(key_of(i, 1u << 20));
  }
  EXPECT_EQ(t.size(), kPlanned);
  EXPECT_EQ(t.slot_count(), slots_before);
  EXPECT_EQ(t.stats().grows, 0U);
}

TEST(FlatPairTable, FullnessControlsSlackAndProbeLength) {
  // The table plans to be at most half full: a planned capacity gets more
  // than twice as many slots, and at that fullness linear probing shifts
  // an insert less than one slot on average.
  constexpr std::uint32_t kPlanned = 1000;
  FlatPairTable t({.capacity = kPlanned});
  EXPECT_GT(t.slot_count(), 2 * kPlanned);
  EXPECT_EQ(t.virtual_capacity(), t.slot_count() / 2);
  for (std::uint32_t i = 0; i < kPlanned; ++i) t.insert(key_of(i, 1u << 20));
  EXPECT_EQ(t.stats().grows, 0U);
  EXPECT_LT(t.stats().probe_steps, kPlanned);
}

TEST(FlatPairTable, FullnessBoundaryTriggersExactlyAtVirtualCapacity) {
  FlatPairTable t({.capacity = 8});
  const std::size_t vcap = t.virtual_capacity();
  const std::size_t slots = t.slot_count();
  std::uint32_t i = 0;
  for (; t.size() < vcap; ++i) t.insert(key_of(i, 1u << 20));
  EXPECT_EQ(t.slot_count(), slots);  // at the limit: no rebuild yet
  t.insert(key_of(i, 1u << 20));     // one past: must have rebuilt
  EXPECT_GT(t.slot_count(), slots);
  EXPECT_EQ(t.stats().grows, 1U);
}

TEST(FlatPairTable, IdsSurviveReserveRebuild) {
  FlatPairTable t({.capacity = 8});
  std::unordered_map<EndpointPair, FlatPairTable::SlotId> want;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto k = key_of(i, 1u << 20);
    want[k] = t.insert(k).id;
  }
  const std::size_t slots_small = t.slot_count();
  t.reserve(4096);  // forces a rebuild; probe slots move, ids must not
  EXPECT_GT(t.slot_count(), slots_small);
  for (const auto& [k, id] : want) EXPECT_EQ(t.find(k), id);
  for (std::uint32_t i = 8; i < 4096; ++i) t.insert(key_of(i, 1u << 20));
  // Plan-time reserve is not an incident: it never shows up in `grows`,
  // and having reserved, the 4096 inserts trigger no rebuild either.
  EXPECT_EQ(t.stats().grows, 0U);
  for (const auto& [k, id] : want) EXPECT_EQ(t.find(k), id);
}

TEST(FlatPairTable, DifferentialFuzzAgainstUnorderedMap) {
  // Mixed workload, deliberately under-planned so the fuzz crosses grow
  // rebuilds, and over a small key universe so most inserts and finds hit
  // a key mapped before the last rebuild.
  FlatPairTable t({.capacity = 4});
  std::unordered_map<EndpointPair, FlatPairTable::SlotId> model;
  RngStream rng{0xD1FF};
  constexpr std::uint32_t kUniverse = 300;  // small: lots of re-insertion

  for (std::uint32_t step = 0; step < 20000; ++step) {
    const auto k = key_of(
        static_cast<std::uint32_t>(rng.uniform_int(0, kUniverse - 1)),
        1u << 20);
    const auto op = rng.uniform_int(0, 9);
    if (op < 5) {  // insert
      const auto [id, inserted] = t.insert(k);
      const auto it = model.find(k);
      ASSERT_EQ(inserted, it == model.end()) << "step " << step;
      if (inserted) {
        // A new key takes the next id of the bump counter.
        ASSERT_EQ(id, model.size()) << "step " << step;
        model.emplace(k, id);
      } else {
        ASSERT_EQ(id, it->second) << "step " << step;
      }
    } else {  // find
      const auto it = model.find(k);
      ASSERT_EQ(t.find(k),
                it == model.end() ? FlatPairTable::kNoSlot : it->second)
          << "step " << step;
    }
    ASSERT_EQ(t.size(), model.size()) << "step " << step;
  }

  // Full-state reconciliation via iteration, both directions.
  std::unordered_map<EndpointPair, FlatPairTable::SlotId> seen;
  t.for_each([&](const EndpointPair& k, FlatPairTable::SlotId id) {
    const auto [_, fresh] = seen.emplace(k, id);
    ASSERT_TRUE(fresh) << "for_each visited a key twice";
  });
  ASSERT_EQ(seen.size(), model.size());
  for (const auto& [k, id] : model) {
    const auto it = seen.find(k);
    ASSERT_NE(it, seen.end());
    EXPECT_EQ(it->second, id);
  }

  // Id-space invariant: the ids are exactly 0..size-1.
  std::unordered_set<FlatPairTable::SlotId> ids;
  for (const auto& [k, id] : model) {
    EXPECT_LT(id, model.size());
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id";
  }
  EXPECT_EQ(t.stats().recycled_ids, 0U);
  EXPECT_GT(t.stats().grows, 0U);  // the under-planned start had to grow
}

TEST(FlatPairTable, ForEachOrderIsDeterministicForSameHistory) {
  auto build = [] {
    FlatPairTable t({.capacity = 32});
    for (std::uint32_t i = 0; i < 100; ++i) t.insert(key_of(i, 1u << 20));
    for (std::uint32_t i = 0; i < 100; i += 3) t.insert(key_of(i, 1u << 20));
    std::vector<std::pair<EndpointPair, FlatPairTable::SlotId>> order;
    t.for_each([&](const EndpointPair& k, FlatPairTable::SlotId id) {
      order.emplace_back(k, id);
    });
    return order;
  };
  EXPECT_EQ(build(), build());
}

TEST(ArenaAllocator, LargeBlocksGetPagesOfTheirOwn) {
  using Array = std::vector<double, ArenaAllocator<double>>;
  const auto aligned = [](const void* p, std::uintptr_t to) {
    return reinterpret_cast<std::uintptr_t>(p) % to == 0;
  };
  const std::uint64_t before = mapped_blocks();
  Array small(kOwnPagesBytes / sizeof(double) - 1);
  EXPECT_TRUE(aligned(small.data(), 64));
  EXPECT_EQ(mapped_blocks(), before);

  Array large(kOwnPagesBytes / sizeof(double), 0.5);
  EXPECT_TRUE(aligned(large.data(), 4096));
  EXPECT_EQ(mapped_blocks(), before + 1);
  large.back() = 2.0;
  // Regrowth maps the new block, copies, and unmaps the old one.
  large.reserve(2 * large.size());
  EXPECT_EQ(mapped_blocks(), before + 2);
  EXPECT_EQ(large.front(), 0.5);
  EXPECT_EQ(large.back(), 2.0);
  const Array copy = large;
  EXPECT_EQ(mapped_blocks(), before + 3);
  EXPECT_EQ(copy, large);
}

}  // namespace
}  // namespace skh::common
