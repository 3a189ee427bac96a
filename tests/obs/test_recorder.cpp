#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <string>

#include "common/ids.h"
#include "common/time.h"

namespace skh::obs {
namespace {

EndpointPair pair_of(std::uint32_t a, std::uint32_t b) {
  return {{ContainerId{a}, RnicId{0}}, {ContainerId{b}, RnicId{0}}};
}

WindowRecord window_at(const EndpointPair& p, double start_s) {
  WindowRecord w;
  w.pair = p;
  w.start = SimTime::seconds(start_s);
  w.end = SimTime::seconds(start_s + 30);
  w.sent = 30;
  w.lost = 1;
  w.p50_us = 40.0f;
  w.flags = kWindowScored;
  return w;
}

TEST(FlightRecorder, WindowRingKeepsNewestAndCountsDrops) {
  RecorderConfig cfg;
  cfg.window_depth = 4;
  FlightRecorder rec(cfg);
  rec.reserve_pairs(8);
  const auto p = pair_of(1, 2);
  for (int i = 0; i < 10; ++i) {
    rec.record_window(3, window_at(p, 100.0 * i));
  }
  const auto ws = rec.windows_of(3, p);
  ASSERT_EQ(ws.size(), 4u);
  // Chronological, oldest surviving first: starts 600, 700, 800, 900.
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].start, SimTime::seconds(600.0 + 100.0 * i));
  }
  EXPECT_EQ(rec.window_drops(), 6u);
}

TEST(FlightRecorder, RecycledGidNeverMisattributesWindows) {
  FlightRecorder rec;
  rec.reserve_pairs(4);
  const auto old_pair = pair_of(1, 2);
  const auto new_pair = pair_of(7, 8);
  rec.record_window(0, window_at(old_pair, 100));
  // A restore to a snapshot older than gid 0's discovery re-issues it to
  // another pair.
  rec.record_window(0, window_at(new_pair, 500));
  const auto ws_new = rec.windows_of(0, new_pair);
  ASSERT_EQ(ws_new.size(), 1u);
  EXPECT_EQ(ws_new[0].start, SimTime::seconds(500));
  // The stale record is invisible to the new identity but still present
  // for the old one.
  const auto ws_old = rec.windows_of(0, old_pair);
  ASSERT_EQ(ws_old.size(), 1u);
  EXPECT_EQ(ws_old[0].start, SimTime::seconds(100));
}

TEST(FlightRecorder, RecordingPastReservationGrowsArena) {
  FlightRecorder rec;
  rec.reserve_pairs(2);
  const auto p = pair_of(3, 4);
  rec.record_window(100, window_at(p, 10));  // far beyond the reservation
  EXPECT_GE(rec.pair_capacity(), 101u);
  EXPECT_EQ(rec.windows_of(100, p).size(), 1u);
}

TEST(FlightRecorder, EventRingWrapsOldestFirst) {
  RecorderConfig cfg;
  cfg.event_capacity = 4;
  FlightRecorder rec(cfg);
  for (int i = 0; i < 7; ++i) {
    rec.record_event({pair_of(1, 2), SimTime::seconds(i), 1.0 * i, 0});
  }
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].at, SimTime::seconds(3 + static_cast<int>(i)));
  }
  EXPECT_EQ(rec.event_drops(), 3u);
  // Pair filter.
  rec.record_event({pair_of(9, 9), SimTime::seconds(50), 2.0, 1});
  const auto only = rec.events_of(pair_of(9, 9));
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].at, SimTime::seconds(50));
}

TEST(FlightRecorder, BundleStoreReplaceAndEvict) {
  RecorderConfig cfg;
  cfg.bundle_capacity = 2;
  FlightRecorder rec(cfg);
  rec.store_bundle(1, "{\"v\":1}");
  rec.store_bundle(2, "{\"v\":2}");
  // Replacement keeps the slot, no eviction.
  rec.store_bundle(1, "{\"v\":10}");
  ASSERT_NE(rec.bundle_of(1), nullptr);
  EXPECT_EQ(*rec.bundle_of(1), "{\"v\":10}");
  EXPECT_EQ(rec.bundle_drops(), 0u);
  // A third distinct case evicts the oldest (case 1, re-stored earlier
  // than case 2? eviction is FIFO by first-store order).
  rec.store_bundle(3, "{\"v\":3}");
  EXPECT_EQ(rec.bundles().size(), 2u);
  EXPECT_EQ(rec.bundle_drops(), 1u);
  EXPECT_NE(rec.bundle_of(3), nullptr);
}

TEST(FlightRecorder, ClearResetsEverything) {
  FlightRecorder rec;
  rec.reserve_pairs(2);
  const auto p = pair_of(1, 2);
  rec.record_window(0, window_at(p, 10));
  rec.record_event({p, SimTime::seconds(1), 1.0, 0});
  rec.store_bundle(1, "{}");
  rec.clear();
  EXPECT_TRUE(rec.windows_of(0, p).empty());
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.bundle_of(1), nullptr);
  EXPECT_EQ(rec.window_drops(), 0u);
  EXPECT_EQ(rec.event_drops(), 0u);
}

TEST(FlightRecorder, DepthIsClampedToRingStateWidth) {
  RecorderConfig cfg;
  cfg.window_depth = 10'000;  // cursor/count are uint8: clamp to 255
  FlightRecorder rec(cfg);
  EXPECT_LE(rec.config().window_depth, 255u);
  RecorderConfig zero;
  zero.window_depth = 0;
  FlightRecorder rec0(zero);
  EXPECT_GE(rec0.config().window_depth, 1u);
}

}  // namespace
}  // namespace skh::obs
