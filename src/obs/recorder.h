// Flight recorder: bounded, allocation-free rings of recent analyzer
// activity, so every verdict can be reconstructed after the fact without
// re-running the campaign.
//
// Two record planes, both fixed-capacity after `reserve_pairs`:
//
//   * per-pair window rings — the last `window_depth` closed-window
//     summaries of every probe pair, keyed by the detector's stable dense
//     pair id (gid). Records carry the EndpointPair identity so a recycled
//     gid (pair retired by churn, slot reused) never attributes a stale
//     window to the wrong pair: readers filter on identity.
//   * a global event ring — recent anomaly events as routed by the hunter.
//
// Localization votes are not recorded here: the case that carries them is
// their only store, and its bundle prints them from there.
//
// Every ring counts the records it evicts or rejects (`*_drops`), so "the
// recorder wrapped" is always visible in the forensic bundle rather than
// silently truncating history. Memory is bounded by construction:
// pairs * window_depth * sizeof(WindowRecord) (~22 MB at the 97k-pair /
// depth-4 shard-gate scale) plus one small global ring.
//
// The recorder also stores the forensic bundles themselves (bounded,
// oldest-evicted): a case's bundle is built by the hunter at case open and
// finalized at case close, and can be fetched by case id afterwards.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_table.h"  // ArenaAllocator
#include "common/ids.h"
#include "common/time.h"

namespace skh::obs {

/// One closed detection window as seen by the analyzer. Flags describe what
/// the window contributed (bitmask, see kWindow* below).
struct WindowRecord {
  EndpointPair pair;
  SimTime start;
  SimTime end;
  std::uint32_t sent = 0;
  std::uint32_t lost = 0;
  float p50_us = 0.0f;   ///< window median RTT (µs); 0 when no samples
  float score = 0.0f;    ///< LOF score (short) or |z| (long); valid iff kWindowScored
  std::uint32_t flags = 0;
};

inline constexpr std::uint32_t kWindowInsufficient = 1u << 0;  ///< quorum not met
inline constexpr std::uint32_t kWindowScored = 1u << 1;        ///< score field valid
inline constexpr std::uint32_t kWindowLossFired = 1u << 2;     ///< loss-rate event
inline constexpr std::uint32_t kWindowLofFired = 1u << 3;      ///< LOF event
inline constexpr std::uint32_t kWindowLong = 1u << 4;          ///< long-term window
inline constexpr std::uint32_t kWindowZFired = 1u << 5;        ///< Z-test event

/// One anomaly event as routed to case tracking.
struct EventRecord {
  EndpointPair pair;
  SimTime at;
  double score = 0.0;
  std::uint8_t kind = 0;  ///< raw core::AnomalyKind value
};

struct RecorderConfig {
  bool enabled = true;
  std::size_t window_depth = 4;      ///< closed windows kept per pair
  std::size_t event_capacity = 4096; ///< global anomaly-event ring
  std::size_t bundle_capacity = 32;  ///< forensic bundles kept (oldest evicted)
};

class FlightRecorder {
 public:
  explicit FlightRecorder(const RecorderConfig& cfg = {});

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }
  [[nodiscard]] const RecorderConfig& config() const noexcept { return cfg_; }

  /// Size the per-pair arena for at least `n` pairs. Amortized; no-op when
  /// already large enough. Recording to a gid beyond the reserved range
  /// grows the arena (the hunter mirrors the detector's own reservation, so
  /// steady-state recording allocates nothing).
  void reserve_pairs(std::size_t n);

  /// Number of pair slots currently reserved.
  [[nodiscard]] std::size_t pair_capacity() const noexcept {
    return cursor_.size();
  }

  void record_window(std::uint32_t gid, const WindowRecord& rec);
  void record_event(const EventRecord& rec);

  /// Chronological (oldest-first) surviving window records for `gid` whose
  /// identity matches `pair` (recycled-slot records are skipped).
  [[nodiscard]] std::vector<WindowRecord> windows_of(
      std::uint32_t gid, const EndpointPair& pair) const;

  /// Chronological surviving events, optionally filtered to one pair.
  [[nodiscard]] std::vector<EventRecord> events() const;
  [[nodiscard]] std::vector<EventRecord> events_of(
      const EndpointPair& pair) const;

  /// Store (or replace) the forensic bundle for a case. Evicts the oldest
  /// bundle beyond `bundle_capacity` and counts the eviction.
  void store_bundle(std::uint32_t case_id, std::string json);
  /// Bundle for `case_id`, or nullptr if never stored / already evicted.
  [[nodiscard]] const std::string* bundle_of(std::uint32_t case_id) const;
  [[nodiscard]] const std::deque<std::pair<std::uint32_t, std::string>>&
  bundles() const noexcept {
    return bundles_;
  }

  /// Dropped-record accounting: window/event counts are records
  /// overwritten on ring wrap; bundle drops are evictions.
  [[nodiscard]] std::uint64_t window_drops() const noexcept { return window_drops_; }
  [[nodiscard]] std::uint64_t event_drops() const noexcept { return event_drops_; }
  [[nodiscard]] std::uint64_t bundle_drops() const noexcept { return bundle_drops_; }

  void clear();

 private:
  RecorderConfig cfg_;
  // Per-pair rings, flattened: slot gid holds windows_[gid*depth ..
  // gid*depth+depth). cursor_/count_ pack the ring state per pair. The
  // rings regrow with every replan, so once large they sit on pages of
  // their own, like the detector's per-pair arrays.
  std::vector<WindowRecord, common::ArenaAllocator<WindowRecord>> windows_;
  std::vector<std::uint8_t> cursor_;
  std::vector<std::uint8_t> count_;

  std::vector<EventRecord> events_;
  std::size_t event_cursor_ = 0;
  std::size_t event_count_ = 0;

  std::deque<std::pair<std::uint32_t, std::string>> bundles_;

  std::uint64_t window_drops_ = 0;
  std::uint64_t event_drops_ = 0;
  std::uint64_t bundle_drops_ = 0;
};

}  // namespace skh::obs
