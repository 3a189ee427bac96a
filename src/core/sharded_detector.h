// Sharded analyzer scale-out: the pair space partitioned across N
// independent `AnomalyDetector` shards behind a single detector-shaped
// facade.
//
// Why sharding preserves verdicts exactly: every piece of detector state
// (windows, LOF look-back, long-term baseline, sequence tracking) is
// per-pair — the event stream a pair produces is a pure function of that
// pair's ingest sequence. So any partition of the pair space yields the
// same event *set*, provided each pair's probes stay in order. The facade
// guarantees the stronger property the hunter's case tracking needs —
// bit-identical verdicts at 1, 4, or 16 shards — with three invariants:
//
//  1. *Stable global ids.* A router `common::FlatPairTable` assigns every
//     pair a dense global id in discovery order. Discovery order depends
//     only on the probe schedule, never on the shard count, so the id a
//     pair gets (and everything keyed off it) is shard-count-invariant.
//     Placement is consistent-hash on that id (`ShardRing`), so it too is
//     a pure function of (id, shard count).
//  2. *Order-preserving batches.* `ingest_batch` partitions a probe round
//     by shard, preserving round order within each shard (same-pair
//     results always land in the same shard, so per-pair order holds),
//     runs one job per shard (on the worker pool, or inline without one),
//     and merges fired events back by original item index — reproducing
//     the exact event sequence a single detector ingesting the round
//     sequentially would emit.
//  3. *Canonical tails.* `flush` closes windows shard by shard (local
//     slot order) and then sorts the merged events with
//     `canonicalize_events`; any shard count sorts the same event set to
//     the same sequence.
//
// Rebalance rides the PR-5 state machinery: `migrate_range` moves a
// global-id range between shards via `AnomalyDetector::extract_pair` /
// `adopt_pair` mid-campaign. The moved pairs continue their windows
// bit-identically (the unit of state is the pair, and it travels whole),
// so a rebalanced campaign's verdicts match an unbalanced one's.
//
// Observability: at 1 shard the facade attaches the context directly to
// its single detector — the legacy single-analyzer path, bit-identical
// including tracer instants. At N > 1 shards each detector keeps a private
// registry (two pool threads must never record into one registry
// unsynchronized); `sync_obs` publishes the summed deltas into the
// attached context at flush / cold-reset so campaign-level scrapes still
// carry the detector.* series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_table.h"
#include "common/pool.h"
#include "core/anomaly.h"
#include "obs/context.h"

namespace skh::core {

/// Consistent-hash ring over shard indices, keyed by stable global pair
/// id. Each shard contributes `vnodes` points (splitmix-derived, so the
/// ring is a pure function of the shard count); a key routes to the owner
/// of the first point at or after its own hash. Pure and deterministic:
/// no RNG, no state beyond the sorted point list.
class ShardRing {
 public:
  ShardRing() : ShardRing(1) {}
  explicit ShardRing(std::size_t n_shards, std::size_t vnodes = 64);

  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept { return n_shards_; }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t shard;
  };
  std::vector<Point> points_;  ///< sorted by hash
  std::size_t n_shards_ = 1;
};

/// Detector-shaped facade over N pair-space shards. Drop-in for
/// `AnomalyDetector` in the hunter: same handle/retire/flush/snapshot
/// surface, same counters, with ingest by probe-round batch, plus the
/// rebalance API. N == 1 degenerates to a thin wrapper around one
/// detector (no pool dispatch, direct obs attach).
class ShardedDetector {
 public:
  /// Stable *global* pair id from the router table — shard-count-invariant
  /// (see file header), valid until the pair is recycled at `flush`.
  using GlobalHandle = common::FlatPairTable::SlotId;

  explicit ShardedDetector(DetectorConfig cfg = {}, std::size_t n_shards = 1,
                           common::ThreadPool* pool = nullptr);

  /// One probe observation, pre-routed (`handle` from `handle_of`).
  struct BatchItem {
    GlobalHandle handle = 0;
    Observation obs;
  };

  /// See AnomalyDetector::attach_obs. With one shard the context is
  /// attached directly (legacy path); with several it is retained for
  /// `sync_obs` and the shards keep their private registries.
  void attach_obs(obs::Context* ctx);

  /// Publish the shards' counter deltas into the attached context's
  /// registry (no-op at 1 shard, where the context is attached directly).
  /// Call when quiesced — end of campaign flush, cold reset.
  void sync_obs();

  /// Get-or-create the global handle for a pair; assigns placement for
  /// newly discovered pairs via the ring.
  [[nodiscard]] GlobalHandle handle_of(const EndpointPair& pair);

  /// Find-only lookup: the global handle of a mapped pair, or
  /// `common::FlatPairTable::kNoSlot` if unknown. Never allocates or
  /// assigns placement (forensic/recorder reads).
  [[nodiscard]] GlobalHandle find_handle(const EndpointPair& pair) const {
    return router_.find(pair);
  }

  /// Collect every shard's closed-window log (see
  /// AnomalyDetector::drain_window_log), appended to `out` in canonical
  /// order — sorted by (end, start, pair) — so the drained stream is
  /// shard-count-invariant. Summed drop count via `window_log_drops`.
  void drain_window_log(std::vector<obs::WindowRecord>& out);
  [[nodiscard]] std::uint64_t window_log_drops() const;

  /// Plan-time capacity: sizes the router and divides the expectation
  /// across shards. Growth only.
  void reserve_pairs(std::size_t pairs);

  /// Ingest one probe round — the facade's only ingest call. Items are
  /// partitioned by shard (round order preserved within each shard) and
  /// ingested with one job per shard, on the pool when there is one and
  /// inline otherwise; `events` receives every fired event grouped by
  /// originating item in item order — the exact sequence sequential
  /// single-detector ingest would produce — and `fired_per_item[i]` says
  /// how many of them item i contributed. Both outputs are overwritten.
  /// Returns the total number of events fired.
  std::size_t ingest_batch(std::span<const BatchItem> items,
                           std::vector<AnomalyEvent>& events,
                           std::vector<std::uint32_t>& fired_per_item);

  /// See AnomalyDetector::retire_pair.
  void retire_pair(const EndpointPair& pair);

  /// Force-close all open windows on every shard and recycle still-retired
  /// pairs (global ids included). Events are returned in canonical order
  /// (`canonicalize_events`) — identical at any shard count.
  [[nodiscard]] std::vector<AnomalyEvent> flush(SimTime now);

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Live (mapped) pairs, including retired-but-not-yet-recycled ones.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return router_.size();
  }
  [[nodiscard]] std::size_t retired_count() const noexcept;
  /// The router table (capacity planning / layout telemetry).
  [[nodiscard]] const common::FlatPairTable& pair_table() const noexcept {
    return router_;
  }
  /// Which shard currently owns a mapped pair (rebalance bookkeeping).
  [[nodiscard]] std::size_t shard_of(GlobalHandle h) const noexcept {
    return shard_of_[h];
  }
  /// Visit every mapped pair as f(pair) — router slot order, deterministic
  /// AND shard-count-invariant (single table, shard placement irrelevant).
  template <typename F>
  void for_each_pair(F&& f) const {
    router_.for_each(
        [&f](const EndpointPair& p, common::FlatPairTable::SlotId) { f(p); });
  }

  /// Summed ingest counters across shards. Rebalance-invariant: the LOF
  /// path counters travel inside each migrated pair's model.
  [[nodiscard]] DetectorCounters counters() const;

  /// Rebalance: move every mapped pair whose global id lies in [lo, hi)
  /// onto shard `to`, mid-campaign, via extract/adopt. Window state moves
  /// whole, so verdicts are unperturbed. Returns pairs moved.
  std::size_t migrate_range(GlobalHandle lo, GlobalHandle hi, std::size_t to);

  /// Opaque copy of the full analysis state: router, placement, and every
  /// shard's snapshot. Same contract as AnomalyDetector::Snapshot —
  /// restore-and-continue is bit-identical to never having stopped.
  /// Restore requires the same shard count (it is config, like the
  /// detector's window geometry).
  class Snapshot;
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  /// Placement of one mapped global id; kUnplaced marks a recycled id.
  static constexpr std::uint32_t kUnplaced = static_cast<std::uint32_t>(-1);

  DetectorConfig cfg_;
  ShardRing ring_;
  common::ThreadPool* pool_ = nullptr;  ///< not owned; may be null
  std::vector<std::unique_ptr<AnomalyDetector>> shards_;
  common::FlatPairTable router_;  ///< pair -> global id, discovery order
  // Dense by global id: owning shard, local handle there, and the pair
  // itself (recycle needs key lookups without re-deriving from shards).
  std::vector<std::uint32_t> shard_of_;
  std::vector<AnomalyDetector::PairHandle> local_of_;
  std::vector<EndpointPair> pair_of_;

  // Reused batch scratch (one entry per shard): item indices, fired
  // events, and per-item fired counts for the merge-by-item-index step.
  std::vector<std::vector<std::size_t>> batch_items_;
  std::vector<std::vector<AnomalyEvent>> batch_events_;
  std::vector<std::vector<std::uint32_t>> batch_fired_;
  std::vector<std::size_t> batch_cursor_item_;
  std::vector<std::size_t> batch_cursor_event_;

  obs::Context* obs_ = nullptr;
  DetectorCounters published_;  ///< registry-series totals already synced

  // Per-shard load/skew accounting for rebalance decisions, published by
  // sync_obs as `detector.shard<i>.*` series (facade-side, so it exists at
  // any shard count). merge-stall = how many item-slots the batch barrier
  // wasted waiting on the most-loaded shard: sum over batches of
  // (max shard items × shards − total items). Zero means perfectly even
  // routing; growth is the data a `migrate_range` decision wants.
  std::vector<std::uint64_t> shard_items_;  ///< batch items routed, per shard
  std::uint64_t merge_stall_items_ = 0;
  std::uint64_t merge_stall_published_ = 0;
  std::vector<std::uint64_t> shard_items_published_;

 public:
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class ShardedDetector;
    std::vector<AnomalyDetector::Snapshot> shards_;
    common::FlatPairTable router_;
    std::vector<std::uint32_t> shard_of_;
    std::vector<AnomalyDetector::PairHandle> local_of_;
    std::vector<EndpointPair> pair_of_;
  };
};

}  // namespace skh::core
