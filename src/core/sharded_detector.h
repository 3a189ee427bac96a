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
//  1. *Stable global ids.* A router `common::FlatPairTable` — the
//     analyzer's one pair index — assigns every pair a dense global id in
//     discovery order, kept for the facade's lifetime. Discovery order
//     depends only on the probe schedule, never on the shard count, so the
//     id a pair gets (and everything keyed off it) is shard-count-invariant.
//     Id `g` lives on shard `g % N` in slot `g / N`, for the facade's
//     lifetime. Each shard is an append-only slot store with no pair
//     lookup of its own, and ids reach shard `s` in the order s, s + N,
//     s + 2N, ..., so the slot it appends is the id's quotient. Placement
//     is arithmetic — the facade stores none — and no shard holds more
//     than one pair above any other.
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
//     the same sequence. `drain_window_log` likewise emits the closed
//     windows in one canonical order.
//
// Calling-thread cost scales with what changed, not with the round size.
// A probe round lists the plan's pairs in the same order as the round
// before, so `handle_of` learns each id's successor and confirms a guess
// with sequential reads of dense per-id arrays instead of a random
// router-table miss; the event merge visits only the items that fired; and
// the window-log drain merges per-shard logs that already arrive sorted.
// Input that breaks the order (telemetry reordering, drops and duplicates,
// replans) only falls back to the table lookup or a per-shard sort — never
// to other output.
//
// Observability: every shard counts into its own plain `DetectorCounters`
// block (one cache line apart, since pool threads bump them on every
// probe), and only the calling thread reads them, after the batch barrier.
// With a context attached, one publish step at the end of every
// `ingest_batch` and `flush` adds the summed counts to the nine
// `detector.*` series and refreshes the per-shard load series — the same
// path at every shard count, so a scrape between rounds reads the same
// `detector.*` values at 1, 4 or 16 shards.
#pragma once

#include <array>
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

/// Detector-shaped facade over N pair-space shards. Drop-in for
/// `AnomalyDetector` in the hunter: same handle/flush/snapshot surface,
/// same counters, with ingest by probe-round batch. One shard runs the
/// same partition, shard job and sparse merge as N.
class ShardedDetector {
 public:
  /// Stable *global* pair id from the router table — shard-count-invariant
  /// (see file header) and never reused for another pair.
  using GlobalHandle = common::FlatPairTable::SlotId;

  explicit ShardedDetector(DetectorConfig cfg = {}, std::size_t n_shards = 1,
                           common::ThreadPool* pool = nullptr);

  /// One probe observation, pre-routed (`handle` from `handle_of`).
  struct BatchItem {
    GlobalHandle handle = 0;
    Observation obs;
  };

  /// Attach the observability context (nullptr detaches). Binds the
  /// `detector.*` series and the `detector.shard*` load series on the
  /// calling thread and turns the shards' window logs on; from then on
  /// every `ingest_batch` and `flush` ends by publishing the counts made
  /// since the attach, so attach before the first ingest (the
  /// `Experiment` does).
  void attach_obs(obs::Context* ctx);

  /// Get-or-create the global handle for a pair; a newly discovered pair
  /// is appended to shard `id % N`, in slot `id / N`. Order-learned: the
  /// id returned after the previous call's id last time is tried first,
  /// and accepted only if it is mapped and names `pair` — the router maps
  /// every mapped id's pair to that id, so a hit is exactly the id a table
  /// lookup returns. A miss does the lookup and records the successor.
  [[nodiscard]] GlobalHandle handle_of(const EndpointPair& pair);

  /// Find-only lookup: the global handle of a mapped pair, or
  /// `common::FlatPairTable::kNoSlot` if unknown. Never allocates or
  /// assigns placement (forensic/recorder reads).
  [[nodiscard]] GlobalHandle find_handle(const EndpointPair& pair) const {
    return router_.find(pair);
  }

  /// Collect every shard's closed-window log (see
  /// AnomalyDetector::window_log), appended to `out` in canonical order —
  /// sorted by (end, start, pair, flags) — so the drained stream is
  /// shard-count-invariant, and clear the logs. A shard's log is sorted in
  /// place only when it is out of order (a round that listed its pairs out
  /// of order, or closed short and long windows together); the sorted logs
  /// are then k-way merged straight into `out`. Summed drop count via
  /// `window_log_drops`.
  void drain_window_log(std::vector<obs::WindowRecord>& out);
  [[nodiscard]] std::uint64_t window_log_drops() const;

  /// Plan-time capacity: sizes the router and gives each shard an even
  /// share. Growth only.
  void reserve_pairs(std::size_t pairs);

  /// Ingest one probe round — the facade's only ingest call. Items are
  /// partitioned by shard (round order preserved within each shard) and
  /// ingested with one job per shard, on the pool when there is one and
  /// inline otherwise; `events` receives every fired event grouped by
  /// originating item in item order — the exact sequence sequential
  /// single-detector ingest would produce — and `fired_per_item[i]` says
  /// how many of them item i contributed (zero-filled, one entry per
  /// item). Shard jobs note only the items that fired, so the merge after
  /// the jobs costs the events fired, not the round size. Both outputs are
  /// overwritten. Returns the total number of events fired.
  std::size_t ingest_batch(std::span<const BatchItem> items,
                           std::vector<AnomalyEvent>& events,
                           std::vector<std::uint32_t>& fired_per_item);

  /// Force-close all open windows on every shard; every pair keeps its
  /// global id and slot. Events are returned in canonical order
  /// (`canonicalize_events`) — identical at any shard count.
  [[nodiscard]] std::vector<AnomalyEvent> flush(SimTime now);

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Mapped pairs: every pair ever routed.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return router_.size();
  }
  /// The router table (capacity planning / layout telemetry).
  [[nodiscard]] const common::FlatPairTable& pair_table() const noexcept {
    return router_;
  }
  /// The shard that owns id `h`: always `h % N`.
  [[nodiscard]] std::size_t shard_of(GlobalHandle h) const noexcept {
    return h % static_cast<std::uint32_t>(shards_.size());
  }
  /// Visit every mapped pair as f(pair) — router slot order, deterministic
  /// AND shard-count-invariant (single table, shard placement irrelevant).
  template <typename F>
  void for_each_pair(F&& f) const {
    router_.for_each(
        [&f](const EndpointPair& p, common::FlatPairTable::SlotId) { f(p); });
  }

  /// Summed ingest counters across shards. Like the shards' own, they
  /// survive `restore`.
  [[nodiscard]] DetectorCounters counters() const;

  /// Opaque copy of the full analysis state: the router and every shard's
  /// snapshot. Same contract as AnomalyDetector::Snapshot —
  /// restore-and-continue is bit-identical to never having stopped, and
  /// restoring a freshly constructed facade's snapshot is a cold reset
  /// that keeps counters, obs bindings and window-log capacity. The router
  /// and the shards are restored together, so id `g` is still in slot
  /// `g / N` of shard `g % N`; after a restore to an older snapshot the
  /// router re-issues the later ids and each shard appends them again in
  /// the same order. Restore requires the same shard count (it is config,
  /// like the detector's window geometry).
  class Snapshot;
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  /// DetectorCounters fields published as `detector.*` series. The LOF
  /// scoring counts stay `counters()`-only (the scrape carries no LOF
  /// split).
  static constexpr std::size_t kPublished = 9;

  /// Add the counts made since the last publish to the `detector.*`
  /// series and refresh the per-shard pair gauges; no-op when detached.
  /// Runs on the calling thread after the shard jobs have joined.
  void publish();

  DetectorConfig cfg_;
  common::ThreadPool* pool_ = nullptr;  ///< not owned; may be null
  std::vector<std::unique_ptr<AnomalyDetector>> shards_;
  common::FlatPairTable router_;  ///< pair -> global id, discovery order
  // Dense by global id: the pair itself. Invariant: for every id g below
  // pair_of_.size() the router maps pair_of_[g] to g — handle_of sets
  // both, restore copies both.
  std::vector<EndpointPair> pair_of_;
  // Order-learned routing hints, not analysis state (no snapshot): the id
  // handle_of returned right after returning g, and the id it returned
  // last. Checked against the invariant above before use.
  std::vector<GlobalHandle> next_of_;
  GlobalHandle last_ = common::FlatPairTable::kNoSlot;

  /// An item that fired during a batch: its index in the round and its
  /// events' range in the shard's event scratch.
  struct Fired {
    std::size_t item;
    std::uint32_t first;
    std::uint32_t count;
  };
  // Reused batch scratch (one entry per shard): item indices, fired
  // events, and the items that fired, in item order, for the sparse merge.
  std::vector<std::vector<std::size_t>> batch_items_;
  std::vector<std::vector<AnomalyEvent>> batch_events_;
  std::vector<std::vector<Fired>> batch_fired_;
  /// Per-shard read position of the fired-item merge.
  std::vector<std::size_t> cursor_;
  /// The unread part of one shard's sorted window log, during a drain.
  struct Run {
    const obs::WindowRecord* head;
    const obs::WindowRecord* end;
  };
  std::vector<Run> runs_;  ///< heap of non-empty runs, capacity = shards

  obs::Context* obs_ = nullptr;
  DetectorCounters published_;  ///< summed counters already published
  std::array<obs::Counter, kPublished> m_detector_;
  // Per-shard load/skew series (facade-side, so they exist at any shard
  // count): pairs owned, batch items routed, and the merge stall — how
  // many item-slots the batch barrier wasted waiting on the most-loaded
  // shard, summed over batches as (max shard items × shards − total
  // items). Zero means perfectly even routing. Every name carries
  // ".shard": the scrape-identity contract exempts exactly these.
  std::vector<obs::Gauge> m_pairs_owned_;
  std::vector<obs::Counter> m_items_routed_;
  obs::Counter m_merge_stall_;

 public:
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class ShardedDetector;
    std::vector<AnomalyDetector::Snapshot> shards_;
    common::FlatPairTable router_;
    std::vector<EndpointPair> pair_of_;
  };
};

}  // namespace skh::core
