// Connectivity anomaly detection (§5.2).
//
// Per endpoint pair, the analyzer maintains:
//  - an unreachability rule (a streak of undelivered probes),
//  - a per-window packet-loss rule,
//  - short-term latency analysis: each closed 30 s window becomes a
//    {p25, p50, p75, min, mean, std, max} point scored with LOF against a
//    five-minute look-back of windows,
//  - long-term latency analysis: a log-normal model fitted on the first
//    healthy 30-minute window, with later 30-minute windows Z-tested
//    against it (catches gradual drift the short-term LOF absorbs).
//
// The detector computes those verdicts incrementally: window samples
// accumulate into per-pair sample strips, each pair's LOF look-back stays
// resident across window closes as one fixed-stride block scored in place
// by the detector's one `ml::StreamingLof` workspace, and long windows
// keep only log-domain moments — no per-window copies, sorts, or refits.
// A batch reference that recomputes every verdict from retained raw
// samples lives with the tests (tests/support/reference_detector.h); the
// differential suites in tests/core and bench_anomaly_throughput pin the
// two to identical verdicts.
//
// Pair storage is cache-resident by construction. The detector keeps no
// pair index: its owner (`ShardedDetector`, whose router is the analyzer's
// one pair index) adds each pair once and keeps the dense slot `add_pair`
// returns. Per-pair state is an SoA split indexed by that slot, sized at
// plan time (`reserve_pairs`) — a contiguous 64-byte-aligned `PairHot`
// array (one cache line per pair, all a rollover-free probe touches), a
// fixed-stride sample-strip arena, a fixed-stride look-back arena, and a
// parallel cold array, the last two read only at window closes. The
// store is append-only: a pair keeps its slot for the detector's lifetime
// and `add_pair` always extends the arrays. The layout contract (slot
// stability across flush and snapshot/restore) is documented in
// ARCHITECTURE.md under "Memory layout & hot path".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/flat_table.h"  // ArenaAllocator
#include "common/ids.h"
#include "common/stats.h"
#include "common/time.h"
#include "ml/lof.h"
#include "ml/stats_tests.h"
#include "ml/streaming_lof.h"
#include "obs/recorder.h"

namespace skh::core {

enum class AnomalyKind : std::uint8_t {
  kUnreachable,      ///< consecutive probe losses (hard connectivity break)
  kPacketLoss,       ///< window loss rate above threshold
  kLatencyShortTerm, ///< LOF outlier window
  kLatencyLongTerm,  ///< Z-test rejection against the log-normal baseline
};

[[nodiscard]] std::string_view to_string(AnomalyKind k) noexcept;

struct AnomalyEvent {
  /// Events raised by whole-pair rules carry kAnyPath; per-path sub-series
  /// verdicts (sprayed pairs) carry the sick member's path id, which the
  /// localizer uses to vote only on that member's links.
  static constexpr std::uint32_t kAnyPath = 0xFFFFFFFFu;

  EndpointPair pair;
  SimTime detected_at;
  AnomalyKind kind = AnomalyKind::kUnreachable;
  double score = 0.0;  ///< LOF score / |z| / loss rate / streak length
  std::uint32_t path_id = kAnyPath;
};

/// Sort events into the canonical order (detected_at, pair, kind, path,
/// score) — a total order over everything an event carries, so any batch
/// holding the same event *set* sorts to the same sequence regardless of
/// how the producing work was sharded or interleaved. The case-tracking
/// layer keys its open/merge/suppress decisions off this order, which is
/// what makes verdicts shard-count-invariant.
void canonicalize_events(std::vector<AnomalyEvent>& events);

/// One probe outcome for one pair, as the analyzer consumes it.
struct Observation {
  /// Agent-stamped per-pair sequence number; 0 = unsequenced, which
  /// bypasses duplicate/reordering rejection.
  std::uint64_t seq = 0;
  SimTime sent_at;
  bool delivered = false;
  double rtt_us = 0.0;  ///< valid iff delivered
  /// Equal-cost member the probe rode (0 = the default path); only read
  /// when DetectorConfig::track_paths is on.
  std::uint32_t path_id = 0;
};

/// Short-window feature summary over pre-sorted samples. Percentiles are
/// order statistics of the raw samples; the moment coordinates (mean, std,
/// max) use samples winsorized at p75 + max(iqr_mult * IQR, band_frac *
/// p50), so one corrupted RTT cannot poison the look-back (iqr_mult 0
/// disables the clamp).
[[nodiscard]] WindowSummary robust_summary(std::span<const double> sorted,
                                           double iqr_mult, double band_frac);

/// LOF is a *relative* density score: on a tight healthy population even
/// microscopic deviations score high. A window is only anomalous when its
/// LOF exceeds the threshold AND its median deviates from the look-back
/// median by at least this fraction (transient-congestion filtering,
/// §5.2: "filter out these transient latency spikes").
inline constexpr double kMinRelativeShift = 0.15;
/// With thousands of (pair x window) tests per hour, the per-test alpha
/// of the long-term Z-test must price in multiple testing: 1e-6 keeps the
/// campaign-level false-alarm expectation well below one.
inline constexpr double kZAlpha = 1e-6;
/// Operational significance floor: a statistically significant but
/// sub-5% median drift is not a failure worth a ticket.
inline constexpr double kLongTermMinShift = 0.05;
/// A short window alarms on loss at this loss rate...
inline constexpr double kLossRateThreshold = 0.05;
/// ...and only with at least this many drops: one unlucky drop among a
/// handful of probes is statistically expected even on healthy paths with
/// sub-0.1% loss.
inline constexpr std::size_t kMinLostPerWindow = 2;
/// Consecutive undelivered probes that raise an unreachable event.
inline constexpr int kUnreachableStreak = 3;
/// Robust-scale clamp: before the LOF feature vector is built, samples
/// above p75 + max(kRttClampIqrMult * IQR, kRttClampBandFrac * p50) of
/// their own window are winsorized to that cap (see `robust_summary`), so
/// one corrupted RTT (a 50x bit-flip outlier) cannot poison the
/// look-back's mean/std/max coordinates. Percentile coordinates and the
/// long-term fold are untouched.
inline constexpr double kRttClampIqrMult = 8.0;
inline constexpr double kRttClampBandFrac = 0.5;

struct DetectorConfig {
  SimTime short_window = SimTime::seconds(30);
  /// 5 min of 30 s windows. The ring holds one window more than this, so
  /// the constructor throws std::invalid_argument above
  /// ml::StreamingLof::kMaxSlots - 1.
  std::size_t lookback_windows = 10;
  ml::LofConfig lof{3, 1.8};
  SimTime long_window = SimTime::minutes(30);
  std::size_t min_samples_per_window = 5;
  /// Gray-telemetry quorum: a short window that observed fewer than this
  /// many probes is *insufficient* — it gets no loss verdict, no LOF
  /// push/score, and its samples are not fed to the long-term Z-test
  /// (counted in detector.windows_insufficient). A measurement plane
  /// dropping responses must starve the detector, not feed it windows so
  /// sparse their statistics are noise. 0 disables the gate.
  std::size_t window_quorum = 0;
  /// Plan-time pair capacity: sizes the sharded facade's pair index (its
  /// router) and the per-pair arrays once, so mapping and ingest allocate
  /// nothing. The hunter reserves the same from its ping lists; 0 starts
  /// minimal and grows by doubling.
  std::size_t expected_pairs = 0;
  /// Per-path sub-series for sprayed/adaptive pairs: each pair keeps a
  /// bounded table of per-member {sent, lost, rtt} accumulators keyed by
  /// Observation::path_id, evaluated differentially at short-window closes
  /// (a member is anomalous relative to its siblings — the only way a gray
  /// ECMP member shows up when pair-level rates stay under threshold).
  /// Off by default: static ECMP sees one path per pair and pays nothing;
  /// the hunter turns it on when the engine routing mode is not static.
  bool track_paths = false;
};

/// Ingest-side counters: plain per-detector counts, summed across shards by
/// `ShardedDetector` (which publishes them as the `detector.*` registry
/// series) and across campaign fleets by `core/metrics` (defined here
/// rather than in metrics.h because metrics sits above the detector in the
/// include graph).
struct DetectorCounters {
  std::uint64_t probes_ingested = 0;
  std::uint64_t samples_delivered = 0;
  std::uint64_t short_windows_closed = 0;
  std::uint64_t long_windows_closed = 0;
  std::uint64_t lof_fast_path = 0;  ///< LOF scores of a closed window
                                    ///< against its look-back
  std::uint64_t lof_fallback = 0;   ///< always 0: the in-ring score has no
                                    ///< fallback path; kept for readers
                                    ///< of the fast/fallback split
  std::uint64_t lof_kdist_rebuilds = 0;  ///< look-back k-distances derived
                                         ///< by a row scan, one per live
                                         ///< point of every score
  std::uint64_t lof_gate_skips = 0;  ///< streaming closes where the O(1)
                                     ///< shift gate short-circuited scoring
  std::uint64_t events_emitted = 0;
  std::uint64_t windows_insufficient = 0;  ///< short windows below quorum
  std::uint64_t duplicates_rejected = 0;   ///< same (seq, sent_at) re-seen
  std::uint64_t stale_rejected = 0;        ///< reordered / skewed-backwards

  DetectorCounters& operator+=(const DetectorCounters& o) noexcept {
    probes_ingested += o.probes_ingested;
    samples_delivered += o.samples_delivered;
    short_windows_closed += o.short_windows_closed;
    long_windows_closed += o.long_windows_closed;
    lof_fast_path += o.lof_fast_path;
    lof_fallback += o.lof_fallback;
    lof_kdist_rebuilds += o.lof_kdist_rebuilds;
    lof_gate_skips += o.lof_gate_skips;
    events_emitted += o.events_emitted;
    windows_insufficient += o.windows_insufficient;
    duplicates_rejected += o.duplicates_rejected;
    stale_rejected += o.stale_rejected;
    return *this;
  }

  friend bool operator==(const DetectorCounters&,
                         const DetectorCounters&) = default;
};

class AnomalyDetector {
 public:
  /// Dense per-pair slot from `add_pair`. The owner keeps it and ingests
  /// by it; a slot is never freed and survives flush and snapshot/restore.
  using PairHandle = std::uint32_t;

  explicit AnomalyDetector(DetectorConfig cfg = {});

  /// Enable/disable the closed-window log feeding the flight recorder.
  /// Off by default; the sharded
  /// facade turns it on when an obs context is attached. The log is
  /// bounded (see `window_log`), costs one bounded push per window close
  /// when on, and nothing when off.
  void set_window_logging(bool on);

  /// The logged closed-window records since the last `clear_window_log`,
  /// in close order, viewed in place: the reader may reorder them (the
  /// sharded facade sorts a shard's log before merging it) and then
  /// clears. The log's capacity is sized at `reserve_pairs` so a
  /// full-fleet flush (at most two windows per pair) never drops; drops —
  /// possible only if the reader stops clearing — are counted.
  [[nodiscard]] std::span<obs::WindowRecord> window_log() noexcept {
    return window_log_;
  }
  void clear_window_log() noexcept { window_log_.clear(); }
  [[nodiscard]] std::uint64_t window_log_drops() const noexcept {
    return window_log_drops_;
  }

  /// Start tracking `pair` in a fresh slot, one past the highest: slots
  /// are handed out 0, 1, 2, ... in call order. The caller keeps the slot
  /// — the detector has no pair lookup — and adds each pair once.
  [[nodiscard]] PairHandle add_pair(const EndpointPair& pair);

  /// Pre-size the slot-indexed state arrays for `pairs` concurrent pairs.
  /// Called at plan/replan time, when the ping lists fix the pair
  /// population; adding pairs and ingesting their first windows after a
  /// sufficient reserve performs zero heap allocations. Growth only.
  void reserve_pairs(std::size_t pairs);

  /// Feed one observation under a pre-resolved handle. Window boundaries
  /// are detected from the observation timestamps; events fired by this
  /// observation are appended to `out`; returns how many. With a nonzero
  /// `o.seq`, a result repeating the last (seq, sent_at) is a duplicated
  /// delivery and is dropped, and a result whose seq AND timestamp both
  /// run backwards is a reordered straggler and is dropped. Any result
  /// timestamped before the open short window (a skewed clock or a
  /// delivery delayed across a close) is stale and is dropped — late lies
  /// must not drag the window grid backwards.
  std::size_t ingest(PairHandle h, const Observation& o,
                     std::vector<AnomalyEvent>& out);

  /// Force-close all open windows (end of campaign) and return any final
  /// events. Only windows that reached their nominal span are evaluated: a
  /// few-second partial window carries no evidence at window granularity
  /// and must not fire (e.g.) a 30-minute Z-test alarm. Every pair keeps
  /// its slot.
  [[nodiscard]] std::vector<AnomalyEvent> flush(SimTime now);

  [[nodiscard]] const DetectorConfig& config() const noexcept { return cfg_; }

  /// Pairs holding a slot: every pair ever added.
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return hot_.size();
  }

  /// Ingest counters, including the LOF scoring counts.
  [[nodiscard]] const DetectorCounters& counters() const noexcept {
    return counters_;
  }

  /// Opaque copy of the full per-pair analysis state (hot lines, sample
  /// strips, LOF look-back blocks, long-term baselines, sequence tracking).
  /// Every piece of pair state is value-semantic — the strip and look-back
  /// arenas copy as flat bytes — so a plain copy IS the serialized form;
  /// restoring it and continuing is bit-identical to never having stopped.
  /// Slots handed out before the snapshot name the same pairs after a
  /// restore, and the next `add_pair` takes the slot it took after the
  /// snapshot was made. Config, counters and the window log are not part
  /// of the snapshot (they belong to the process, not the analysis), so
  /// restoring a freshly constructed detector's snapshot is a cold reset
  /// that keeps them.
  class Snapshot;
  [[nodiscard]] Snapshot snapshot() const;
  /// Overwrite the analysis state with `snap`. Counters are NOT rolled
  /// back: they are monotonic process telemetry, not analysis state.
  void restore(const Snapshot& snap);

 private:
  /// A per-pair array: cache-line aligned, and on pages of its own once
  /// large, so plan-time regrowth returns the old block to the kernel.
  template <typename T>
  using PairArray = std::vector<T, common::ArenaAllocator<T>>;

  // Per-pair state is split hot/cold (SoA by slot). `PairHot`
  // holds exactly what a probe with no window rollover touches — the
  // gray-telemetry rejection fields, boundary checks, counters, and the
  // streak rule — packed into one 64-byte cache line; delivered samples
  // land in the pair's fixed-stride strip of `samples_`. A fleet sweep
  // (every pair probed each round) therefore streams one hot line plus
  // one strip line per probe; everything else lives in the look-back
  // block and `PairCold`, read only at window closes. PairHot is
  // trivially copyable on purpose: the snapshot of a 100k-pair detector
  // copies the hot array as one memmove.
  struct alignas(64) PairHot {
    // Short- and long-term windows under construction.
    SimTime short_start;
    SimTime long_start;
    // Last accepted (seq, sent_at), for duplicate/stale rejection: read
    // before any window state on every sequenced ingest, so they belong
    // on the same line.
    std::uint64_t last_seq = 0;
    SimTime last_sent;
    std::uint32_t short_sent = 0;
    std::uint32_t short_lost = 0;
    std::uint32_t short_count = 0;  ///< delivered samples (strip + spill)
    std::int32_t fail_streak = 0;
    bool short_open = false;
    bool long_open = false;
    bool unreachable_alarmed = false;
    /// Live slots of the pair's look-back block. Here rather than in the
    /// block so a close computes every block address it touches — the
    /// slot it pushes into, the head it evicts — without another miss.
    ml::LofRing lookback;
  };
  static_assert(sizeof(PairHot) == 64,
                "PairHot must stay a single cache line");
  static_assert(std::is_trivially_copyable_v<PairHot>,
                "PairHot must snapshot as flat bytes");

  struct PairCold {
    EndpointPair pair;
    std::vector<double> spill;  ///< strip overflow samples
    // Long-term accumulators + fitted baseline.
    RunningStats long_log;      ///< moments of ln(rtt)
    std::size_t long_seen = 0;  ///< delivered samples
    std::optional<ml::LogNormalModel> baseline;
  };

  // Per-path sub-series slot (track_paths only): cumulative loss/RTT
  // accumulators for one equal-cost member of one pair. 16 bytes x
  // kPathSlots = two cache lines per pair, in their own arena so the
  // static-ECMP hot path never touches them. Trivially copyable for the
  // same snapshot-as-memmove reason as PairHot.
  struct PathSlot {
    std::uint32_t key = 0;  ///< path_id + 1; 0 = empty slot
    std::uint32_t sent = 0;
    std::uint32_t lost = 0;
    float rtt_sum = 0.0f;  ///< sum over delivered samples
  };
  static_assert(sizeof(PathSlot) == 16, "PathSlot layout");
  static_assert(std::is_trivially_copyable_v<PathSlot>,
                "PathSlot must snapshot as flat bytes");
  /// Members tracked per pair. Spray fans over at most spray_ways (default
  /// 8) members, so 8 slots cover it; an overflowing distinct member
  /// steals the least-sampled slot (deterministic: lowest index wins ties).
  static constexpr std::uint32_t kPathSlots = 8;

  void note_path(PairHandle h, std::uint32_t path_id, bool delivered,
                 double rtt_us);
  /// Differential member check at short-window close: a member with enough
  /// cumulative samples whose loss rate (or mean RTT) stands out against
  /// the pooled rest of the members fires a path-scoped event and resets
  /// its accumulators.
  void evaluate_paths(PairHandle h, SimTime at,
                      std::vector<AnomalyEvent>& events);

  void close_short_window(PairHandle h, SimTime at,
                          std::vector<AnomalyEvent>& events);
  void close_long_window(PairHandle h, SimTime at,
                         std::vector<AnomalyEvent>& events);
  /// Sorted view of the open short window's delivered samples: the strip
  /// sorted in place (the common, allocation-free case) or merged with the
  /// spill into reused scratch. Valid until the next ingest/close.
  [[nodiscard]] std::span<const double> window_sorted(PairHandle h);
  /// Append one closed-window record to the bounded log (no-op when
  /// logging is off; counts a drop when the log is full).
  void log_window(const EndpointPair& pair, SimTime start, SimTime end,
                  std::uint32_t sent, std::uint32_t lost, float p50_us,
                  float score, std::uint32_t flags);

  /// Sample-strip stride (doubles per pair): the per-window sample count
  /// that stays allocation-free. Windows with more delivered samples spill
  /// the excess to `PairCold::spill`; verdicts are unaffected. With 30 s
  /// windows at the 5 s campaign probe interval a window holds 6 samples,
  /// so 8 covers it with exactly one cache line per pair — a wider strip
  /// dilutes the arena across more lines and measurably slows ingest (see
  /// ARCHITECTURE.md, "Memory layout & hot path").
  static constexpr std::uint32_t kStride = 8;
  /// Coordinates of a window's LOF feature: {p25, p50, p75, min, mean,
  /// std, max}; the median sits at `kFeatureP50`.
  static constexpr std::size_t kFeatureDim = 7;
  static constexpr std::size_t kFeatureP50 = 1;

  DetectorConfig cfg_;
  // Dense, indexed by slot; hot_[h], cold_[h], and the strip
  // samples_[h * kStride ..] describe one pair.
  PairArray<PairHot> hot_;
  PairArray<PairCold> cold_;
  /// Strip arena, 64-byte aligned so that every pair's strip is exactly
  /// one cache line — a probe dirties one hot line and one strip line,
  /// nothing else.
  PairArray<double> samples_;
  /// The one LOF scoring workspace, shared by every pair's look-back.
  ml::StreamingLof lof_;
  /// Look-back arena, one block of `lookback_stride_` doubles per pair:
  /// the ring's `lookback_windows + 1` feature slots (`lof_.slots()` x
  /// kFeatureDim, live slots named by `PairHot::lookback`), then the
  /// medians of the same windows kept sorted — the magnitude gate's O(1)
  /// reference median, as many entries as the ring holds. A close reaches
  /// it through a computed address, not a pointer chase into a per-pair
  /// heap block; at the default depth a block is 88 doubles, 11 lines.
  PairArray<double> lookback_;
  std::size_t lookback_stride_;
  /// Per-path sub-series arena: kPathSlots slots per pair, allocated only
  /// when cfg.track_paths (empty otherwise, so the single-path deployment
  /// pays no memory and no cache traffic for the feature).
  PairArray<PathSlot> paths_;
  std::vector<double> sort_scratch_;  ///< spill-merge buffer, reused
  // Closed-window log (flight-recorder feed). Not analysis state: excluded
  // from Snapshot, like the counters. Capacity tracks reserve_pairs so a
  // full-fleet flush (≤2 windows per pair) never drops.
  bool log_windows_ = false;
  PairArray<obs::WindowRecord> window_log_;
  std::size_t window_log_cap_ = 4096;
  std::uint64_t window_log_drops_ = 0;
  // Monotonic process telemetry, untouched by restore.
  // On its own cache line: the shards of a `ShardedDetector` bump their
  // counters from different pool threads on every probe.
  alignas(64) DetectorCounters counters_;

 public:
  // Defined after the private pair-state types it copies; nested classes
  // have access to them regardless of this section's access specifier.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class AnomalyDetector;
    PairArray<PairHot> hot_;
    PairArray<PairCold> cold_;
    PairArray<double> samples_;
    PairArray<double> lookback_;
    PairArray<PathSlot> paths_;
  };
};

}  // namespace skh::core
