// Unified metrics registry: named counters, gauges, and fixed-bucket
// histograms for every pipeline stage.
//
// The production system streams per-agent and per-window telemetry into a
// cloud log service (§6); this is the in-process equivalent. Design
// constraints, in order:
//
//  1. *Hot-path cost.* Recording through a bound handle is one predictable
//     null-check plus a plain add/store. Unbound handles (obs not
//     attached) are no-ops, so instrumentation can stay compiled in
//     everywhere. The hottest counts of all, the anomaly detector's, are
//     plain struct members published into a registry once per probe round
//     (core/sharded_detector.h).
//  2. *No cross-thread contention.* Each recording thread gets its own
//     shard; handles bind to the calling thread's shard cells once, at
//     setup, and all later recording is unsynchronized within that shard.
//  3. *Deterministic scrape.* `scrape()` merges shards and emits samples
//     sorted by metric name. Counter values and histogram bucket counts
//     are 64-bit integer sums — exact and order-independent — so a scrape
//     is bit-stable no matter how work was sharded across threads.
//     Floating-point aggregates (gauge values, histogram sums) are summed
//     in shard-creation order; they are bit-stable whenever a registry is
//     recorded from one thread (the `runner::run_many` usage: one registry
//     per campaign, merged across campaigns in seed order).
//
// Concurrency contract: registration and binding may happen from any
// thread at any time; recording is wait-free; `scrape()` and
// `counter_total()` are well-defined when no thread is concurrently
// recording (quiesce first — e.g. after ThreadPool::wait), which is how
// the campaign runner uses them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace skh::obs {

/// Bound counter handle: increments the owning thread's shard cell.
/// Default-constructed (unbound) handles drop every record.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (cell_ != nullptr) *cell_ += n;
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] bool bound() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  std::uint64_t* cell_ = nullptr;
};

/// Bound gauge handle (a settable level, e.g. active agents).
class Gauge {
 public:
  void set(double v) noexcept {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(double v) noexcept {
    if (cell_ != nullptr) *cell_ += v;
  }
  [[nodiscard]] bool bound() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  double* cell_ = nullptr;
};

/// Bound fixed-bucket histogram handle. Bucket i counts observations v
/// with bounds[i-1] < v <= bounds[i]; one implicit overflow bucket catches
/// v > bounds.back(), so there are bounds.size() + 1 buckets. Non-finite
/// observations (NaN / ±inf — e.g. a corrupted-RTT telemetry episode)
/// never reach a bucket: every `v > bound` comparison on a NaN is false,
/// which used to file the junk into bucket 0 and poison `sum`; they are
/// counted in `dropped` instead so a scrape still shows the plane lied.
class Histogram {
 public:
  void observe(double v) noexcept;
  [[nodiscard]] bool bound() const noexcept { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Cells {
    std::vector<std::uint64_t> counts;  // bounds.size() + 1
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;  ///< non-finite observations rejected
    double sum = 0.0;
  };
  Cells* cells_ = nullptr;
  const double* bounds_ = nullptr;  // registry-owned, stable
  std::size_t n_bounds_ = 0;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  friend bool operator==(const GaugeSample&, const GaugeSample&) = default;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::uint64_t dropped = 0;  ///< non-finite observations rejected
  double sum = 0.0;

  /// Estimated q-quantile (q in [0,1]): linear interpolation inside the
  /// first bucket whose cumulative count reaches q*count. The implicit
  /// overflow bucket has no upper bound, so estimates saturate at
  /// bounds.back(). Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  friend bool operator==(const HistogramSample&,
                         const HistogramSample&) = default;
};

/// Point-in-time scrape of one registry, or the name-keyed merge of many
/// (the fleet snapshot `run_many` builds across campaign seeds). Samples
/// are kept sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Name-keyed union: counters/histogram counts add, gauges add (a fleet
  /// gauge is the sum of per-deployment levels). Histograms with the same
  /// name must share bucket bounds.
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;

  /// Human-readable dump, one metric per line, name-sorted.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Merge many snapshots in input order (e.g. `run_many` seed order).
[[nodiscard]] MetricsSnapshot merge_snapshots(
    std::span<const MetricsSnapshot> snaps);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create a metric id. Re-registering the same name returns the
  /// existing id (components attached to one registry share the series).
  std::uint32_t counter_id(std::string_view name);
  std::uint32_t gauge_id(std::string_view name);
  /// `upper_bounds` must be strictly increasing; re-registration with
  /// different bounds keeps the original bounds.
  std::uint32_t histogram_id(std::string_view name,
                             std::span<const double> upper_bounds);

  /// Bind a handle to the calling thread's shard. Cells stay valid for the
  /// registry's lifetime; bind once at setup, record lock-free after.
  [[nodiscard]] Counter bind_counter(std::uint32_t id);
  [[nodiscard]] Gauge bind_gauge(std::uint32_t id);
  [[nodiscard]] Histogram bind_histogram(std::uint32_t id);

  /// Explicit-token binds: same semantics as the bind_* overloads above but
  /// keyed by a caller-supplied registration token instead of the calling
  /// thread's. Exists so tests can simulate OS thread-id reuse; production
  /// code uses the thread-keyed overloads, which route here with
  /// this_thread_token().
  [[nodiscard]] Counter bind_counter_for_token(std::uint32_t id,
                                               std::uint64_t token);
  [[nodiscard]] Gauge bind_gauge_for_token(std::uint32_t id,
                                           std::uint64_t token);
  [[nodiscard]] Histogram bind_histogram_for_token(std::uint32_t id,
                                                   std::uint64_t token);

  /// Process-wide monotone registration token for the calling thread.
  /// Shards are keyed by this, not by std::thread::id: the OS recycles
  /// thread ids, so a short-lived worker dying and a new thread inheriting
  /// its id used to silently alias the dead worker's shard. Tokens are
  /// issued once per thread from a monotone counter and never reused.
  [[nodiscard]] static std::uint64_t this_thread_token();

  /// Number of per-thread shards created so far (quiesced reads only).
  [[nodiscard]] std::size_t shard_count() const;

  /// Sum of one counter across all shards (quiesced reads only).
  [[nodiscard]] std::uint64_t counter_total(std::uint32_t id) const;

  /// Merge all shards into a name-sorted snapshot (quiesced reads only).
  [[nodiscard]] MetricsSnapshot scrape() const;

 private:
  // Cells live in deques so binding new metrics or threads never moves
  // already-bound cells.
  struct Shard {
    std::deque<std::uint64_t> counters;
    std::deque<double> gauges;
    std::deque<Histogram::Cells> hists;
  };
  struct HistogramInfo {
    std::string name;
    std::vector<double> bounds;
  };

  /// Locked: find-or-create the shard for `token` and size it to the
  /// current metric count.
  Shard& shard_for_token(std::uint64_t token);

  mutable std::mutex mu_;
  std::deque<std::string> counter_names_;
  std::deque<std::string> gauge_names_;
  std::deque<HistogramInfo> hists_;
  std::map<std::string, std::uint32_t, std::less<>> counter_index_;
  std::map<std::string, std::uint32_t, std::less<>> gauge_index_;
  std::map<std::string, std::uint32_t, std::less<>> hist_index_;
  // Shards in creation order (scrape iterates this), plus the per-token
  // lookup. Binding is the only locked step on the recording side.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::uint64_t, Shard*> shard_of_token_;
};

}  // namespace skh::obs
