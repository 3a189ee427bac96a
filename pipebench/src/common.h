// Shared plumbing of the pipeline benchmark's workloads: arguments, the
// result line, host diagnostics, outside-in tick timing, and fault scoring.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/harness.h"
#include "trace.h"

namespace pb {

using namespace skh;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< how long a run measures (see RATIONALE.md)
  bool trace = false;
  std::string trace_out;  ///< span dump of a traced run ("" = none)
  /// Untraced first-repetition tick median of the same seed, the base of
  /// trace.overhead_frac (0 = not given).
  double base_tick_ms = 0.0;
};

/// The run's report: checks, operation counts, and metrics, printed as the
/// final JSON line of standard output.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A hard output check; a failed one makes the run incorrect (exit 1).
  void check(bool ok, const std::string& what);
  /// One operation (an injected fault or episode, or a false case).
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Print the result line; returns the process exit code.
  int finish() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Informational line on standard output (never the last line).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --- host and process measurements ------------------------------------------
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double rss_mb();       ///< resident now (/proc/self/statm)
[[nodiscard]] double peak_rss_mb();  ///< ru_maxrss of this process

/// Host-noise diagnostics: process CPU over wall time for the whole run,
/// and a fixed reference loop timed at the start and the end of the run.
/// Neither describes the program; together they tell a disturbed or slow
/// machine from a slow program.
class HostWatch {
 public:
  HostWatch();
  /// Close the watch; prints both figures, and adds them as `host.*`
  /// metrics when `per_layer`.
  void finish(Report& report, bool per_layer);

 private:
  double wall0_;
  double cpu0_;
  double ref0_ns_;
};

// --- outside-in hunter tick timing ------------------------------------------

/// Times each SkeletonHunter tick from outside, through the event queue's
/// FIFO contract for equal instants. A marker queued for every tick instant
/// before the hunter's own tick event opens the span; it queues a closing
/// marker at the same instant, which therefore runs right after the tick.
/// Arm before `hunter().start()` so the first opening marker precedes the
/// first tick.
class TickMarkers {
 public:
  struct Tick {
    SimTime at;
    double open_s = 0.0;
    double close_s = 0.0;
    core::DetectorCounters before{};
    core::DetectorCounters after{};
    bool blackout = false;  ///< analyzer down at the end of the tick
  };
  using AfterTick = std::function<void(const Tick&)>;

  TickMarkers(core::Experiment& exp, SimTime first, SimTime interval,
              SimTime last, AfterTick after = {});
  TickMarkers(const TickMarkers&) = delete;
  TickMarkers& operator=(const TickMarkers&) = delete;

  void arm() { open_at(first_); }
  [[nodiscard]] const std::vector<Tick>& ticks() const noexcept {
    return ticks_;
  }

 private:
  void open_at(SimTime t);
  void close();

  core::Experiment& exp_;
  SimTime first_;
  SimTime interval_;
  SimTime last_;
  AfterTick after_;
  std::vector<Tick> ticks_;
};

/// Print the first repetition's median tick on an informational line,
/// `# base_tick_ms <ms>`: the untraced base of trace.overhead_frac, which a
/// traced run (one repetition) is compared against like for like.
void note_base_tick(const std::vector<TickSample>& first_rep);

/// Print every set-up's wall time, in order, on an informational line.
void note_setups(const std::vector<double>& setup_s);

/// Print each repetition's own figures, one informational line each: how
/// far the host moved during the run.
void note_repetitions(const std::vector<std::vector<TickSample>>& reps,
                      std::size_t block);

/// Timed rounds from marker ticks [from, ticks.size()): each round's block
/// wall time runs from its opening marker to the next one's (the last one
/// to `phase_end_s`), so everything else the event loop ran counts.
[[nodiscard]] std::vector<TickSample> tick_samples(
    const std::vector<TickMarkers::Tick>& ticks, std::size_t from,
    double phase_end_s);

// --- analyzer entry points, timed from outside --------------------------------

/// Drives probe rounds through a `ShardedDetector` the way the hunter does —
/// `handle_of` per result, one `ingest_batch`, one `drain_window_log` — and
/// times each call. Used by the replay workload and the traced fabric
/// replica.
class TimedAnalyzer {
 public:
  struct Round {
    double router_s = 0.0;
    double detector_s = 0.0;
    double detector_cpu_s = 0.0;  ///< process CPU inside ingest_batch
    double window_s = 0.0;
    std::size_t items = 0;
    std::size_t records = 0;  ///< window-log records drained
    TickKind kind = TickKind::kPlain;
    [[nodiscard]] double total_s() const {
      return router_s + detector_s + window_s;
    }
  };

  explicit TimedAnalyzer(core::ShardedDetector& det) : det_(det) {}

  /// One round. Spans go to `tracer` under its open span. Fired events are
  /// left in `events()` until the next round.
  Round round(const std::vector<probe::ProbeResult>& results, Tracer& tracer,
              std::uint64_t tick);

  [[nodiscard]] const std::vector<core::AnomalyEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<core::ShardedDetector::BatchItem>& batch()
      const {
    return batch_;
  }

 private:
  core::ShardedDetector& det_;
  std::vector<core::ShardedDetector::BatchItem> batch_;
  std::vector<core::AnomalyEvent> events_;
  std::vector<std::uint32_t> fired_;
  std::vector<obs::WindowRecord> records_;
};

/// Fold a round's events into `h` in canonical order (detected_at, pair,
/// kind, score). Long-term alarms are left out unless `long_term`: the
/// hunter drops long-term alarms that re-report a pair of a recent case
/// before recording them, so against the hunter only the other kinds can
/// be compared event by event.
[[nodiscard]] std::uint64_t fold_events(std::uint64_t h,
                                        std::vector<obs::EventRecord> events,
                                        bool long_term = false);
[[nodiscard]] obs::EventRecord to_record(const core::AnomalyEvent& e);

// --- scoring ------------------------------------------------------------------

/// Per-fault outcome against the hunter's final case list.
struct FaultOutcome {
  bool detected = false;        ///< some case matched it
  bool verdict_correct = false; ///< some matched case names its component
  double detect_s = -1.0;       ///< fault start -> first event on a pair it
                                ///< affects (sim seconds; -1 = none)
  double verdict_s = -1.0;      ///< fault start -> close of the first case
                                ///< naming it (sim seconds; -1 = none)
};

/// Score every fault of `faults` separately with `core::score_campaign`.
[[nodiscard]] std::vector<FaultOutcome> score_faults(
    const std::vector<core::FailureCase>& cases,
    const sim::FaultInjector& faults, const topo::Topology& topo);

/// Count operations on `report`: one per fault (failed without a correct
/// verdict) and one failed operation per false probe-plane case. Returns
/// the number of false cases.
std::size_t count_operations(Report& report,
                             const std::vector<FaultOutcome>& outcomes,
                             const std::vector<core::FailureCase>& cases,
                             const sim::FaultInjector& faults,
                             const topo::Topology& topo);

/// Median of the non-negative entries of `v`; 0 when there are none.
[[nodiscard]] double median_known(const std::vector<double>& v);

/// Chained FNV-1a over the hunter's whole verdict stream: every case, its
/// events and its localization.
[[nodiscard]] std::uint64_t verdict_fingerprint(
    const std::vector<core::FailureCase>& cases);

/// Registry counter by name from one scrape (0 when absent).
[[nodiscard]] std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                                          const std::string& name);

// --- per-layer table ------------------------------------------------------------

/// Every per-layer metric of the traced run. Each workload fills the layers
/// it exercises; a layer a workload bypasses keeps its zeros (RATIONALE.md
/// lists which layer each workload exercises).
struct Layers {
  struct {
    double calls = 0, ns_per_call = 0, tick_share = 0, undelivered_frac = 0;
  } engine;
  struct {
    double dropped = 0, duplicated = 0, delayed = 0;
  } telemetry;
  struct {
    double lookups = 0, ns_per_lookup = 0, probe_steps = 0, recycled_ids = 0;
  } router;
  struct {
    double items = 0, ns_per_item = 0, close_extra_ms = 0, cpu_per_wall = 0,
           shard_skew = 0, short_windows_closed = 0, long_windows_closed = 0,
           lof_scored = 0, lof_gate_skips = 0, lof_fallback_frac = 0,
           events = 0, rejected = 0, windows_insufficient = 0;
  } detector;
  struct {
    double records = 0, ms_per_close_tick = 0, drops = 0;
  } window_log;
  struct {
    double calls = 0, ms_p50 = 0, correct_frac = 0;
  } localize;
  struct {
    double ticks = 0, self_ms_per_tick = 0, blackout_tick_ms = 0, cases = 0,
           cases_false = 0;
  } hunter;
  struct {
    double detect_s_p50 = 0, verdict_s_p50 = 0;
  } latency;
  struct {
    double calls = 0, ms_p50 = 0;
  } inference;
  struct {
    double calls = 0, ms_p50 = 0, replans = 0;
  } churn;
  struct {
    double steps = 0, verdicts = 0;
  } collective;
  struct {
    double bundles = 0, scrape_ms = 0;
  } obs;
  struct {
    double rss_setup_mb = 0, rss_growth_mb = 0;
  } mem;
  struct {
    double overhead_frac = 0;
  } trace;

  /// Fill the detector counters that come straight from DetectorCounters
  /// deltas (`from` -> `to`).
  void set_counters(const core::DetectorCounters& from,
                    const core::DetectorCounters& to);
  /// Router, detector and window-log timings of the analyzer rounds the
  /// benchmark drove itself.
  void set_analyzer(const std::vector<TimedAnalyzer::Round>& rounds);
  /// trace.overhead_frac: the traced run's median tick over the untraced
  /// run's first-repetition median tick (`Args::base_tick_ms`), minus 1.
  void set_overhead(const Args& args, double traced_tick_ms);
  void emit(Report& report) const;
};

/// Median wall time of `n` registry scrapes, in milliseconds.
[[nodiscard]] double scrape_ms(const obs::MetricsRegistry& registry, int n);

// --- workloads ----------------------------------------------------------------
int run_fabric(const Args& args);
int run_replay(const Args& args);
int run_churn(const Args& args);

}  // namespace pb
