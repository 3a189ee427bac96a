// Order statistics and tick bookkeeping for the pipeline benchmark.
//
// Every timing the benchmark reports is a median over many samples (ticks,
// blocks of ticks, repeated set-ups), and a tick's own time is the fastest
// of several repetitions of the same seeded work, so neither one disturbed
// sample nor a disturbed stretch of a run can move a reported figure. These
// helpers are the only place those statistics are computed;
// tests/helpers_test.cpp pins them on known vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// Linear-interpolated percentile, q in [0, 100]: rank q/100 * (n - 1)
/// between the two sorted neighbours (numpy's default rule). NaN when
/// `v` is empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (its
/// default "exclusive" method), so the benchmark's own spread figures and
/// the acceptance arithmetic agree. Needs at least two values; a single
/// value is returned as all three quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> v);

/// A probe round is a *closing* tick when at least one short (30 s) window
/// closed during it — `short_windows_closed` moved — and a *plain* tick
/// otherwise. Closing ticks also run LOF scoring and the window-log drain,
/// so the two populations have different costs and are summarized apart.
enum class TickKind : std::uint8_t { kPlain, kClosing };
[[nodiscard]] TickKind classify_tick(std::uint64_t short_closed_before,
                                     std::uint64_t short_closed_after);

/// One timed probe round.
struct TickSample {
  double ms = 0.0;            ///< wall time of the round itself
  double wall_s = 0.0;        ///< wall time charged to the round's block
  std::uint64_t probes = 0;   ///< probes ingested during the round
  TickKind kind = TickKind::kPlain;
};

struct TickSummary {
  std::size_t ticks = 0;
  std::size_t closing = 0;
  double tick_ms_p50 = 0.0;
  double close_ms_p50 = 0.0;  ///< 0 when no closing tick was seen
  /// Median over consecutive blocks of `block` ticks of (probes / wall_s).
  double probes_per_s = 0.0;
};

/// Tick by tick, the fastest of several repetitions of the same seeded
/// work: tick i keeps its probes and kind and takes the smallest `ms` and
/// `wall_s` any repetition measured for it. Returns false, and leaves `out`
/// empty, when the repetitions differ in tick count, probes or kind: then
/// they did not do the same work.
[[nodiscard]] bool fastest_per_tick(
    const std::vector<std::vector<TickSample>>& reps,
    std::vector<TickSample>& out);

/// Whether a run starts another repetition of its seeded work: always while
/// fewer than `min_reps` are done; after that, only when one more, as long
/// as the longest so far (`longest_s`), still ends within `budget_s` of the
/// first's start (`elapsed_s` have passed since). A run thus measures for
/// about `--seconds` whatever the host's speed, and a calm host buys more
/// repetitions instead of a shorter run.
[[nodiscard]] bool another_repetition(std::size_t done, std::size_t min_reps,
                                      double elapsed_s, double longest_s,
                                      double budget_s);

/// Summarize timed rounds. Throughput is a median of block rates, with
/// blocks of `block` consecutive ticks (the last partial block is folded
/// into its predecessor), so a short disturbance moves one block only.
[[nodiscard]] TickSummary summarize_ticks(const std::vector<TickSample>& ticks,
                                          std::size_t block);

/// FNV-1a over the eight bytes of `v`, chained from `h`.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v);

}  // namespace pb
