// Summary statistics and percentiles.
//
// The analyzer describes each 30-second latency window by its
// {p25, p50, p75, min, mean, std, max} (§5.2); this header provides that
// summary's record plus the generic descriptive-statistics helpers used by
// the detector, the workload/trace synthesizers and the bench harnesses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace skh {

/// The seven-number summary the paper uses to describe a latency window.
struct WindowSummary {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double min = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double max = 0.0;
  std::size_t count = 0;

  /// Flatten into the feature vector consumed by the LOF detector.
  [[nodiscard]] std::vector<double> as_feature_vector() const {
    return {p25, p50, p75, min, mean, stddev, max};
  }
};

/// Sort up to 8 doubles in place with a branchless comparator network,
/// falling back to std::sort above that. Same ascending order as
/// std::sort for every input (exhaustively pinned via the 0/1 principle
/// in tests/common/test_stats.cpp), so callers may switch freely; the
/// point is the hot-window close, where std::sort's branchy insertion
/// loop mispredicts on random RTT jitter while 19 min/max pairs do not.
/// Not for NaN-bearing data (min/max ordering of NaN is unspecified).
inline void sort_small(double* v, std::size_t n) {
  if (n <= 1) return;
  if (n > 8) {
    std::sort(v, v + n);
    return;
  }
  // Pad to 8 with +inf (sorts past every finite sample and every +inf
  // already present) and run Batcher's odd-even merge network for 8.
  double b[8];
  std::size_t i = 0;
  for (; i < n; ++i) b[i] = v[i];
  for (; i < 8; ++i) b[i] = std::numeric_limits<double>::infinity();
  const auto cx = [&b](int x, int y) {
    const double lo = std::min(b[x], b[y]);
    b[y] = std::max(b[x], b[y]);
    b[x] = lo;
  };
  cx(0, 1); cx(2, 3); cx(4, 5); cx(6, 7);
  cx(0, 2); cx(1, 3); cx(4, 6); cx(5, 7);
  cx(1, 2); cx(5, 6);
  cx(0, 4); cx(1, 5); cx(2, 6); cx(3, 7);
  cx(2, 4); cx(3, 5);
  cx(1, 2); cx(3, 4); cx(5, 6);
  for (std::size_t j = 0; j < n; ++j) v[j] = b[j];
}

/// Linear-interpolated percentile of an unsorted sample, q in [0, 100].
/// Returns NaN on an empty sample. The sort-a-copy reference that
/// `percentile_sorted` is tested against.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// Percentile over a pre-sorted (ascending) sample; O(1).
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

[[nodiscard]] double mean_of(std::span<const double> sample);
[[nodiscard]] double stddev_of(std::span<const double> sample);

/// Streaming mean/variance (Welford). Numerically stable; O(1) memory.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  /// Biased (1/n) variance — the MLE form the log-normal fit uses.
  [[nodiscard]] double population_variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Empirical CDF evaluation: fraction of `sample` values <= x.
[[nodiscard]] double ecdf(std::span<const double> sorted_sample, double x);

}  // namespace skh
