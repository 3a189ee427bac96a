#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace skh {

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double pos =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, q);
}

double mean_of(std::span<const double> sample) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : sample) s += x;
  return s / static_cast<double>(sample.size());
}

double stddev_of(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double m = mean_of(sample);
  double s2 = 0.0;
  for (double x : sample) s2 += (x - m) * (x - m);
  return std::sqrt(s2 / static_cast<double>(sample.size() - 1));
}

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::population_variance() const noexcept {
  if (n_ == 0) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double ecdf(std::span<const double> sorted_sample, double x) {
  if (sorted_sample.empty()) return 0.0;
  const auto it =
      std::upper_bound(sorted_sample.begin(), sorted_sample.end(), x);
  return static_cast<double>(it - sorted_sample.begin()) /
         static_cast<double>(sorted_sample.size());
}

}  // namespace skh
