#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pb {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles, method="exclusive": m = n + 1, and for i = 1..3
  // j = i*m // 4 clamped to [1, n-1], delta = i*m - 4*j, result =
  // (v[j-1] * (4 - delta) + v[j] * delta) / 4.
  const auto n = static_cast<long long>(v.size());
  const long long m = n + 1;
  double out[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

TickKind classify_tick(std::uint64_t short_closed_before,
                       std::uint64_t short_closed_after) {
  return short_closed_after > short_closed_before ? TickKind::kClosing
                                                  : TickKind::kPlain;
}

bool fastest_per_tick(const std::vector<std::vector<TickSample>>& reps,
                      std::vector<TickSample>& out) {
  out.clear();
  if (reps.empty()) return false;
  for (const auto& rep : reps) {
    if (rep.size() != reps.front().size()) return false;
  }
  out = reps.front();
  for (std::size_t r = 1; r < reps.size(); ++r) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const TickSample& t = reps[r][i];
      if (t.probes != out[i].probes || t.kind != out[i].kind) {
        out.clear();
        return false;
      }
      out[i].ms = std::min(out[i].ms, t.ms);
      out[i].wall_s = std::min(out[i].wall_s, t.wall_s);
    }
  }
  return true;
}

bool another_repetition(std::size_t done, std::size_t min_reps,
                        double elapsed_s, double longest_s, double budget_s) {
  if (done < min_reps) return true;
  return elapsed_s + longest_s <= budget_s;
}

TickSummary summarize_ticks(const std::vector<TickSample>& ticks,
                            std::size_t block) {
  TickSummary s;
  s.ticks = ticks.size();
  if (ticks.empty()) return s;
  std::vector<double> all, closing;
  for (const auto& t : ticks) {
    all.push_back(t.ms);
    if (t.kind == TickKind::kClosing) closing.push_back(t.ms);
  }
  s.closing = closing.size();
  s.tick_ms_p50 = median(all);
  s.close_ms_p50 = closing.empty() ? 0.0 : median(closing);

  block = std::max<std::size_t>(1, std::min(block, ticks.size()));
  const std::size_t blocks = ticks.size() / block;
  std::vector<double> rates;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * block;
    const std::size_t hi = b + 1 == blocks ? ticks.size() : lo + block;
    double probes = 0.0, wall = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      probes += static_cast<double>(ticks[i].probes);
      wall += ticks[i].wall_s;
    }
    if (wall > 0.0) rates.push_back(probes / wall);
  }
  s.probes_per_s = rates.empty() ? 0.0 : median(rates);
  return s;
}

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace pb
