#include "replay_gen.h"

#include <array>
#include <cmath>

#include "common/rng.h"

namespace pb {

namespace {

/// Top 53 bits of a hash as a double in [0, 1).
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Jitter factors exp(sigma * z) at the midpoints of kJitterLevels equally
/// likely strata of the standard normal, so one hash picks a log-normal
/// factor with no transcendental call per sample: generating a round of
/// 96,768 pairs stays far below the cost of ingesting it.
constexpr int kJitterBits = 12;
constexpr std::size_t kJitterLevels = std::size_t{1} << kJitterBits;

const std::array<double, kJitterLevels>& jitter_factors() {
  static const std::array<double, kJitterLevels> table = [] {
    std::array<double, kJitterLevels> t{};
    for (std::size_t i = 0; i < kJitterLevels; ++i) {
      // z with P(Z < z) = (i + 0.5) / levels, by bisection on the normal CDF.
      const double p = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(kJitterLevels);
      double lo = -10.0, hi = 10.0;
      for (int k = 0; k < 100; ++k) {
        const double mid = 0.5 * (lo + hi);
        (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
      }
      t[i] = std::exp(kReplayJitterSigma * 0.5 * (lo + hi));
    }
    return t;
  }();
  return table;
}

}  // namespace

ReplaySample replay_sample(std::uint64_t seed, std::uint32_t pair,
                           std::uint64_t round, double base_rtt_us,
                           const ReplayEffect& effect) {
  const std::uint64_t h = skh::seed_mix(seed, skh::seed_mix(pair, round));
  ReplaySample s;
  if (effect.unreachable) {
    s.delivered = false;
    return s;
  }
  if (effect.loss_probability > 0.0 &&
      unit(skh::seed_mix(h, 0x6c6f7373ull /*"loss"*/)) <
          effect.loss_probability) {
    s.delivered = false;
    return s;
  }
  s.rtt_us = (base_rtt_us + effect.extra_latency_us) *
             jitter_factors()[h >> (64 - kJitterBits)];
  return s;
}

}  // namespace pb
