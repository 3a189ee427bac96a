// Deterministic random-number streams.
//
// Every stochastic element of the simulation (container lifetimes, probe
// jitter, fault arrival, ...) draws from a named RngStream derived from a
// single campaign seed, so experiments reproduce bit-identically across runs
// and the per-subsystem draws are independent of each other's call order.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

namespace skh {

/// Stable 64-bit FNV-1a hash used to derive sub-stream seeds from names.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Combine two 64-bit values through a splitmix64-style finalizer. The
/// building block of all seed derivation: stream forks, campaign splitting.
[[nodiscard]] constexpr std::uint64_t seed_mix(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derive the `index`-th campaign seed from one master seed. A pure
/// function of (master, index): campaign i receives the same seed no
/// matter how many campaigns run, on how many threads, or in what order —
/// the keystone of `runner::run_many`'s bit-identical parallelism.
[[nodiscard]] constexpr std::uint64_t split_seed(std::uint64_t master,
                                                std::uint64_t index) noexcept {
  return seed_mix(master, seed_mix(0x53484b2d63616d70ULL /*"SHK-camp"*/,
                                   index));
}

/// Enumerate `n` decorrelated campaign seeds from one master seed.
[[nodiscard]] inline std::vector<std::uint64_t> split_seeds(
    std::uint64_t master, std::size_t n) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) seeds.push_back(split_seed(master, i));
  return seeds;
}

/// A self-contained PRNG stream with convenience distributions.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : base_seed_(seed), engine_(seed) {}

  /// Derive an independent child stream; same (seed, name) always yields the
  /// same stream regardless of how many draws happened on the parent.
  [[nodiscard]] RngStream fork(std::string_view name) const {
    return RngStream{seed_mix(base_seed_, fnv1a64(name))};
  }
  [[nodiscard]] RngStream fork(std::uint64_t index) const {
    return RngStream{seed_mix(base_seed_, 0x9e3779b97f4a7c15ULL ^ index)};
  }

  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }
  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }
  /// Pick an index in [0, weights.size()) proportionally to weights.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::uint64_t base_seed_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace skh
