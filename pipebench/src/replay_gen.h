// Synthetic probe rounds for the analyzer-only replay workload.
//
// A replayed sample is a pure function of (seed, pair index, round): the
// healthy RTT is the pair's `ProbeEngine::baseline_rtt_us` with log-normal
// jitter, and an active fault episode on the pair adds its effect (extra
// latency, loss, or a hard break). Nothing is stateful, so any round can be
// regenerated in any order — a 1-shard and a 2-shard replay of one seed see
// exactly the same inputs.
#pragma once

#include <cstdint>

namespace pb {

/// What an active episode does to one pair's probe in one round.
struct ReplayEffect {
  bool unreachable = false;
  double loss_probability = 0.0;
  double extra_latency_us = 0.0;
};

struct ReplaySample {
  bool delivered = true;
  double rtt_us = 0.0;  ///< valid iff delivered
};

/// Log-normal RTT jitter of the replay, matching the probe engine's default
/// (drawn from 4096 equally likely strata of the normal).
inline constexpr double kReplayJitterSigma = 0.06;

/// The (seed, pair, round) sample. `base_rtt_us` is the pair's healthy RTT
/// and `effect` the episode state at the round's instant (default: healthy).
[[nodiscard]] ReplaySample replay_sample(std::uint64_t seed,
                                         std::uint32_t pair,
                                         std::uint64_t round,
                                         double base_rtt_us,
                                         const ReplayEffect& effect = {});

}  // namespace pb
