// Agent resource-overhead model (Figure 17).
//
// The production agent's CPU and memory converge to ~1% of a core and
// ~35 MB over a container's lifetime: a short startup transient (ping-list
// fetch, registration traffic) decays into a steady state whose level
// scales weakly with the number of active probe targets. The probing-round
// *time* model (Figure 16) charges a fixed per-probe budget on each agent's
// serialized probe loop.
#pragma once

#include <cstddef>

#include "common/time.h"

namespace skh::probe {

struct OverheadSample {
  double cpu_percent = 0.0;
  double memory_mb = 0.0;
};

/// Agent resource usage `elapsed` after agent start with `active_targets`
/// concurrently probed destinations.
[[nodiscard]] OverheadSample agent_overhead(SimTime elapsed,
                                            std::size_t active_targets);

/// Per-probe serialized budget on an agent (used by the Fig. 16 round-time
/// model): probe pacing at the production probing frequency, not raw RTT.
/// Calibrated from the paper's full-mesh numbers: 560.25 s for a 512-RNIC
/// task = 8 own endpoints x 504 destinations = 4032 probes per agent
/// => ~139 ms per probe (the same budget reproduces the 1024- and
/// 2048-RNIC full-mesh and basic-list times within ~10%).
inline constexpr double kProbeCostMs = 139.0;

/// Modeled wall time of one probing round for a task: agents probe their
/// target lists in parallel across containers but serially within an agent,
/// so the round time is max over agents of (targets x per-probe cost).
[[nodiscard]] double round_time_seconds(std::size_t max_targets_per_agent,
                                        double probe_cost_ms = kProbeCostMs);

}  // namespace skh::probe
