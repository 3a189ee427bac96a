#include "probe/overhead.h"

#include <cmath>

namespace skh::probe {
namespace {

constexpr double kSteadyCpuPercent = 0.85;
constexpr double kStartupCpuPercent = 3.5;
constexpr double kCpuPer100Targets = 0.05;
constexpr double kBaseMemoryMb = 33.0;
constexpr double kStartupExtraMb = 10.0;
constexpr double kMemoryPerTargetKb = 40.0;
constexpr double kStartupTauS = 120.0;  ///< transient decay constant

}  // namespace

OverheadSample agent_overhead(SimTime elapsed, std::size_t active_targets) {
  OverheadSample s;
  const double t = std::max(0.0, elapsed.to_seconds());
  const double transient = std::exp(-t / kStartupTauS);
  const double target_load =
      static_cast<double>(active_targets) / 100.0;
  s.cpu_percent = kSteadyCpuPercent + kCpuPer100Targets * target_load +
                  (kStartupCpuPercent - kSteadyCpuPercent) * transient;
  s.memory_mb = kBaseMemoryMb +
                kMemoryPerTargetKb * static_cast<double>(active_targets) /
                    1024.0 +
                kStartupExtraMb * transient;
  return s;
}

double round_time_seconds(std::size_t max_targets_per_agent,
                          double probe_cost_ms) {
  return static_cast<double>(max_targets_per_agent) * probe_cost_ms / 1e3;
}

}  // namespace skh::probe
