// Traffic-skeleton fidelity validation (§7.3).
//
// Inference can go wrong when a tenant's workload does not follow standard
// collective-communication patterns (debug clusters, novel parallelism).
// The paper's proposed mitigation: "validate whether the traffic skeleton
// persistently aligns with the actual traffic bursts" before trusting it.
// This checker scores an inferred skeleton against the observed burst
// series: endpoints paired by the skeleton should show correlated burst
// activity, and no strongly-bursting endpoint should be left isolated.
#pragma once

#include <vector>

#include "core/skeleton_inference.h"

namespace skh::core {

/// Fidelity score under which a skeleton should not be trusted (callers
/// fall back to the basic ping list).
inline constexpr double kFidelityAcceptThreshold = 0.7;

struct FidelityReport {
  /// Fraction of skeleton pairs whose endpoints' bursts are correlated.
  double pair_alignment = 0.0;
  /// Fraction of actively-bursting endpoints covered by >= 1 skeleton pair.
  double active_coverage = 0.0;
  /// Fraction of endpoints that are actively bursting at all. Near-zero
  /// means an idle/debug cluster where inference has nothing to work with.
  double active_fraction = 0.0;
  /// min(pair_alignment, active_coverage), gated on there being activity.
  double score = 0.0;

  [[nodiscard]] bool acceptable() const {
    return score >= kFidelityAcceptThreshold;
  }
};

/// Peak-to-mean burstiness of a throughput series (0 for a flat/empty one).
[[nodiscard]] double burstiness(std::span<const double> series);

/// Normalized cross-correlation of two series at their best alignment,
/// in [-1, 1].
[[nodiscard]] double best_correlation(std::span<const double> a,
                                      std::span<const double> b);

/// Score an inferred skeleton against the observations it was derived from
/// (or fresher ones — the paper suggests *persistent* validation).
[[nodiscard]] FidelityReport validate_skeleton(
    const std::vector<EndpointPair>& skeleton_pairs,
    const std::vector<EndpointObservation>& observations);

}  // namespace skh::core
