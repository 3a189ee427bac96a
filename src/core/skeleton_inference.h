// Traffic-skeleton inference (§5.1, runtime phase).
//
// A CSP cannot see a tenant's parallelism strategy, but it can see each
// RNIC's throughput counters. SkeletonHunter converts every endpoint's burst
// series to STFT features, clusters them under the Eq. 1-3 constraints to
// recover the DP position groups ("same position across different DP
// replicas"), counts distinct burst time-shift levels to recover the number
// of pipeline stages, and finally rebuilds the set of endpoint pairs the
// training traffic actually traverses: ring + double-binary-tree all-reduce
// partners inside each position group (ordered by CSP-visible container
// index, which fixes the ring order), and pipeline neighbors across
// adjacent-stage groups on the same RNIC rank.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "dsp/stft.h"
#include "ml/clustering.h"

namespace skh::core {

/// CSP-visible facts about one endpoint of the monitored task.
struct EndpointObservation {
  Endpoint endpoint;
  std::uint32_t host = 0;             ///< host index (Eq. 3 constraint)
  std::uint32_t container_index = 0;  ///< index of the container in the task
  std::uint32_t rnic_rank = 0;        ///< rank of the RNIC within container
  std::vector<double> throughput;     ///< burst series (1 Hz Gbps samples)
};

/// STFT geometry of the per-endpoint burst features clustering compares.
inline constexpr dsp::StftConfig kInferenceStft{};

struct InferenceConfig {
  /// Candidate DP degrees; empty = all divisors of N giving >= 2 groups.
  std::vector<std::uint32_t> candidate_dp;
};

struct InferredSkeleton {
  std::uint32_t dp = 0;        ///< inferred data-parallel degree (|c-bar|)
  std::uint32_t num_groups = 0;  ///< k = TP x PP position groups
  std::uint32_t pp = 0;        ///< inferred pipeline depth (lag levels)
  /// position_groups[g] = indices into the observation vector, sorted by
  /// container index (the inferred DP-rank order).
  std::vector<std::vector<std::size_t>> position_groups;
  /// stage_of_group[g] = inferred pipeline-stage level of group g.
  std::vector<std::uint32_t> stage_of_group;
  /// The inferred skeleton: unordered endpoint pairs to probe.
  std::vector<EndpointPair> pairs;
};

/// Median of a lag sample. Even sizes take the LOWER of the two middle
/// elements: a deterministic choice that does not bias stage assignment
/// toward later stages at the tolerance boundary (the upper element would).
[[nodiscard]] int median_lag(std::vector<int> lags);

/// Collapse burst lags into pipeline-stage levels. Each level is anchored at
/// its first (smallest) lag: a lag joins the current level iff it is within
/// `tolerance` of that *anchor*, not of the previous member, so a chain of
/// small steps (e.g. {0, 2, 4, 6} with tolerance 2) yields two levels
/// ({0, 2} and {4, 6}) instead of collapsing transitively into one and
/// undercounting PP depth. Returns the anchor lag of each level, ascending.
[[nodiscard]] std::vector<int> merge_lag_levels(std::vector<int> lags,
                                                int tolerance);

/// Run the full inference. Returns nullopt when clustering finds no feasible
/// grouping (irregular workload, §7.3 limitation), and for fewer than four
/// endpoints or series that are empty or of unequal length — callers then
/// fall back to the basic ping list.
[[nodiscard]] std::optional<InferredSkeleton> infer_skeleton(
    const std::vector<EndpointObservation>& observations,
    const InferenceConfig& cfg = {});

/// Quality of an inferred skeleton against the ground-truth pair set:
/// coverage = |inferred AND truth| / |truth| (missed pairs create blind
/// spots), excess = |inferred \ truth| / |inferred| (wasted probes).
struct SkeletonQuality {
  double coverage = 0.0;
  double excess = 0.0;
  std::size_t inferred_pairs = 0;
  std::size_t true_pairs = 0;
};

[[nodiscard]] SkeletonQuality evaluate_skeleton(
    const std::vector<EndpointPair>& inferred,
    const std::vector<EndpointPair>& truth);

}  // namespace skh::core
