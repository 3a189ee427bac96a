// Agglomerative hierarchical clustering, plus the constrained variant used
// by traffic-skeleton inference (§5.1, Eq. 1-3).
//
// Skeleton inference groups RNICs whose STFT features are similar; RNICs in
// one resulting group are in the same position across different DP
// (data-parallel) replicas. The paper constrains the grouping so that:
//   (Eq. 1) group sizes are balanced (minimum variance of |c_i|),
//   (Eq. 2) N is divisible by the rounded mean group size, and
//   (Eq. 3) no group contains two RNICs from the same host (same-host RNICs
//           communicate over NVLink, i.e. they belong to the same DP replica,
//           never the same position across replicas).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace skh::ml {

/// Feature matrix: one row per item.
using FeatureMatrix = std::vector<std::vector<double>>;

/// Result of a clustering run: assignment[i] = cluster index of item i,
/// clusters[c] = item indices of cluster c.
struct Clustering {
  std::vector<std::size_t> assignment;
  std::vector<std::vector<std::size_t>> clusters;

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return clusters.size();
  }
  /// Variance of cluster sizes — the objective of Eq. 1.
  [[nodiscard]] double size_variance() const;
};

/// Plain average-linkage agglomerative clustering down to `k` clusters using
/// Euclidean distance between feature rows. Used in the unconstrained
/// ablation and as the engine of the constrained variant. Costs O(n^2 d)
/// for the point distances plus O(n^3) for the merges; the first pair (in
/// cluster order) of minimum linkage merges first.
[[nodiscard]] Clustering hierarchical_cluster(const FeatureMatrix& features,
                                              std::size_t k);

struct ConstrainedClusterConfig {
  /// host_of[i] = host index of item i; items sharing a host may not share a
  /// cluster (Eq. 3). Empty disables the constraint.
  std::vector<std::size_t> host_of;
  /// Candidate cluster counts to try; for skeleton inference these are the
  /// divisors k of N for which the balanced group size N/k is a plausible DP
  /// degree. Empty means "all divisors of N >= 2 with group size >= 2".
  std::vector<std::size_t> candidate_ks;
};

/// Constrained clustering per Eq. 1-3: for each candidate k, run
/// host-disjoint average-linkage clustering to k clusters, discard runs whose
/// group sizes violate Eq. 2 divisibility, and return the feasible run with
/// (a) minimum size variance and (b) among ties, minimum mean intra-cluster
/// feature distance. Returns nullopt when no candidate yields a feasible
/// clustering (e.g. the host constraint is unsatisfiable).
[[nodiscard]] std::optional<Clustering> constrained_cluster(
    const FeatureMatrix& features, const ConstrainedClusterConfig& cfg);

/// Mean pairwise intra-cluster distance (lower = tighter clusters); used to
/// break ties between candidate k values and reported by the ablation bench.
[[nodiscard]] double mean_intra_cluster_distance(const FeatureMatrix& features,
                                                 const Clustering& clustering);

}  // namespace skh::ml
