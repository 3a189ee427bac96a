#include "ml/clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "dsp/stft.h"

namespace skh::ml {

namespace {

/// Index of (i, j), i < j, in the row-major strict upper triangle of an
/// n x n matrix: n(n-1)/2 entries, half a square one.
std::size_t upper_index(std::size_t n, std::size_t i, std::size_t j) {
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

/// Euclidean distances between all feature rows, computed once per
/// clustering call and read by the baseline, every agglomeration and the
/// intra-cluster score. Symmetric bit for bit, since (a - b)^2 == (b - a)^2,
/// so one triangle holds them.
class PointDistances {
 public:
  explicit PointDistances(const FeatureMatrix& features)
      : n_(features.size()) {
    d_.reserve(n_ * (n_ - 1) / 2);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) {
        d_.push_back(skh::dsp::euclidean_distance(features[i], features[j]));
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return i < j ? d_[upper_index(n_, i, j)] : d_[upper_index(n_, j, i)];
  }

 private:
  std::size_t n_;
  std::vector<double> d_;
};

/// Mean pairwise distance inside the clusters, cluster by cluster.
template <class Dist>
double mean_intra_distance(const Clustering& clustering, const Dist& dist) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (const auto& cluster : clustering.clusters) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      for (std::size_t j = i + 1; j < cluster.size(); ++j) {
        sum += dist(cluster[i], cluster[j]);
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

Clustering finalize(std::size_t n, std::vector<std::vector<std::size_t>> live) {
  Clustering out;
  // Deterministic ordering: by smallest member index.
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  out.clusters = std::move(live);
  out.assignment.assign(n, 0);
  for (std::size_t c = 0; c < out.clusters.size(); ++c) {
    std::sort(out.clusters[c].begin(), out.clusters[c].end());
    for (std::size_t i : out.clusters[c]) out.assignment[i] = c;
  }
  return out;
}

/// Agglomerative merging state. Clusters keep the slot of their first item,
/// and `live` lists the live slots in ascending order, which is the order a
/// vector of clusters with erase-on-merge would hold them in. `linkage`
/// caches, for live slots s < t, the average linkage of s and t (+inf when
/// Eq. 3 forbids the merge, which a strict-minimum scan never picks, just as
/// it never picked a skipped pair). A merge changes only the merged
/// cluster's members, so only its row and column are recomputed; every
/// other entry sums the same members in the same order as before.
class Agglomeration {
 public:
  Agglomeration(const PointDistances& dist,
                const std::vector<std::size_t>& host_of)
      : dist_(dist),
        n_(dist.size()),
        members_(n_),
        live_(n_),
        linkage_(n_ * (n_ - 1) / 2, 0.0) {
    for (std::size_t i = 0; i < n_; ++i) {
      members_[i] = {i};
      live_[i] = i;
    }
    if (!host_of.empty()) {
      // Hosts become dense bit positions; a cluster's hosts are one bitset.
      std::vector<std::size_t> hosts = host_of;
      std::sort(hosts.begin(), hosts.end());
      hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
      words_ = (hosts.size() + 63) / 64;
      host_bits_.assign(n_ * words_, 0);
      for (std::size_t i = 0; i < n_; ++i) {
        const auto h = static_cast<std::size_t>(
            std::lower_bound(hosts.begin(), hosts.end(), host_of[i]) -
            hosts.begin());
        host_bits_[i * words_ + h / 64] |= std::uint64_t{1} << (h % 64);
      }
    }
    for (std::size_t s = 0; s < n_; ++s) {
      for (std::size_t t = s + 1; t < n_; ++t) update(s, t);
    }
  }

  [[nodiscard]] std::size_t live_clusters() const noexcept {
    return live_.size();
  }

  /// Merge the first pair (in i < j scan order) of minimum linkage. Returns
  /// false when the host constraint blocks every merge.
  bool merge_closest() {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    bool found = false;
    for (std::size_t a = 0; a < live_.size(); ++a) {
      const std::size_t s = live_[a];
      const double* row = linkage_.data() + upper_index(n_, s, s + 1);
      for (std::size_t b = a + 1; b < live_.size(); ++b) {
        const double d = row[live_[b] - s - 1];
        if (d < best) {
          best = d;
          bi = live_[a];
          bj = live_[b];
          found = true;
        }
      }
    }
    if (!found) return false;
    members_[bi].insert(members_[bi].end(), members_[bj].begin(),
                        members_[bj].end());
    for (std::size_t w = 0; w < words_; ++w) {
      host_bits_[bi * words_ + w] |= host_bits_[bj * words_ + w];
    }
    live_.erase(std::find(live_.begin(), live_.end(), bj));
    for (std::size_t c : live_) {
      if (c != bi) update(std::min(c, bi), std::max(c, bi));
    }
    return true;
  }

  [[nodiscard]] Clustering result() && {
    std::vector<std::vector<std::size_t>> live;
    live.reserve(live_.size());
    for (std::size_t s : live_) live.push_back(std::move(members_[s]));
    return finalize(n_, std::move(live));
  }

 private:
  /// Recompute the cached linkage of live slots s < t: the mean pairwise
  /// distance, summed with s's members outer and t's inner.
  void update(std::size_t s, std::size_t t) {
    double& out = linkage_[upper_index(n_, s, t)];
    for (std::size_t w = 0; w < words_; ++w) {
      if ((host_bits_[s * words_ + w] & host_bits_[t * words_ + w]) != 0) {
        out = std::numeric_limits<double>::infinity();
        return;
      }
    }
    const auto& a = members_[s];
    const auto& b = members_[t];
    double sum = 0.0;
    for (std::size_t i : a) {
      for (std::size_t j : b) sum += dist_(i, j);
    }
    out = sum / (static_cast<double>(a.size()) * static_cast<double>(b.size()));
  }

  const PointDistances& dist_;
  std::size_t n_;
  std::vector<std::vector<std::size_t>> members_;  ///< by slot
  std::vector<std::size_t> live_;
  std::vector<double> linkage_;  ///< by slot pair, as upper_index
  std::size_t words_ = 0;        ///< host-bitset words per slot; 0 = no Eq. 3
  std::vector<std::uint64_t> host_bits_;
};

/// Average-linkage agglomeration down to k clusters; nullopt if the host
/// constraint blocks every merge before k is reached.
std::optional<Clustering> agglomerate(const PointDistances& dist,
                                      std::size_t k,
                                      const std::vector<std::size_t>& host_of) {
  const std::size_t n = dist.size();
  if (k == 0 || k > n) {
    throw std::invalid_argument("agglomerate: k must be in [1, n]");
  }
  if (!host_of.empty() && host_of.size() != n) {
    throw std::invalid_argument("agglomerate: host_of size mismatch");
  }
  Agglomeration st(dist, host_of);
  while (st.live_clusters() > k) {
    if (!st.merge_closest()) return std::nullopt;
  }
  return std::move(st).result();
}

}  // namespace

double Clustering::size_variance() const {
  if (clusters.empty()) return 0.0;
  double mean = 0.0;
  for (const auto& c : clusters) mean += static_cast<double>(c.size());
  mean /= static_cast<double>(clusters.size());
  double var = 0.0;
  for (const auto& c : clusters) {
    const double d = static_cast<double>(c.size()) - mean;
    var += d * d;
  }
  return var / static_cast<double>(clusters.size());
}

Clustering hierarchical_cluster(const FeatureMatrix& features, std::size_t k) {
  auto result = agglomerate(PointDistances(features), k, /*host_of=*/{});
  // Unconstrained agglomeration always succeeds.
  return std::move(*result);
}

std::optional<Clustering> constrained_cluster(
    const FeatureMatrix& features, const ConstrainedClusterConfig& cfg) {
  const std::size_t n = features.size();
  if (n == 0) return std::nullopt;

  std::vector<std::size_t> candidates = cfg.candidate_ks;
  if (candidates.empty()) {
    for (std::size_t k = 2; k <= n / 2; ++k) {
      if (n % k == 0) candidates.push_back(k);
    }
  }

  // Global distance scale: mean pairwise distance over all items, used to
  // decide whether a candidate clustering is "tight".
  const PointDistances dist(features);
  double baseline = 0.0;
  std::size_t baseline_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      baseline += dist(i, j);
      ++baseline_pairs;
    }
  }
  if (baseline_pairs > 0) baseline /= static_cast<double>(baseline_pairs);

  struct Candidate {
    Clustering clustering;
    std::size_t k;
    double var;
    double intra;
  };
  std::vector<Candidate> feasible;
  for (std::size_t k : candidates) {
    if (k == 0 || k > n) continue;
    auto result = agglomerate(dist, k, cfg.host_of);
    if (!result) continue;
    // Eq. 2: the rounded mean group size must divide N.
    const double mean_size =
        static_cast<double>(n) / static_cast<double>(result->num_clusters());
    const auto rounded = static_cast<std::size_t>(std::llround(mean_size));
    if (rounded == 0 || n % rounded != 0) continue;
    const double var = result->size_variance();
    const double intra = mean_intra_distance(*result, dist);
    feasible.push_back(Candidate{std::move(*result), k, var, intra});
  }
  if (feasible.empty()) return std::nullopt;

  // Eq. 1: keep only minimum-variance candidates.
  double min_var = std::numeric_limits<double>::infinity();
  for (const auto& c : feasible) min_var = std::min(min_var, c.var);
  std::erase_if(feasible, [&](const Candidate& c) { return c.var > min_var; });

  // Among minimum-variance candidates, the correct k is the *smallest* one
  // whose clusters remain tight (splitting a true group keeps intra ~0 for
  // every larger k, so intra alone cannot pick k; merging distinct groups
  // makes intra jump toward the global baseline). Fall back to the tightest
  // candidate if nothing passes the elbow threshold.
  constexpr double kTightness = 0.25;
  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) { return a.k < b.k; });
  for (auto& c : feasible) {
    if (c.intra <= kTightness * baseline) return std::move(c.clustering);
  }
  auto best = std::min_element(
      feasible.begin(), feasible.end(),
      [](const Candidate& a, const Candidate& b) { return a.intra < b.intra; });
  return std::move(best->clustering);
}

double mean_intra_cluster_distance(const FeatureMatrix& features,
                                   const Clustering& clustering) {
  return mean_intra_distance(clustering, [&](std::size_t i, std::size_t j) {
    return skh::dsp::euclidean_distance(features[i], features[j]);
  });
}

}  // namespace skh::ml
