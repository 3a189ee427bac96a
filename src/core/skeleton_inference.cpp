#include "core/skeleton_inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "dsp/fft.h"

namespace skh::core {

namespace {

/// Burst lags within this many samples collapse into one pipeline-stage
/// level.
constexpr int kLagMergeTolerance = 2;

/// Normalize an unordered pair so set operations are well-defined.
EndpointPair normalized(Endpoint a, Endpoint b) {
  if (b < a) std::swap(a, b);
  return EndpointPair{a, b};
}

/// Ring edges over group member indices (callers pass DP-rank order).
void add_ring_pairs(const std::vector<std::size_t>& members,
                    const std::vector<EndpointObservation>& obs,
                    std::set<EndpointPair>& out) {
  const std::size_t n = members.size();
  if (n < 2) return;
  if (n == 2) {
    out.insert(normalized(obs[members[0]].endpoint, obs[members[1]].endpoint));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.insert(normalized(obs[members[i]].endpoint,
                          obs[members[(i + 1) % n]].endpoint));
  }
}

/// Double-binary-tree edges over group member indices (mirrors the NCCL
/// pattern assumed by the traffic model).
void add_tree_pairs(const std::vector<std::size_t>& members,
                    const std::vector<EndpointObservation>& obs,
                    std::set<EndpointPair>& out) {
  const std::size_t n = members.size();
  if (n < 2) return;
  for (std::size_t child = 1; child < n; ++child) {
    const std::size_t parent = (child - 1) / 2;
    out.insert(normalized(obs[members[parent]].endpoint,
                          obs[members[child]].endpoint));
    out.insert(normalized(obs[members[n - 1 - parent]].endpoint,
                          obs[members[n - 1 - child]].endpoint));
  }
}

/// Median lag of a group's member series relative to the reference series,
/// given as its fft_real spectrum.
int group_lag(const std::vector<std::size_t>& members,
              const std::vector<EndpointObservation>& obs,
              std::span<const dsp::Complex> reference) {
  std::vector<int> lags;
  lags.reserve(members.size());
  for (std::size_t m : members) {
    const auto& series = obs[m].throughput;
    lags.push_back(
        dsp::best_lag(reference, dsp::fft_real(series), series.size()));
  }
  return median_lag(std::move(lags));
}

}  // namespace

int median_lag(std::vector<int> lags) {
  std::sort(lags.begin(), lags.end());
  return lags[(lags.size() - 1) / 2];
}

std::vector<int> merge_lag_levels(std::vector<int> lags, int tolerance) {
  std::sort(lags.begin(), lags.end());
  std::vector<int> anchors;
  for (int lag : lags) {
    if (anchors.empty() || lag - anchors.back() > tolerance) {
      anchors.push_back(lag);
    }
  }
  return anchors;
}

std::optional<InferredSkeleton> infer_skeleton(
    const std::vector<EndpointObservation>& observations,
    const InferenceConfig& cfg) {
  const std::size_t n = observations.size();
  if (n < 4) return std::nullopt;
  // Features and lags compare series sample by sample.
  const std::size_t samples = observations.front().throughput.size();
  for (const auto& o : observations) {
    if (o.throughput.empty() || o.throughput.size() != samples) {
      return std::nullopt;
    }
  }

  // 1. Frequency-domain features of every endpoint's burst series.
  ml::FeatureMatrix features;
  features.reserve(n);
  for (const auto& o : observations) {
    features.push_back(dsp::stft_feature(o.throughput, kInferenceStft));
  }

  // 2. Constrained clustering (Eq. 1-3) into position groups.
  ml::ConstrainedClusterConfig ccfg;
  ccfg.host_of.reserve(n);
  for (const auto& o : observations) ccfg.host_of.push_back(o.host);
  if (!cfg.candidate_dp.empty()) {
    for (std::uint32_t dp : cfg.candidate_dp) {
      if (dp >= 2 && n % dp == 0) ccfg.candidate_ks.push_back(n / dp);
    }
  } else {
    for (std::uint32_t dp = 2; dp <= n / 2; ++dp) {
      if (n % dp == 0) ccfg.candidate_ks.push_back(n / dp);
    }
  }
  const auto clustering = ml::constrained_cluster(features, ccfg);
  if (!clustering) return std::nullopt;

  InferredSkeleton out;
  out.num_groups = static_cast<std::uint32_t>(clustering->num_clusters());
  out.dp = static_cast<std::uint32_t>(n / clustering->num_clusters());

  // 3. Order each group's members by container index: the CSP-visible
  // launch order fixes the DP-rank order (rank d's containers come before
  // rank d+1's in every framework's rendezvous).
  out.position_groups = clustering->clusters;
  for (auto& group : out.position_groups) {
    std::sort(group.begin(), group.end(), [&](std::size_t a, std::size_t b) {
      const auto& oa = observations[a];
      const auto& ob = observations[b];
      if (oa.container_index != ob.container_index) {
        return oa.container_index < ob.container_index;
      }
      return oa.rnic_rank < ob.rnic_rank;
    });
  }

  // 4. Pipeline-stage levels from burst time shifts: the first stage bursts
  // earliest (§5.1). Groups whose lags agree within the tolerance share a
  // stage level.
  const auto reference =
      dsp::fft_real(observations[out.position_groups[0][0]].throughput);
  std::vector<int> lags(out.position_groups.size());
  for (std::size_t g = 0; g < out.position_groups.size(); ++g) {
    lags[g] = group_lag(out.position_groups[g], observations, reference);
  }
  // Anchored level merging: see merge_lag_levels for why the comparison is
  // against each level's first lag rather than the previous member.
  const std::vector<int> level_reps =
      merge_lag_levels(lags, kLagMergeTolerance);
  out.pp = static_cast<std::uint32_t>(level_reps.size());
  out.stage_of_group.resize(out.position_groups.size());
  for (std::size_t g = 0; g < out.position_groups.size(); ++g) {
    std::uint32_t level = 0;
    int best = std::numeric_limits<int>::max();
    for (std::size_t l = 0; l < level_reps.size(); ++l) {
      const int d = std::abs(lags[g] - level_reps[l]);
      if (d < best) {
        best = d;
        level = static_cast<std::uint32_t>(l);
      }
    }
    out.stage_of_group[g] = level;
  }

  // 5. Skeleton pairs.
  std::set<EndpointPair> pairs;
  for (const auto& group : out.position_groups) {
    add_ring_pairs(group, observations, pairs);
    add_tree_pairs(group, observations, pairs);
  }
  // Pipeline neighbors: adjacent-stage groups on the same RNIC rank, member
  // i of one group paired with member i of the other (same DP replica).
  auto rank_of_group = [&](const std::vector<std::size_t>& g) {
    return observations[g[0]].rnic_rank;
  };
  for (std::size_t g1 = 0; g1 < out.position_groups.size(); ++g1) {
    for (std::size_t g2 = g1 + 1; g2 < out.position_groups.size(); ++g2) {
      const auto s1 = out.stage_of_group[g1];
      const auto s2 = out.stage_of_group[g2];
      if (s1 + 1 != s2 && s2 + 1 != s1) continue;
      if (rank_of_group(out.position_groups[g1]) !=
          rank_of_group(out.position_groups[g2])) {
        continue;
      }
      const auto& a = out.position_groups[g1];
      const auto& b = out.position_groups[g2];
      const std::size_t count = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < count; ++i) {
        pairs.insert(
            normalized(observations[a[i]].endpoint, observations[b[i]].endpoint));
      }
    }
  }
  out.pairs.assign(pairs.begin(), pairs.end());
  return out;
}

SkeletonQuality evaluate_skeleton(const std::vector<EndpointPair>& inferred,
                                  const std::vector<EndpointPair>& truth) {
  std::set<EndpointPair> inf;
  for (const auto& p : inferred) inf.insert(normalized(p.src, p.dst));
  std::set<EndpointPair> tru;
  for (const auto& p : truth) tru.insert(normalized(p.src, p.dst));

  std::size_t hit = 0;
  for (const auto& p : inf) {
    if (tru.contains(p)) ++hit;
  }
  SkeletonQuality q;
  q.inferred_pairs = inf.size();
  q.true_pairs = tru.size();
  q.coverage = tru.empty() ? 1.0
                           : static_cast<double>(hit) /
                                 static_cast<double>(tru.size());
  q.excess = inf.empty() ? 0.0
                         : static_cast<double>(inf.size() - hit) /
                               static_cast<double>(inf.size());
  return q;
}

}  // namespace skh::core
