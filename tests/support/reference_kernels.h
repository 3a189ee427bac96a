// The skeleton-inference kernels as they stood before clustering cached its
// average linkages, the FFT filled each stage's twiddles once and
// cross-correlation took precomputed spectra. They are kept test-side as the
// reference the library must match bit for bit: test_dsp, test_ml and
// test_core compare against them on randomized inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "dsp/fft.h"
#include "dsp/stft.h"
#include "ml/clustering.h"

namespace skh::reference {

/// Radix-2 FFT whose every block reruns the w *= wlen twiddle recurrence.
inline void fft_inplace(std::span<dsp::Complex> data, bool inverse = false) {
  const std::size_t n = data.size();
  if (!dsp::is_pow2(n)) {
    throw std::invalid_argument("fft_inplace: size must be a power of two");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1.0 : -1.0);
    const dsp::Complex wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      dsp::Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const dsp::Complex u = data[i + k];
        const dsp::Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

/// Cross-correlation that transforms both series on every call.
inline std::vector<double> circular_xcorr(std::span<const double> a,
                                          std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("circular_xcorr: size mismatch");
  }
  const std::size_t n = dsp::next_pow2(std::max<std::size_t>(a.size(), 1));
  std::vector<dsp::Complex> fa(n, dsp::Complex{}), fb(n, dsp::Complex{});
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = dsp::Complex{a[i], 0.0};
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = dsp::Complex{b[i], 0.0};
  fft_inplace(fa);
  fft_inplace(fb);
  for (std::size_t i = 0; i < n; ++i) fa[i] = std::conj(fa[i]) * fb[i];
  fft_inplace(fa, /*inverse=*/true);
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = fa[i].real();
  return out;
}

inline int best_lag(std::span<const double> a, std::span<const double> b) {
  const auto corr = reference::circular_xcorr(a, b);
  const std::size_t n = corr.size();
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (corr[i] > corr[best]) best = i;
  }
  auto lag = static_cast<long>(best);
  if (lag >= static_cast<long>(n / 2)) lag -= static_cast<long>(n);
  return static_cast<int>(lag);
}

/// Pairwise normalized correlation: demeans and transforms both series.
inline double best_correlation(std::span<const double> a,
                               std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const std::size_t n = a.size();
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  std::vector<double> da(n), db(n);
  double va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    da[i] = a[i] - ma;
    db[i] = b[i] - mb;
    va += da[i] * da[i];
    vb += db[i] * db[i];
  }
  if (va <= 1e-12 || vb <= 1e-12) return 0.0;
  const auto corr = reference::circular_xcorr(da, db);
  double best = 0.0;
  for (double c : corr) best = std::max(best, c);
  return best / std::sqrt(va * vb);
}

/// Average-linkage agglomeration that recomputes every live pair's linkage
/// from the feature rows before each merge: O(n^3 d).
inline std::optional<ml::Clustering> agglomerate(
    const ml::FeatureMatrix& features, std::size_t k,
    const std::vector<std::size_t>& host_of) {
  const std::size_t n = features.size();
  if (k == 0 || k > n) {
    throw std::invalid_argument("agglomerate: k must be in [1, n]");
  }
  const bool host_constrained = !host_of.empty();
  if (host_constrained && host_of.size() != n) {
    throw std::invalid_argument("agglomerate: host_of size mismatch");
  }
  std::vector<std::vector<std::size_t>> members;
  std::vector<std::unordered_set<std::size_t>> hosts(n);
  for (std::size_t i = 0; i < n; ++i) {
    members.push_back({i});
    if (host_constrained) hosts[i].insert(host_of[i]);
  }
  const auto can_merge = [&](std::size_t a, std::size_t b) {
    if (!host_constrained) return true;
    for (std::size_t h : hosts[a]) {
      if (hosts[b].contains(h)) return false;
    }
    return true;
  };
  const auto pair_distance = [&](const std::vector<std::size_t>& a,
                                 const std::vector<std::size_t>& b) {
    double sum = 0.0;
    for (std::size_t i : a) {
      for (std::size_t j : b) {
        sum += dsp::euclidean_distance(features[i], features[j]);
      }
    }
    return sum /
           (static_cast<double>(a.size()) * static_cast<double>(b.size()));
  };
  while (members.size() > k) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    bool found = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (!can_merge(i, j)) continue;
        const double d = pair_distance(members[i], members[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
          found = true;
        }
      }
    }
    if (!found) return std::nullopt;
    auto& a = members[bi];
    auto& b = members[bj];
    a.insert(a.end(), b.begin(), b.end());
    if (host_constrained) {
      hosts[bi].insert(hosts[bj].begin(), hosts[bj].end());
      hosts.erase(hosts.begin() + static_cast<long>(bj));
    }
    members.erase(members.begin() + static_cast<long>(bj));
  }
  ml::Clustering out;
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  out.clusters = std::move(members);
  out.assignment.assign(n, 0);
  for (std::size_t c = 0; c < out.clusters.size(); ++c) {
    std::sort(out.clusters[c].begin(), out.clusters[c].end());
    for (std::size_t i : out.clusters[c]) out.assignment[i] = c;
  }
  return out;
}

inline double mean_intra_cluster_distance(const ml::FeatureMatrix& features,
                                          const ml::Clustering& clustering) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (const auto& cluster : clustering.clusters) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      for (std::size_t j = i + 1; j < cluster.size(); ++j) {
        sum += dsp::euclidean_distance(features[cluster[i]],
                                       features[cluster[j]]);
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

/// Eq. 1-3 candidate selection over one reference agglomeration per k.
inline std::optional<ml::Clustering> constrained_cluster(
    const ml::FeatureMatrix& features, const ml::ConstrainedClusterConfig& cfg) {
  const std::size_t n = features.size();
  if (n == 0) return std::nullopt;
  std::vector<std::size_t> candidates = cfg.candidate_ks;
  if (candidates.empty()) {
    for (std::size_t k = 2; k <= n / 2; ++k) {
      if (n % k == 0) candidates.push_back(k);
    }
  }
  double baseline = 0.0;
  std::size_t baseline_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      baseline += dsp::euclidean_distance(features[i], features[j]);
      ++baseline_pairs;
    }
  }
  if (baseline_pairs > 0) baseline /= static_cast<double>(baseline_pairs);
  struct Candidate {
    ml::Clustering clustering;
    std::size_t k;
    double var;
    double intra;
  };
  std::vector<Candidate> feasible;
  for (std::size_t k : candidates) {
    if (k == 0 || k > n) continue;
    auto result = reference::agglomerate(features, k, cfg.host_of);
    if (!result) continue;
    const double mean_size =
        static_cast<double>(n) / static_cast<double>(result->num_clusters());
    const auto rounded = static_cast<std::size_t>(std::llround(mean_size));
    if (rounded == 0 || n % rounded != 0) continue;
    const double var = result->size_variance();
    const double intra =
        reference::mean_intra_cluster_distance(features, *result);
    feasible.push_back(Candidate{std::move(*result), k, var, intra});
  }
  if (feasible.empty()) return std::nullopt;
  double min_var = std::numeric_limits<double>::infinity();
  for (const auto& c : feasible) min_var = std::min(min_var, c.var);
  std::erase_if(feasible, [&](const Candidate& c) { return c.var > min_var; });
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

}  // namespace skh::reference
