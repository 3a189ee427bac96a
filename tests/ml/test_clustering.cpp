#include "ml/clustering.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "common/rng.h"
#include "support/reference_kernels.h"

namespace skh::ml {
namespace {

/// Synthetic features: `groups` well-separated centroids, `per_group` items
/// each, with optional noise.
FeatureMatrix make_features(std::size_t groups, std::size_t per_group,
                            double noise, RngStream& rng) {
  FeatureMatrix f;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < per_group; ++i) {
      f.push_back({static_cast<double>(g) * 10.0 + rng.normal(0, noise),
                   static_cast<double>(g % 3) * 5.0 + rng.normal(0, noise)});
    }
  }
  return f;
}

TEST(Hierarchical, RecoversCleanGroups) {
  RngStream rng{1};
  const auto f = make_features(4, 5, 0.1, rng);
  const auto c = hierarchical_cluster(f, 4);
  EXPECT_EQ(c.num_clusters(), 4u);
  // All items of one true group share a cluster.
  for (std::size_t g = 0; g < 4; ++g) {
    const auto first = c.assignment[g * 5];
    for (std::size_t i = 1; i < 5; ++i) {
      EXPECT_EQ(c.assignment[g * 5 + i], first);
    }
  }
}

TEST(Hierarchical, KEqualsNIsSingletons) {
  RngStream rng{2};
  const auto f = make_features(2, 3, 0.1, rng);
  const auto c = hierarchical_cluster(f, 6);
  EXPECT_EQ(c.num_clusters(), 6u);
  for (const auto& cl : c.clusters) EXPECT_EQ(cl.size(), 1u);
}

TEST(Hierarchical, KOneIsEverything) {
  RngStream rng{3};
  const auto f = make_features(3, 2, 0.1, rng);
  const auto c = hierarchical_cluster(f, 1);
  EXPECT_EQ(c.num_clusters(), 1u);
  EXPECT_EQ(c.clusters[0].size(), 6u);
}

TEST(Hierarchical, RejectsBadK) {
  RngStream rng{4};
  const auto f = make_features(2, 2, 0.1, rng);
  EXPECT_THROW(hierarchical_cluster(f, 0), std::invalid_argument);
  EXPECT_THROW(hierarchical_cluster(f, 5), std::invalid_argument);
}

TEST(Clustering, SizeVariance) {
  Clustering c;
  c.clusters = {{0, 1}, {2, 3}};
  EXPECT_DOUBLE_EQ(c.size_variance(), 0.0);
  c.clusters = {{0}, {1, 2, 3}};
  EXPECT_DOUBLE_EQ(c.size_variance(), 1.0);
}

TEST(Constrained, HostConstraintSeparatesIdenticalFeatures) {
  // Two hosts, two items each, all features identical: Eq. 3 forbids
  // same-host grouping, so groups must pair across hosts.
  FeatureMatrix f{{0.0}, {0.0}, {0.0}, {0.0}};
  ConstrainedClusterConfig cfg;
  cfg.host_of = {0, 0, 1, 1};
  cfg.candidate_ks = {2};
  const auto c = constrained_cluster(f, cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->num_clusters(), 2u);
  for (const auto& cluster : c->clusters) {
    ASSERT_EQ(cluster.size(), 2u);
    EXPECT_NE(cfg.host_of[cluster[0]], cfg.host_of[cluster[1]]);
  }
}

TEST(Constrained, InfeasibleWhenHostsForbidK) {
  // Four items on ONE host can never form 2 host-disjoint clusters of 2.
  FeatureMatrix f{{0.0}, {1.0}, {2.0}, {3.0}};
  ConstrainedClusterConfig cfg;
  cfg.host_of = {0, 0, 0, 0};
  cfg.candidate_ks = {2};
  EXPECT_FALSE(constrained_cluster(f, cfg).has_value());
}

TEST(Constrained, PicksTrueGroupCountAmongCandidates) {
  // 4 position groups x 4 DP replicas, well separated; hosts arranged so
  // each replica is one host (groups must cross hosts).
  RngStream rng{5};
  FeatureMatrix f;
  std::vector<std::size_t> host_of;
  for (std::size_t host = 0; host < 4; ++host) {    // 4 hosts = 4 DP ranks
    for (std::size_t pos = 0; pos < 4; ++pos) {     // 4 positions
      f.push_back({static_cast<double>(pos) * 8.0 + rng.normal(0, 0.2),
                   static_cast<double>(pos % 2) * 4.0 + rng.normal(0, 0.2)});
      host_of.push_back(host);
    }
  }
  ConstrainedClusterConfig cfg;
  cfg.host_of = host_of;
  cfg.candidate_ks = {2, 4, 8};
  const auto c = constrained_cluster(f, cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->num_clusters(), 4u);
  // Each cluster holds the 4 same-position items.
  for (const auto& cluster : c->clusters) {
    EXPECT_EQ(cluster.size(), 4u);
  }
}

TEST(Constrained, EmptyInputIsInfeasible) {
  EXPECT_FALSE(constrained_cluster({}, {}).has_value());
}

TEST(Constrained, BalancedSizesPreferred) {
  // Candidates 2 and 3 over 6 items: k=3 balanced (2+2+2) is feasible,
  // k=2 would be 3+3 also balanced; true structure has 3 groups.
  RngStream rng{6};
  FeatureMatrix f;
  for (std::size_t g = 0; g < 3; ++g) {
    for (int i = 0; i < 2; ++i) {
      f.push_back({static_cast<double>(g) * 10.0 + rng.normal(0, 0.1)});
    }
  }
  ConstrainedClusterConfig cfg;
  cfg.candidate_ks = {2, 3};
  const auto c = constrained_cluster(f, cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->num_clusters(), 3u);
}

TEST(MeanIntraDistance, ZeroForSingletons) {
  FeatureMatrix f{{0.0}, {5.0}};
  Clustering c;
  c.assignment = {0, 1};
  c.clusters = {{0}, {1}};
  EXPECT_DOUBLE_EQ(mean_intra_cluster_distance(f, c), 0.0);
}

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, RobustToFeatureNoise) {
  RngStream rng{7};
  const double noise = GetParam();
  FeatureMatrix f;
  std::vector<std::size_t> host_of;
  // 8 DP ranks (hosts) x 2 positions.
  for (std::size_t host = 0; host < 8; ++host) {
    for (std::size_t pos = 0; pos < 2; ++pos) {
      f.push_back({static_cast<double>(pos) * 10.0 + rng.normal(0, noise)});
      host_of.push_back(host);
    }
  }
  ConstrainedClusterConfig cfg;
  cfg.host_of = host_of;
  cfg.candidate_ks = {2, 4, 8};
  const auto c = constrained_cluster(f, cfg);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->num_clusters(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Noise, NoiseSweep,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0));

/// Random rows for the reference comparison: `dims` normal coordinates, or
/// coordinates on the grid {0, 1, 2} so that many linkages tie exactly;
/// with `dup_every` > 0 every dup_every-th row repeats the one before it.
FeatureMatrix reference_features(RngStream& rng, std::size_t n,
                                 std::size_t dims, bool grid,
                                 std::size_t dup_every) {
  FeatureMatrix f;
  for (std::size_t i = 0; i < n; ++i) {
    if (dup_every > 0 && i % dup_every == dup_every - 1) {
      f.push_back(f.back());
      continue;
    }
    std::vector<double> row(dims);
    for (auto& x : row) {
      x = grid ? static_cast<double>(rng.uniform_int(0, 2)) : rng.normal(0, 1);
    }
    f.push_back(std::move(row));
  }
  return f;
}

void expect_same(const std::optional<Clustering>& got,
                 const std::optional<Clustering>& want,
                 const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->clusters, want->clusters) << what;
  EXPECT_EQ(got->assignment, want->assignment) << what;
}

TEST(ClusteringReference, CachedLinkagesMatchTheNaiveAgglomeration) {
  struct Case {
    std::size_t n;
    std::size_t dims;
    bool grid;
    std::size_t dup_every;
    std::size_t per_host;  ///< items per host for Eq. 3
    std::vector<std::size_t> ks;
  };
  // 33 dims is the STFT feature; the largest cases use fewer to keep the
  // naive O(n^3 d) reference quick.
  const Case cases[] = {
      {8, 33, false, 0, 2, {2, 4}},
      {16, 33, true, 0, 4, {4, 8}},
      {16, 33, false, 0, 8, {2, 4}},  // at most 2 per cluster: k = 4 blocks
      {32, 33, false, 3, 4, {4, 8, 16}},
      {64, 33, true, 4, 16, {8, 16, 32}},  // k = 8 blocks at 4 hosts
      {128, 33, false, 0, 8, {16, 32, 64}},
      {128, 3, true, 5, 8, {16, 32}},
      {256, 4, false, 7, 8, {32}},
      {512, 2, true, 0, 8, {64}},
  };
  RngStream rng{21};
  for (const Case& c : cases) {
    const auto f = reference_features(rng, c.n, c.dims, c.grid, c.dup_every);
    std::vector<std::size_t> host_of(c.n);
    for (std::size_t i = 0; i < c.n; ++i) host_of[i] = 1000 + i / c.per_host;
    const std::string at = "n=" + std::to_string(c.n) + " dims=" +
                           std::to_string(c.dims) + " grid=" +
                           std::to_string(c.grid) + " k=";
    for (std::size_t k : c.ks) {
      const auto plain = hierarchical_cluster(f, k);
      expect_same(plain, reference::agglomerate(f, k, {}), at + "plain " +
                  std::to_string(k));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mean_intra_cluster_distance(f, plain)),
                std::bit_cast<std::uint64_t>(
                    reference::mean_intra_cluster_distance(f, plain)));
      const ConstrainedClusterConfig one{host_of, {k}};
      expect_same(constrained_cluster(f, one),
                  reference::constrained_cluster(f, one),
                  at + "host " + std::to_string(k));
    }
    const ConstrainedClusterConfig all{host_of, c.ks};
    expect_same(constrained_cluster(f, all),
                reference::constrained_cluster(f, all), at + "candidates");
  }
}

TEST(ClusteringReference, InfeasibleHostsMatchTheReference) {
  // Sixteen items on two hosts: no host-disjoint cluster holds more than
  // two, so k = 4 and k = 2 are infeasible and k = 8 is the only answer.
  RngStream rng{22};
  const auto f = reference_features(rng, 16, 33, false, 0);
  std::vector<std::size_t> host_of(16);
  for (std::size_t i = 0; i < 16; ++i) host_of[i] = i % 2;
  for (const std::vector<std::size_t>& ks :
       {std::vector<std::size_t>{2}, {2, 4}, {2, 4, 8}}) {
    const ConstrainedClusterConfig cfg{host_of, ks};
    const auto got = constrained_cluster(f, cfg);
    expect_same(got, reference::constrained_cluster(f, cfg), "ks");
    EXPECT_EQ(got.has_value(), ks.back() == 8);
  }
}

}  // namespace
}  // namespace skh::ml
