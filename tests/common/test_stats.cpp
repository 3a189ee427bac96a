#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace skh {
namespace {

TEST(Percentile, MedianOfOddSample) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(Percentile, EdgesAreMinMax) {
  const std::vector<double> v{4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 42.0);
}

TEST(Percentile, EmptySampleIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 10.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 7.0);
}

TEST(Percentile, OutOfRangeQClamps) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 150.0), 2.0);
}

TEST(RunningStats, MatchesBatchComputation) {
  RngStream rng{5};
  std::vector<double> v;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(10.0, 2.0);
    v.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean_of(v), 1e-9);
  EXPECT_NEAR(rs.stddev(), stddev_of(v), 1e-9);
  EXPECT_EQ(rs.count(), 500u);
}

TEST(RunningStats, MergeEqualsSequential) {
  RngStream rng{6};
  RunningStats all, a, b;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 100);
    all.add(x);
    (i < 80 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Ecdf, StepFunction) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ecdf(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(v, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(ecdf(v, 10.0), 1.0);
}

class PercentileSweep : public ::testing::TestWithParam<double> {};

TEST_P(PercentileSweep, SortedAndUnsortedAgree) {
  RngStream rng{21};
  std::vector<double> v;
  for (int i = 0; i < 257; ++i) v.push_back(rng.normal(0, 1));
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(percentile(v, GetParam()),
                   percentile_sorted(sorted, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, PercentileSweep,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0, 90.0,
                                           99.0, 100.0));

TEST(RunningStats, PopulationVarianceIsBiasedForm) {
  RunningStats s;
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : v) s.add(x);
  EXPECT_NEAR(s.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 4.0 * 8.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(RunningStats{}.population_variance(), 0.0);
}

TEST(SortSmall, ZeroOnePrincipleExhaustive) {
  // A comparator network sorts every input iff it sorts every 0/1 input
  // (Knuth's 0/1 principle) — so 2^n vectors per size prove the network
  // for all real data. Covers the padded sub-8 sizes, not just 8.
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = (bits >> i) & 1u ? 1.0 : 0.0;
      }
      std::vector<double> want = v;
      std::sort(want.begin(), want.end());
      sort_small(v.data(), v.size());
      ASSERT_EQ(v, want) << "n=" << n << " bits=" << bits;
    }
  }
}

TEST(SortSmall, MatchesStdSortOnRandomDataAndLargeFallback) {
  RngStream rng{0x50FA};
  for (std::size_t n : {2u, 5u, 6u, 7u, 8u, 9u, 40u}) {
    for (int round = 0; round < 200; ++round) {
      std::vector<double> v(n);
      for (auto& x : v) x = rng.normal(16.0, 4.0);
      std::vector<double> want = v;
      std::sort(want.begin(), want.end());
      sort_small(v.data(), v.size());
      ASSERT_EQ(v, want);
    }
  }
}

TEST(SortSmall, InfinitiesInDataSortLikeStdSort) {
  // The network pads with +inf internally; +inf already present in the
  // data must still land in the right place.
  std::vector<double> v{3.0, std::numeric_limits<double>::infinity(), 1.0,
                        std::numeric_limits<double>::infinity(), 2.0};
  std::vector<double> want = v;
  std::sort(want.begin(), want.end());
  sort_small(v.data(), v.size());
  EXPECT_EQ(v, want);
}

}  // namespace
}  // namespace skh
