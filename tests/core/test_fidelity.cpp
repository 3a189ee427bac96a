#include "core/fidelity.h"

#include <gtest/gtest.h>

#include <bit>

#include "../testutil.h"
#include "support/reference_kernels.h"
#include "workload/traffic.h"

namespace skh::core {
namespace {

using testutil::SimEnv;

TEST(Burstiness, FlatAndEmptySeriesScoreZero) {
  EXPECT_DOUBLE_EQ(burstiness({}), 0.0);
  const std::vector<double> zeros(100, 0.0);
  EXPECT_DOUBLE_EQ(burstiness(zeros), 0.0);
}

TEST(Burstiness, ConstantSeriesIsOne) {
  const std::vector<double> flat(100, 5.0);
  EXPECT_NEAR(burstiness(flat), 1.0, 1e-12);
}

TEST(Burstiness, BurstySeriesScoresHigh) {
  std::vector<double> s(100, 0.5);
  for (int i = 0; i < 100; i += 30) s[static_cast<std::size_t>(i)] = 15.0;
  EXPECT_GT(burstiness(s), 5.0);
}

TEST(BestCorrelation, IdenticalSeriesIsOne) {
  std::vector<double> s(64);
  for (std::size_t i = 0; i < 64; ++i) {
    s[i] = (i % 16 < 4) ? 10.0 : 1.0;
  }
  EXPECT_NEAR(best_correlation(s, s), 1.0, 1e-9);
}

TEST(BestCorrelation, ShiftedCopyStillCorrelates) {
  std::vector<double> a(64), b(64);
  for (std::size_t i = 0; i < 64; ++i) a[i] = (i % 16 < 4) ? 10.0 : 1.0;
  for (std::size_t i = 0; i < 64; ++i) b[(i + 5) % 64] = a[i];
  EXPECT_GT(best_correlation(a, b), 0.95);
}

TEST(BestCorrelation, ConstantSeriesIsZero) {
  const std::vector<double> flat(64, 3.0);
  const std::vector<double> other(64, 7.0);
  EXPECT_DOUBLE_EQ(best_correlation(flat, other), 0.0);
}

TEST(BestCorrelation, MismatchedSizesAreZero) {
  const std::vector<double> a(64, 1.0);
  const std::vector<double> b(32, 1.0);
  EXPECT_DOUBLE_EQ(best_correlation(a, b), 0.0);
}

TEST(BestCorrelation, MatchesThePairwiseReferenceBitForBit) {
  // 900 samples: the 15-minute, 1 Hz burst series the fidelity gate sees.
  RngStream rng{13};
  const std::size_t n = 900;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<double> a(n), b(n);
    const auto shift = static_cast<std::size_t>(rng.uniform_int(0, 60));
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = ((i % 30) > 24 ? 15.0 : 2.0) + rng.normal(0, 0.5);
    }
    for (std::size_t i = 0; i < n; ++i) {
      b[(i + shift) % n] = a[i] + rng.normal(0, trial % 4 == 0 ? 5.0 : 0.3);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best_correlation(a, b)),
              std::bit_cast<std::uint64_t>(reference::best_correlation(a, b)))
        << trial;
  }
}

class FidelityTest : public ::testing::Test {
 protected:
  FidelityTest() : env_(testutil::small_topology()) {
    task_ = testutil::run_task_to_running(env_, 4);
    workload::ParallelismConfig par;
    par.tp = 8;
    par.pp = 2;
    par.dp = 2;
    layout_ = testutil::layout_of(env_, task_, par);
  }

  std::vector<EndpointPair> true_skeleton() const {
    const auto tm = workload::build_traffic_matrix(layout_);
    std::vector<EndpointPair> out;
    for (const auto& e : tm.edges()) out.push_back(EndpointPair{e.a, e.b});
    return out;
  }

  SimEnv env_;
  TaskId task_;
  workload::TaskLayout layout_;
};

TEST_F(FidelityTest, TrueSkeletonOnRealTrafficIsAcceptable) {
  const auto obs = testutil::observations_for(env_, layout_);
  const auto rep = validate_skeleton(true_skeleton(), obs);
  EXPECT_GT(rep.pair_alignment, 0.8);
  EXPECT_GT(rep.active_coverage, 0.95);
  EXPECT_GT(rep.active_fraction, 0.9);
  EXPECT_TRUE(rep.acceptable());
}

TEST_F(FidelityTest, IdleWorkloadIsRejected) {
  // §7.3: a debug cluster without training traffic must not be trusted.
  workload::BurstConfig idle;
  idle.idle = true;
  const auto obs = testutil::observations_for(env_, layout_, idle);
  const auto rep = validate_skeleton(true_skeleton(), obs);
  EXPECT_LT(rep.active_fraction, 0.25);
  EXPECT_FALSE(rep.acceptable());
}

TEST_F(FidelityTest, EmptySkeletonOnActiveTrafficIsRejected) {
  const auto obs = testutil::observations_for(env_, layout_);
  const auto rep = validate_skeleton({}, obs);
  EXPECT_DOUBLE_EQ(rep.active_coverage, 0.0);
  EXPECT_FALSE(rep.acceptable());
}

TEST_F(FidelityTest, WrongPairingScoresLowAlignment) {
  // Pair endpoints that do NOT communicate (cross-stage, cross-rail): their
  // series are less correlated than true partners'.
  const auto obs = testutil::observations_for(env_, layout_);
  const auto rep_true = validate_skeleton(true_skeleton(), obs);
  std::vector<EndpointPair> wrong;
  // Pair observation i with observation i+9 (arbitrary mismatches).
  for (std::size_t i = 0; i + 9 < obs.size(); i += 4) {
    wrong.push_back(EndpointPair{obs[i].endpoint, obs[i + 9].endpoint});
  }
  const auto rep_wrong = validate_skeleton(wrong, obs);
  EXPECT_LT(rep_wrong.score, rep_true.score);
}

TEST_F(FidelityTest, EmptyObservationsScoreZero) {
  const auto rep = validate_skeleton(true_skeleton(), {});
  EXPECT_DOUBLE_EQ(rep.score, 0.0);
  EXPECT_FALSE(rep.acceptable());
}

}  // namespace
}  // namespace skh::core
