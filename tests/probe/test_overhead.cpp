#include "probe/overhead.h"

#include <gtest/gtest.h>

namespace skh::probe {
namespace {

TEST(Overhead, ConvergesToFigure17SteadyState) {
  const auto steady = agent_overhead(SimTime::hours(2), 30);
  EXPECT_NEAR(steady.cpu_percent, 1.0, 0.3);   // "converges to 1%"
  EXPECT_NEAR(steady.memory_mb, 35.0, 12.0);   // "converges to 35 MB"
}

TEST(Overhead, StartupTransientIsHigher) {
  const auto early = agent_overhead(SimTime::seconds(5), 30);
  const auto late = agent_overhead(SimTime::minutes(30), 30);
  EXPECT_GT(early.cpu_percent, late.cpu_percent * 1.5);
  EXPECT_GT(early.memory_mb, late.memory_mb);
}

TEST(Overhead, MonotoneDecayOverTime) {
  double prev_cpu = 1e9;
  for (double t : {10.0, 60.0, 180.0, 600.0, 3600.0}) {
    const auto s = agent_overhead(SimTime::seconds(t), 20);
    EXPECT_LE(s.cpu_percent, prev_cpu);
    prev_cpu = s.cpu_percent;
  }
}

TEST(Overhead, TargetsScaleWeakly) {
  // Skeleton lists keep targets small; even 10x more targets must not blow
  // the budget (the paper's point: overhead stays ~1% because the matrix
  // is minimized).
  const auto few = agent_overhead(SimTime::hours(1), 10);
  const auto many = agent_overhead(SimTime::hours(1), 100);
  EXPECT_LT(many.cpu_percent - few.cpu_percent, 0.1);
  EXPECT_LT(many.memory_mb - few.memory_mb, 5.0);
}

TEST(Overhead, NegativeElapsedClampsToStart) {
  const auto s = agent_overhead(SimTime::seconds(-5), 10);
  EXPECT_GT(s.cpu_percent, 1.0);  // startup transient
}

TEST(RoundTime, LinearInTargets) {
  EXPECT_DOUBLE_EQ(round_time_seconds(0), 0.0);
  EXPECT_NEAR(round_time_seconds(4032), 560.4, 1.0);  // Fig.16 full mesh @512
  EXPECT_NEAR(round_time_seconds(504), 70.0, 1.0);    // basic list @512
}

TEST(RoundTime, CustomBudget) {
  EXPECT_DOUBLE_EQ(round_time_seconds(1000, 1.0), 1.0);
}

}  // namespace
}  // namespace skh::probe
