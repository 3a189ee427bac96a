// Tests of the benchmark's own helpers: order statistics on known vectors,
// tick classification and summaries, and the replay generator's purity.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_stats.h"
#include "replay_gen.h"

namespace pb {
namespace {

TEST(Percentile, InterpolatesLinearlyBetweenSortedNeighbours) {
  const std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 3.7);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({10, 0, 5}, 75), 7.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

// Expected values are Python's statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto check = [](std::vector<double> v, double q1, double q2,
                        double q3) {
    const Quartiles q = quartiles(std::move(v));
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
  };
  check({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
  check({1, 2}, 0.75, 1.5, 2.25);
  check({3, 1, 2}, 1.0, 2.0, 3.0);
  check({5, 1, 4, 2, 3, 9, 7}, 2.0, 4.0, 7.0);
  check({2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5);
}

TEST(TickClassification, ClosingOnlyWhenShortWindowsClosed) {
  EXPECT_EQ(classify_tick(10, 10), TickKind::kPlain);
  EXPECT_EQ(classify_tick(10, 11), TickKind::kClosing);
  EXPECT_EQ(classify_tick(0, 96768), TickKind::kClosing);
}

TEST(TickSummary, SplitsPlainAndClosingAndTakesMedianBlockRate) {
  std::vector<TickSample> ticks;
  // Five plain ticks of 10 ms and one closing tick of 40 ms, twice over;
  // every tick ingests 100 probes in 0.05 s of block time except one
  // disturbed tick that takes 1 s.
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < 6; ++i) {
      TickSample s;
      s.kind = i == 5 ? TickKind::kClosing : TickKind::kPlain;
      s.ms = i == 5 ? 40.0 : 10.0;
      s.wall_s = 0.05;
      s.probes = 100;
      ticks.push_back(s);
    }
  }
  ticks[0].wall_s = 1.0;
  const TickSummary s = summarize_ticks(ticks, 3);
  EXPECT_EQ(s.ticks, 12u);
  EXPECT_EQ(s.closing, 2u);
  EXPECT_DOUBLE_EQ(s.close_ms_p50, 40.0);
  EXPECT_DOUBLE_EQ(s.tick_ms_p50, 10.0);
  // Four blocks of three ticks: one disturbed (300 / 1.1), three at 2000/s.
  EXPECT_DOUBLE_EQ(s.probes_per_s, 2000.0);
}

TEST(TickSummary, LastPartialBlockFoldsIntoItsPredecessor) {
  std::vector<TickSample> ticks(5);
  for (auto& t : ticks) {
    t.wall_s = 1.0;
    t.probes = 10;
  }
  ticks[4].probes = 40;  // lands in the second (and last) block
  const TickSummary s = summarize_ticks(ticks, 2);
  // Blocks: {0,1} -> 10/s, {2,3,4} -> 60/3 = 20/s; median of two = 15.
  EXPECT_DOUBLE_EQ(s.probes_per_s, 15.0);
}

TEST(FastestPerTick, TakesEachTicksFastestRepetition) {
  const auto tick = [](double ms, double wall_s, std::uint64_t probes,
                       TickKind kind) {
    TickSample s;
    s.ms = ms;
    s.wall_s = wall_s;
    s.probes = probes;
    s.kind = kind;
    return s;
  };
  const std::vector<std::vector<TickSample>> reps{
      {tick(10, 0.2, 5, TickKind::kPlain), tick(30, 0.5, 7, TickKind::kClosing)},
      {tick(12, 0.1, 5, TickKind::kPlain), tick(20, 0.6, 7, TickKind::kClosing)},
      {tick(11, 0.3, 5, TickKind::kPlain), tick(25, 0.4, 7, TickKind::kClosing)}};
  std::vector<TickSample> out;
  ASSERT_TRUE(fastest_per_tick(reps, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].ms, 10.0);
  EXPECT_DOUBLE_EQ(out[0].wall_s, 0.1);
  EXPECT_EQ(out[0].probes, 5u);
  EXPECT_DOUBLE_EQ(out[1].ms, 20.0);
  EXPECT_DOUBLE_EQ(out[1].wall_s, 0.4);
  EXPECT_EQ(out[1].kind, TickKind::kClosing);
}

TEST(FastestPerTick, RefusesRepetitionsThatDidDifferentWork) {
  TickSample a;
  a.probes = 5;
  TickSample b = a;
  b.probes = 6;
  std::vector<TickSample> out{a};
  EXPECT_FALSE(fastest_per_tick({{a}, {b}}, out));
  EXPECT_TRUE(out.empty());
  TickSample c = a;
  c.kind = TickKind::kClosing;
  EXPECT_FALSE(fastest_per_tick({{a}, {c}}, out));
  EXPECT_FALSE(fastest_per_tick({{a}, {a, a}}, out));
  EXPECT_FALSE(fastest_per_tick({}, out));
}

TEST(Repetitions, AtLeastTheMinimumThenOnlyWhatFitsTheBudget) {
  // The minimum runs whatever the clock says.
  EXPECT_TRUE(another_repetition(0, 3, 0.0, 0.0, 50.0));
  EXPECT_TRUE(another_repetition(2, 3, 90.0, 30.0, 50.0));
  // Past it, one more only when it would end within the budget.
  EXPECT_TRUE(another_repetition(3, 3, 40.0, 10.0, 50.0));
  EXPECT_FALSE(another_repetition(3, 3, 40.5, 10.0, 50.0));
  EXPECT_FALSE(another_repetition(1, 1, 0.5, 0.5, 0.0));
}

TEST(ReplayGenerator, IsAPureFunctionOfSeedPairAndRound) {
  const ReplaySample a = replay_sample(7, 123, 45, 14.0);
  // Interleave other draws: no hidden state may leak between calls.
  (void)replay_sample(7, 124, 45, 14.0);
  (void)replay_sample(8, 123, 46, 20.0);
  const ReplaySample b = replay_sample(7, 123, 45, 14.0);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.rtt_us, b.rtt_us);
}

TEST(ReplayGenerator, SameSeedSameRoundsOtherSeedOtherRounds) {
  const auto round = [](std::uint64_t seed, std::uint64_t r) {
    std::vector<double> out;
    for (std::uint32_t pair = 0; pair < 256; ++pair) {
      out.push_back(replay_sample(seed, pair, r, 14.0).rtt_us);
    }
    return out;
  };
  EXPECT_EQ(round(1, 3), round(1, 3));
  EXPECT_NE(round(1, 3), round(2, 3));
  EXPECT_NE(round(1, 3), round(1, 4));
  // Every pair of one round differs from its neighbour in the other seed.
  const auto a = round(1, 3);
  const auto b = round(2, 3);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i] ? 1 : 0;
  EXPECT_EQ(same, 0u);
}

TEST(ReplayGenerator, HealthyJitterIsLogNormalAroundTheBaseline) {
  std::vector<double> logs;
  for (std::uint32_t pair = 0; pair < 20000; ++pair) {
    const ReplaySample s = replay_sample(11, pair, 0, 14.0);
    ASSERT_TRUE(s.delivered);
    logs.push_back(std::log(s.rtt_us / 14.0));
  }
  double mean = 0.0, var = 0.0;
  for (double x : logs) mean += x;
  mean /= static_cast<double>(logs.size());
  for (double x : logs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(logs.size() - 1);
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(std::sqrt(var), kReplayJitterSigma, 0.002);
}

TEST(ReplayGenerator, EpisodeEffectsApply) {
  ReplayEffect down;
  down.unreachable = true;
  EXPECT_FALSE(replay_sample(3, 9, 9, 14.0, down).delivered);

  ReplayEffect lossy;
  lossy.loss_probability = 0.25;
  std::size_t lost = 0;
  for (std::uint32_t pair = 0; pair < 8000; ++pair) {
    lost += replay_sample(3, pair, 9, 14.0, lossy).delivered ? 0 : 1;
  }
  EXPECT_NEAR(static_cast<double>(lost) / 8000.0, 0.25, 0.02);

  ReplayEffect slow;
  slow.extra_latency_us = 104.0;
  const ReplaySample base = replay_sample(3, 9, 9, 14.0);
  const ReplaySample hit = replay_sample(3, 9, 9, 14.0, slow);
  EXPECT_DOUBLE_EQ(hit.rtt_us / base.rtt_us, (14.0 + 104.0) / 14.0);
}

}  // namespace
}  // namespace pb
