#include "core/metrics.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace skh::core {
namespace {

using testutil::SimEnv;

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : env_(testutil::small_topology()) {
    task_ = testutil::run_task_to_running(env_, 4);
    endpoints_ = env_.orch.endpoints_of_task(task_);
  }

  FailureCase make_case(const std::vector<EndpointPair>& pairs, double t0,
                        double t1, Localization loc = {}) {
    FailureCase c;
    c.task = task_;
    c.first_event = SimTime::seconds(t0);
    c.last_event = SimTime::seconds(t1);
    c.pairs.insert(pairs.begin(), pairs.end());
    c.localization = std::move(loc);
    c.closed = true;
    return c;
  }

  SimEnv env_;
  TaskId task_;
  std::vector<Endpoint> endpoints_;
};

TEST_F(MetricsTest, FaultAffectsPairByComponentKind) {
  const EndpointPair p{endpoints_[0], endpoints_[8]};
  sim::Fault f;
  f.target = {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()};
  EXPECT_TRUE(fault_affects_pair(f, p, env_.topo));
  f.target = {sim::ComponentKind::kRnic, endpoints_[1].rnic.value()};
  EXPECT_FALSE(fault_affects_pair(f, p, env_.topo));
  f.target = {sim::ComponentKind::kHost,
              env_.topo.host_of(endpoints_[8].rnic).value()};
  EXPECT_TRUE(fault_affects_pair(f, p, env_.topo));
  f.target = {sim::ComponentKind::kPhysicalLink,
              env_.topo.uplink_of(endpoints_[0].rnic).value()};
  EXPECT_TRUE(fault_affects_pair(f, p, env_.topo));
  f.target = {sim::ComponentKind::kContainer,
              endpoints_[8].container.value()};
  EXPECT_TRUE(fault_affects_pair(f, p, env_.topo));
}

TEST_F(MetricsTest, TruePositiveScoresFull) {
  const auto fid = env_.faults.inject(
      sim::IssueType::kRnicPortDown,
      {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()},
      SimTime::seconds(100), SimTime::seconds(500));
  (void)fid;
  Localization loc;
  loc.method = LocalizationMethod::kEndpointPattern;
  loc.culprits.push_back(
      {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()});
  const std::vector<FailureCase> cases{
      make_case({{endpoints_[0], endpoints_[8]}}, 130, 480, loc)};
  const auto score = score_campaign(cases, env_.faults, env_.topo);
  EXPECT_EQ(score.cases_true, 1u);
  EXPECT_EQ(score.cases_false, 0u);
  EXPECT_EQ(score.detected_true, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
  EXPECT_DOUBLE_EQ(score.localization_accuracy(), 1.0);
  EXPECT_NEAR(score.mean_detection_latency_s, 30.0, 1e-9);
}

TEST_F(MetricsTest, FalsePositiveLowersPrecision) {
  // No faults at all: any case is false.
  const std::vector<FailureCase> cases{
      make_case({{endpoints_[0], endpoints_[8]}}, 10, 20)};
  const auto score = score_campaign(cases, env_.faults, env_.topo);
  EXPECT_EQ(score.cases_false, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 0.0);
}

TEST_F(MetricsTest, MissedFaultLowersRecall) {
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, 0},
                     SimTime::seconds(0), SimTime::seconds(100));
  const auto score = score_campaign({}, env_.faults, env_.topo);
  EXPECT_DOUBLE_EQ(score.recall(), 0.0);
  EXPECT_EQ(score.injected_visible, 1u);
}

TEST_F(MetricsTest, InvisibleFaultsCountAgainstRecallOnly) {
  // §7.3: intra-host faults are inherent false negatives.
  env_.faults.inject(sim::IssueType::kNvlinkDegradation,
                     {sim::ComponentKind::kHost, 0},
                     SimTime::seconds(0), SimTime::seconds(1000));
  const auto score = score_campaign({}, env_.faults, env_.topo);
  EXPECT_EQ(score.injected_invisible, 1u);
  EXPECT_DOUBLE_EQ(score.recall(), 0.0);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);  // no cases, no false alarms
}

TEST_F(MetricsTest, WrongCulpritLowersLocalizationAccuracy) {
  env_.faults.inject(
      sim::IssueType::kRnicPortDown,
      {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()},
      SimTime::seconds(0), SimTime::seconds(1000));
  Localization wrong;
  wrong.method = LocalizationMethod::kPhysicalIntersection;
  wrong.culprits.push_back({sim::ComponentKind::kPhysicalSwitch, 0});
  const std::vector<FailureCase> cases{
      make_case({{endpoints_[0], endpoints_[8]}}, 10, 500, wrong)};
  const auto score = score_campaign(cases, env_.faults, env_.topo);
  EXPECT_EQ(score.localized_total, 1u);
  EXPECT_EQ(score.localized_correct, 0u);
  EXPECT_DOUBLE_EQ(score.localization_accuracy(), 0.0);
}

TEST_F(MetricsTest, UplinkRnicAliasingCountsAsCorrect) {
  // Blaming the uplink when the RNIC port is down (or vice versa) denotes
  // the same physical port and scores as correct.
  env_.faults.inject(
      sim::IssueType::kRnicPortDown,
      {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()},
      SimTime::seconds(0), SimTime::seconds(1000));
  Localization alias;
  alias.culprits.push_back(
      {sim::ComponentKind::kPhysicalLink,
       env_.topo.uplink_of(endpoints_[0].rnic).value()});
  const std::vector<FailureCase> cases{
      make_case({{endpoints_[0], endpoints_[8]}}, 10, 500, alias)};
  const auto score = score_campaign(cases, env_.faults, env_.topo);
  EXPECT_DOUBLE_EQ(score.localization_accuracy(), 1.0);
}

TEST_F(MetricsTest, TimeWindowGatesMatching) {
  env_.faults.inject(
      sim::IssueType::kRnicPortDown,
      {sim::ComponentKind::kRnic, endpoints_[0].rnic.value()},
      SimTime::hours(5), SimTime::hours(6));
  // Case long before the fault: no match.
  const std::vector<FailureCase> cases{
      make_case({{endpoints_[0], endpoints_[8]}}, 10, 60)};
  const auto score = score_campaign(cases, env_.faults, env_.topo);
  EXPECT_EQ(score.cases_false, 1u);
  EXPECT_EQ(score.detected_true, 0u);
}

TEST_F(MetricsTest, EmptyCampaignIsPerfect) {
  const auto score = score_campaign({}, env_.faults, env_.topo);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
}

TEST(ScoreSummaryTest, AggregatesAcrossRuns) {
  // Two runs: precision 1.0 and 0.5, recall 1.0 and 1.0.
  CampaignScore a;
  a.cases_total = 4;
  a.cases_true = 4;
  a.injected_visible = 4;
  a.detected_true = 4;
  a.mean_detection_latency_s = 10.0;
  CampaignScore b;
  b.cases_total = 4;
  b.cases_true = 2;
  b.cases_false = 2;
  b.injected_visible = 2;
  b.detected_true = 2;
  b.mean_detection_latency_s = 20.0;

  const std::vector<CampaignScore> scores{a, b};
  const ScoreSummary s = summarize_scores(scores);
  EXPECT_EQ(s.runs, 2u);
  EXPECT_DOUBLE_EQ(s.precision.mean, 0.75);
  EXPECT_DOUBLE_EQ(s.recall.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.recall.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.detection_latency_s.mean, 15.0);
  EXPECT_EQ(s.total_cases, 8u);
  EXPECT_EQ(s.total_cases_false, 2u);
  EXPECT_EQ(s.total_detected, 6u);
  // CI shrinks with n and is symmetric around the mean.
  EXPECT_GT(s.precision.ci95_halfwidth(), 0.0);
  EXPECT_DOUBLE_EQ(s.precision.ci95_hi() - s.precision.mean,
                   s.precision.mean - s.precision.ci95_lo());
}

TEST(ScoreSummaryTest, LatencyOnlyCountsRunsWithDetections) {
  CampaignScore detected;
  detected.injected_visible = 1;
  detected.detected_true = 1;
  detected.mean_detection_latency_s = 12.0;
  CampaignScore missed;  // latency 0 would poison the mean
  missed.injected_visible = 1;

  const std::vector<CampaignScore> scores{detected, missed};
  const ScoreSummary s = summarize_scores(scores);
  EXPECT_EQ(s.detection_latency_s.count, 1u);
  EXPECT_DOUBLE_EQ(s.detection_latency_s.mean, 12.0);
}

TEST(DetectorCountersTest, MergeEmptySpanIsAllZero) {
  const DetectorCounters total = merge_counters({});
  EXPECT_EQ(total.probes_ingested, 0u);
  EXPECT_EQ(total.samples_delivered, 0u);
  EXPECT_EQ(total.short_windows_closed, 0u);
  EXPECT_EQ(total.long_windows_closed, 0u);
  EXPECT_EQ(total.lof_fast_path, 0u);
  EXPECT_EQ(total.lof_fallback, 0u);
  EXPECT_EQ(total.lof_kdist_rebuilds, 0u);
  EXPECT_EQ(total.lof_gate_skips, 0u);
  EXPECT_EQ(total.events_emitted, 0u);
}

TEST(DetectorCountersTest, MergeSumsEveryField) {
  DetectorCounters a;
  a.probes_ingested = 10;
  a.samples_delivered = 9;
  a.short_windows_closed = 4;
  a.long_windows_closed = 1;
  a.lof_fast_path = 3;
  a.lof_fallback = 2;
  a.lof_kdist_rebuilds = 1;
  a.lof_gate_skips = 5;
  a.events_emitted = 2;
  DetectorCounters b;
  b.probes_ingested = 100;
  b.samples_delivered = 90;
  b.short_windows_closed = 40;
  b.long_windows_closed = 10;
  b.lof_fast_path = 30;
  b.lof_fallback = 20;
  b.lof_kdist_rebuilds = 10;
  b.lof_gate_skips = 50;
  b.events_emitted = 20;

  const std::vector<DetectorCounters> per_seed{a, b};
  const DetectorCounters total = merge_counters(per_seed);
  EXPECT_EQ(total.probes_ingested, 110u);
  EXPECT_EQ(total.samples_delivered, 99u);
  EXPECT_EQ(total.short_windows_closed, 44u);
  EXPECT_EQ(total.long_windows_closed, 11u);
  EXPECT_EQ(total.lof_fast_path, 33u);
  EXPECT_EQ(total.lof_fallback, 22u);
  EXPECT_EQ(total.lof_kdist_rebuilds, 11u);
  EXPECT_EQ(total.lof_gate_skips, 55u);
  EXPECT_EQ(total.events_emitted, 22u);
}

TEST(ScoreSummaryTest, EmptyAndSingleRunEdgeCases) {
  const ScoreSummary empty = summarize_scores({});
  EXPECT_EQ(empty.runs, 0u);
  EXPECT_DOUBLE_EQ(empty.precision.mean, 0.0);

  CampaignScore only;
  only.cases_total = 2;
  only.cases_true = 2;
  const std::vector<CampaignScore> one{only};
  const ScoreSummary s = summarize_scores(one);
  EXPECT_DOUBLE_EQ(s.precision.mean, 1.0);
  // n = 1: no spread estimate, so the CI collapses to the mean.
  EXPECT_DOUBLE_EQ(s.precision.ci95_halfwidth(), 0.0);
}

}  // namespace
}  // namespace skh::core
