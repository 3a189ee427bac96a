#include "core/skeleton_inference.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "../testutil.h"
#include "core/fidelity.h"

namespace skh::core {
namespace {

using testutil::SimEnv;

/// A 32-GPU dense task: TP8 x PP2 x DP2 over 4 full-host containers.
class InferenceTest : public ::testing::Test {
 protected:
  InferenceTest() : env_(testutil::small_topology()) {
    task_ = testutil::run_task_to_running(env_, 4);
    workload::ParallelismConfig par;
    par.tp = 8;
    par.pp = 2;
    par.dp = 2;
    layout_ = testutil::layout_of(env_, task_, par);
  }

  SimEnv env_;
  TaskId task_;
  workload::TaskLayout layout_;
};

TEST_F(InferenceTest, RecoversDpDegree) {
  const auto obs = testutil::observations_for(env_, layout_);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4, 8};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dp, 2u);
  EXPECT_EQ(result->num_groups, 16u);  // TP8 x PP2
}

TEST_F(InferenceTest, PositionGroupsMatchGroundTruth) {
  const auto obs = testutil::observations_for(env_, layout_);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  for (const auto& group : result->position_groups) {
    ASSERT_EQ(group.size(), 2u);
    const auto* r0 = layout_.role_of(obs[group[0]].endpoint);
    const auto* r1 = layout_.role_of(obs[group[1]].endpoint);
    ASSERT_NE(r0, nullptr);
    ASSERT_NE(r1, nullptr);
    EXPECT_EQ(r0->stage, r1->stage);
    EXPECT_EQ(r0->rail, r1->rail);
    EXPECT_NE(r0->dp_rank, r1->dp_rank);
  }
}

TEST_F(InferenceTest, PipelineDepthFromTimeShifts) {
  const auto obs = testutil::observations_for(env_, layout_);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pp, 2u);
  // Stage levels match ground truth ordering: groups holding true stage 0
  // get level 0.
  for (std::size_t g = 0; g < result->position_groups.size(); ++g) {
    const auto* role =
        layout_.role_of(obs[result->position_groups[g][0]].endpoint);
    ASSERT_NE(role, nullptr);
    EXPECT_EQ(result->stage_of_group[g], role->stage);
  }
}

TEST_F(InferenceTest, SkeletonCoversTrueTraffic) {
  const auto obs = testutil::observations_for(env_, layout_);
  const auto tm = workload::build_traffic_matrix(layout_);
  std::vector<EndpointPair> truth;
  for (const auto& e : tm.edges()) truth.push_back(EndpointPair{e.a, e.b});

  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  const auto q = evaluate_skeleton(result->pairs, truth);
  EXPECT_GT(q.coverage, 0.95);
  EXPECT_LT(q.excess, 0.35);
}

TEST_F(InferenceTest, FallsBackOnIdleWorkload) {
  // §7.3: a debug cluster with no training traffic defeats inference.
  workload::BurstConfig bcfg;
  bcfg.idle = true;
  const auto obs = testutil::observations_for(env_, layout_, bcfg);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto result = infer_skeleton(obs, cfg);
  // Either infeasible (nullopt) or clearly low-quality; idle traffic has no
  // structure, so a feasible-but-arbitrary grouping must not be trusted by
  // callers. We accept both outcomes but require determinism.
  const auto again = infer_skeleton(obs, cfg);
  EXPECT_EQ(result.has_value(), again.has_value());
}

TEST_F(InferenceTest, ShortOrEmptySeriesFallBackInsteadOfThrowing) {
  // Features and lags compare series sample by sample: a cut or missing
  // series means keeping the basic list, not an exception.
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto obs = testutil::observations_for(env_, layout_);
  ASSERT_TRUE(infer_skeleton(obs, cfg).has_value());
  auto cut = obs;
  cut[5].throughput.resize(600);
  EXPECT_FALSE(infer_skeleton(cut, cfg).has_value());
  auto empty = obs;
  empty[5].throughput.clear();
  EXPECT_FALSE(infer_skeleton(empty, cfg).has_value());
}

TEST_F(InferenceTest, TooFewEndpointsInfeasible) {
  std::vector<EndpointObservation> obs;
  EXPECT_FALSE(infer_skeleton(obs, {}).has_value());
  obs.resize(3);
  EXPECT_FALSE(infer_skeleton(obs, {}).has_value());
}

TEST(Inference, LargerTaskDeeperPipeline) {
  // TP4 x PP4 x DP4: 16 containers of 4 GPUs on 8 hosts.
  SimEnv env(testutil::small_topology(8, 8));
  const auto task = testutil::run_task_to_running(env, 16, 4);
  workload::ParallelismConfig par;
  par.tp = 4;
  par.pp = 4;
  par.dp = 4;
  const auto layout = testutil::layout_of(env, task, par);
  const auto obs = testutil::observations_for(env, layout);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4, 8};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dp, 4u);
  EXPECT_EQ(result->pp, 4u);
}

TEST(Inference, MoeTaskStillClusters) {
  // §5.1: "the latest new models may introduce extra parallelism strategies
  // (e.g., EP), but can be classified using the same method."
  SimEnv env(testutil::small_topology(8, 8));
  const auto task = testutil::run_task_to_running(env, 8, 8);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 4;
  par.moe = true;
  par.ep = 2;
  const auto layout = testutil::layout_of(env, task, par);
  const auto obs = testutil::observations_for(env, layout);
  InferenceConfig cfg;
  cfg.candidate_dp = {2, 4};
  const auto result = infer_skeleton(obs, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dp, 4u);
}

/// One inference input for the fingerprint below: a task shape, its
/// parallelism, its burst traffic and the DP degrees inference may pick.
struct FingerprintLayout {
  const char* name;
  topo::TopologyConfig topology;
  std::uint32_t containers;
  workload::ParallelismConfig par;
  bool idle;
  std::vector<std::uint32_t> candidate_dp;
};

/// FNV-1a over the bits of everything inference and the fidelity gate
/// compute for one layout: every endpoint's STFT feature, the groups, stage
/// levels, dp/pp, skeleton pairs, and the fidelity reports of the inferred
/// skeleton and of the true one.
std::uint64_t inference_fingerprint(const FingerprintLayout& l) {
  SimEnv env(l.topology);
  const auto task = testutil::run_task_to_running(env, l.containers);
  const auto layout = testutil::layout_of(env, task, l.par);
  workload::BurstConfig bcfg;
  bcfg.idle = l.idle;
  const auto obs = testutil::observations_for(env, layout, bcfg);
  InferenceConfig cfg;
  cfg.candidate_dp = l.candidate_dp;

  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  };
  const auto fold_report = [&](const FidelityReport& r) {
    fold(std::bit_cast<std::uint64_t>(r.pair_alignment));
    fold(std::bit_cast<std::uint64_t>(r.active_coverage));
    fold(std::bit_cast<std::uint64_t>(r.active_fraction));
    fold(std::bit_cast<std::uint64_t>(r.score));
  };
  for (const auto& o : obs) {
    for (double v : dsp::stft_feature(o.throughput, kInferenceStft)) {
      fold(std::bit_cast<std::uint64_t>(v));
    }
  }
  const auto inferred = infer_skeleton(obs, cfg);
  fold(inferred.has_value() ? 1 : 0);
  if (inferred) {
    fold(inferred->dp);
    fold(inferred->num_groups);
    fold(inferred->pp);
    for (const auto& group : inferred->position_groups) {
      fold(group.size());
      for (std::size_t i : group) fold(i);
    }
    for (std::uint32_t stage : inferred->stage_of_group) fold(stage);
    for (const auto& p : inferred->pairs) {
      fold(p.src.container.value());
      fold(p.src.rnic.value());
      fold(p.dst.container.value());
      fold(p.dst.rnic.value());
    }
    fold_report(validate_skeleton(inferred->pairs, obs));
  }
  const auto tm = workload::build_traffic_matrix(layout);
  std::vector<EndpointPair> truth;
  for (const auto& e : tm.edges()) truth.push_back(EndpointPair{e.a, e.b});
  fold_report(validate_skeleton(truth, obs));
  return h;
}

TEST(InferenceFingerprint, MatchesTheRecordedInference) {
  // Recorded before clustering cached its linkages, the FFT its twiddles
  // and cross-correlation its spectra; any drift in a feature, a merge
  // order, a lag or a correlation changes these.
  workload::ParallelismConfig churn_spray;  // pipebench's churn_spray tasks
  churn_spray.tp = 8;
  churn_spray.pp = 4;
  churn_spray.dp = 4;
  topo::TopologyConfig churn_fabric = testutil::small_topology(128, 8);
  churn_fabric.hosts_per_segment = 4;
  churn_fabric.spines_per_rail = 8;
  workload::ParallelismConfig moe;
  moe.tp = 8;
  moe.pp = 2;
  moe.dp = 4;
  moe.moe = true;
  moe.ep = 2;
  workload::ParallelismConfig wide;
  wide.tp = 8;
  wide.pp = 4;
  wide.dp = 8;
  workload::ParallelismConfig small;
  small.tp = 8;
  small.pp = 2;
  small.dp = 2;
  const struct {
    FingerprintLayout layout;
    std::uint64_t fingerprint;
  } expected[] = {
      {{"churn_spray 16x8", churn_fabric, 16, churn_spray, false, {2, 4}},
       0xe6ae691816ec83c2ull},
      {{"moe 8x8", testutil::small_topology(8, 8), 8, moe, false, {2, 4}},
       0x83ccb16cb75b7c8dull},
      {{"wide 32x8", testutil::small_topology(32, 8), 32, wide, false,
        {4, 8, 16}},
       0x30d830a3bb0b01f0ull},
      {{"idle 4x8", testutil::small_topology(), 4, small, true, {2, 4}},
       0x0b1e062732e38aadull},
  };
  for (const auto& e : expected) {
    const std::uint64_t got = inference_fingerprint(e.layout);
    EXPECT_EQ(got, e.fingerprint)
        << e.layout.name << std::hex << " got 0x" << got;
  }
}

TEST(MergeLagLevels, AnchorsEachLevelAtItsFirstLag) {
  // Regression guard against transitive chaining: every adjacent step in
  // {0, 2, 4, 6} is within the tolerance (2), but the chain spans 6 — an
  // implementation comparing against the *previous* lag would collapse all
  // four into one level and undercount PP depth. Anchored merging yields
  // two levels: {0, 2} and {4, 6}.
  const auto levels = merge_lag_levels({0, 2, 4, 6}, 2);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 4);
}

TEST(MergeLagLevels, SortsInputAndHandlesExactTolerance) {
  // Unsorted input; a lag exactly `tolerance` from the anchor joins it.
  const auto levels = merge_lag_levels({10, 0, 12, 2}, 2);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 10);
  EXPECT_TRUE(merge_lag_levels({}, 2).empty());
  EXPECT_EQ(merge_lag_levels({5}, 0), (std::vector<int>{5}));
}

TEST(MergeLagLevels, ZeroToleranceSeparatesEveryDistinctLag) {
  const auto levels = merge_lag_levels({3, 1, 1, 2}, 0);
  EXPECT_EQ(levels, (std::vector<int>{1, 2, 3}));
}

TEST(MedianLag, EvenSizedGroupsTakeLowerMedian) {
  // Regression: the upper middle element biased stage assignment toward
  // later stages for even-sized groups at the tolerance boundary.
  EXPECT_EQ(median_lag({0, 4}), 0);
  EXPECT_EQ(median_lag({0, 2, 4, 6}), 2);
  EXPECT_EQ(median_lag({4, 0}), 0);  // sorts internally
}

TEST(MedianLag, OddSizedGroupsTakeTrueMiddle) {
  EXPECT_EQ(median_lag({3}), 3);
  EXPECT_EQ(median_lag({5, 1, 3}), 3);
  EXPECT_EQ(median_lag({-4, -2, 0, 2, 4}), 0);
}

TEST(EvaluateSkeleton, CoverageAndExcess) {
  const Endpoint a{ContainerId{0}, RnicId{0}};
  const Endpoint b{ContainerId{1}, RnicId{8}};
  const Endpoint c{ContainerId{2}, RnicId{16}};
  const std::vector<EndpointPair> truth{{a, b}, {b, c}};
  const std::vector<EndpointPair> inferred{{b, a}, {a, c}};  // 1 hit, 1 miss
  const auto q = evaluate_skeleton(inferred, truth);
  EXPECT_DOUBLE_EQ(q.coverage, 0.5);
  EXPECT_DOUBLE_EQ(q.excess, 0.5);
  EXPECT_EQ(q.inferred_pairs, 2u);
  EXPECT_EQ(q.true_pairs, 2u);
}

TEST(EvaluateSkeleton, EmptySets) {
  const auto q = evaluate_skeleton({}, {});
  EXPECT_DOUBLE_EQ(q.coverage, 1.0);
  EXPECT_DOUBLE_EQ(q.excess, 0.0);
}

}  // namespace
}  // namespace skh::core
