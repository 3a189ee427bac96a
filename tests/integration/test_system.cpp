// End-to-end tests of the full SkeletonHunter loop: orchestrated tasks,
// registration-gated probing, runtime skeleton optimization, anomaly
// detection, Algorithm-1 localization, and campaign scoring.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/metrics.h"
#include "core/skeleton_hunter.h"

namespace skh::core {
namespace {

using testutil::SimEnv;

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : env_(testutil::small_topology()) {}

  /// Launch a task, monitor it, run to Running, apply the inferred
  /// skeleton, and return the task id.
  TaskId launch_monitored(SkeletonHunter& hunter, std::uint32_t containers,
                          std::uint32_t gpus = 8) {
    cluster::TaskRequest req;
    req.num_containers = containers;
    req.gpus_per_container = gpus;
    req.lifetime = SimTime::hours(12);
    const auto task = env_.orch.submit_task(req);
    EXPECT_TRUE(task.has_value());
    hunter.monitor_task(*task);
    env_.events.run_until(env_.events.now() + SimTime::minutes(12));
    return *task;
  }

  void apply_skeleton(SkeletonHunter& hunter, TaskId task,
                      const workload::ParallelismConfig& par) {
    const auto layout = testutil::layout_of(env_, task, par);
    const auto obs = testutil::observations_for(env_, layout);
    InferenceConfig icfg;
    icfg.candidate_dp = {2, 4, 8};
    SkeletonHunterConfig dummy;  // only to reuse inference defaults
    (void)dummy;
    const auto inferred = hunter.supply_observations(task, obs);
    EXPECT_TRUE(inferred.has_value());
  }

  SkeletonHunterConfig fast_config() {
    SkeletonHunterConfig cfg;
    cfg.inference.candidate_dp = {2, 4, 8};
    return cfg;
  }

  SimEnv env_;
};

TEST_F(SystemTest, HealthyCampaignHasNoFalsePositives) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{1}, fast_config());
  const auto task = launch_monitored(hunter, 4);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  apply_skeleton(hunter, task, par);
  hunter.start(env_.events.now() + SimTime::minutes(40));
  env_.events.run_all();
  hunter.finalize();
  EXPECT_TRUE(hunter.failure_cases().empty());
  EXPECT_GT(hunter.total_probes(), 0u);
}

TEST_F(SystemTest, ShortSeriesKeepTheBasicList) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{1}, fast_config());
  const auto task = launch_monitored(hunter, 4);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  auto obs = testutil::observations_for(env_, testutil::layout_of(env_, task, par));
  obs[5].throughput.resize(600);
  const std::size_t basic = hunter.current_targets(task);
  EXPECT_FALSE(hunter.supply_observations(task, obs).has_value());
  EXPECT_EQ(hunter.current_targets(task), basic);
}

TEST_F(SystemTest, PhasedStartupRaisesNoAlarmsWithActivationGating) {
  // The §5.1 initialization claim: registration-based activation prevents
  // false positives while containers come up at different times. Probing
  // starts immediately, well before the stragglers are Running.
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{2}, fast_config());
  cluster::TaskRequest req;
  req.num_containers = 8;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(12);
  const auto task = env_.orch.submit_task(req);
  ASSERT_TRUE(task.has_value());
  hunter.monitor_task(*task);
  hunter.start(env_.events.now() + SimTime::minutes(30));
  env_.events.run_all();
  hunter.finalize();
  EXPECT_TRUE(hunter.failure_cases().empty());
}

TEST_F(SystemTest, AblationNaiveActivationRaisesStartupFalseAlarms) {
  SkeletonHunterConfig cfg = fast_config();
  cfg.incremental_activation = false;
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{3}, cfg);
  cluster::TaskRequest req;
  req.num_containers = 8;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(12);
  const auto task = env_.orch.submit_task(req);
  ASSERT_TRUE(task.has_value());
  hunter.monitor_task(*task);
  hunter.start(env_.events.now() + SimTime::minutes(30));
  env_.events.run_all();
  hunter.finalize();
  // Probes raced container startup: false cases appear.
  EXPECT_FALSE(hunter.failure_cases().empty());
  const auto score = score_campaign(hunter.failure_cases(), env_.faults,
                                    env_.topo);
  EXPECT_LT(score.precision(), 1.0);
}

TEST_F(SystemTest, SkeletonOptimizationShrinksTargets) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{4}, fast_config());
  const auto task = launch_monitored(hunter, 8);
  const auto before = hunter.current_targets(task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 4;
  par.dp = 2;
  apply_skeleton(hunter, task, par);
  const auto after = hunter.current_targets(task);
  EXPECT_LT(after, before / 2);
  EXPECT_GT(after, 0u);
}

TEST_F(SystemTest, RnicDownDetectedAndLocalized) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{5}, fast_config());
  const auto task = launch_monitored(hunter, 4);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  apply_skeleton(hunter, task, par);

  const auto victim = env_.orch.endpoints_of_task(task)[0];
  const SimTime t0 = env_.events.now() + SimTime::minutes(2);
  env_.faults.inject(sim::IssueType::kRnicPortDown,
                     {sim::ComponentKind::kRnic, victim.rnic.value()},
                     t0, t0 + SimTime::minutes(10));
  hunter.start(env_.events.now() + SimTime::minutes(30));
  env_.events.run_all();
  hunter.finalize();

  const auto score = score_campaign(hunter.failure_cases(), env_.faults,
                                    env_.topo);
  EXPECT_EQ(score.detected_true, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.localization_accuracy(), 1.0);
  // Detection latency: a handful of probe intervals, far below the 30 s
  // training-iteration bound the paper cares about (8 s in production).
  EXPECT_LT(score.mean_detection_latency_s, 30.0);
}

TEST_F(SystemTest, Figure18FlowTableInconsistencyEndToEnd) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{6}, fast_config());
  const auto task = launch_monitored(hunter, 4);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  apply_skeleton(hunter, task, par);

  // Warm up healthy baselines, then desynchronize one RNIC's offload table.
  hunter.start(env_.events.now() + SimTime::minutes(40));
  const auto victim = env_.orch.endpoints_of_task(task)[2];
  const SimTime onset = env_.events.now() + SimTime::minutes(10);
  env_.events.schedule_at(onset, [&] {
    env_.overlay.invalidate_offload(victim.rnic);
  });
  // Register the ground truth for scoring (the slow path is a vswitch/RNIC
  // interaction; Table 1 #15).
  env_.faults.inject(sim::IssueType::kRepetitiveFlowOffloading,
                     {sim::ComponentKind::kRnic, victim.rnic.value()}, onset,
                     onset + SimTime::minutes(25),
                     sim::FaultEffect{});  // overlay carries the effect
  env_.events.run_all();
  hunter.finalize();

  ASSERT_FALSE(hunter.failure_cases().empty());
  bool rnic_blamed = false;
  for (const auto& c : hunter.failure_cases()) {
    for (const auto& culprit : c.localization.culprits) {
      if (culprit.kind == sim::ComponentKind::kRnic &&
          culprit.index == victim.rnic.value()) {
        rnic_blamed = true;
      }
    }
  }
  EXPECT_TRUE(rnic_blamed);
}

TEST_F(SystemTest, ContainerCrashDetectedBeforeControlPlane) {
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{7}, fast_config());
  const auto task = launch_monitored(hunter, 4);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  apply_skeleton(hunter, task, par);

  const auto victim_container = env_.orch.task(task).containers[1];
  const SimTime t0 = env_.events.now() + SimTime::minutes(2);
  env_.events.schedule_at(t0, [&] {
    env_.orch.crash_container(victim_container);
  });
  env_.faults.inject(sim::IssueType::kContainerCrash,
                     {sim::ComponentKind::kContainer,
                      victim_container.value()},
                     t0, t0 + SimTime::minutes(5), sim::FaultEffect{});
  hunter.start(env_.events.now() + SimTime::minutes(20));
  env_.events.run_all();
  hunter.finalize();

  ASSERT_FALSE(hunter.failure_cases().empty());
  bool container_blamed = false;
  for (const auto& c : hunter.failure_cases()) {
    for (const auto& culprit : c.localization.culprits) {
      if (culprit.kind == sim::ComponentKind::kContainer &&
          culprit.index == victim_container.value()) {
        container_blamed = true;
      }
    }
  }
  EXPECT_TRUE(container_blamed);
}

TEST_F(SystemTest, TaskTeardownRaisesNoAlarms) {
  SkeletonHunterConfig cfg = fast_config();
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{8}, cfg);
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::minutes(20);  // dies mid-campaign
  const auto task = env_.orch.submit_task(req);
  ASSERT_TRUE(task.has_value());
  hunter.monitor_task(*task);
  hunter.start(env_.events.now() + SimTime::minutes(45));
  env_.events.run_all();
  hunter.finalize();
  EXPECT_TRUE(hunter.failure_cases().empty());
}

TEST_F(SystemTest, TwoConcurrentTasksIsolated) {
  // A fault in task A must not generate cases attributed to task B's pairs.
  SkeletonHunter hunter(env_.topo, env_.overlay, env_.orch, env_.events,
                        env_.faults, RngStream{9}, fast_config());
  const auto task_a = launch_monitored(hunter, 4);
  const auto task_b = launch_monitored(hunter, 4);
  (void)task_b;
  const auto victim = env_.orch.endpoints_of_task(task_a)[0];
  const SimTime t0 = env_.events.now() + SimTime::minutes(1);
  env_.faults.inject(sim::IssueType::kRnicPortDown,
                     {sim::ComponentKind::kRnic, victim.rnic.value()}, t0,
                     t0 + SimTime::minutes(8));
  hunter.start(env_.events.now() + SimTime::minutes(25));
  env_.events.run_all();
  hunter.finalize();

  ASSERT_FALSE(hunter.failure_cases().empty());
  for (const auto& c : hunter.failure_cases()) {
    EXPECT_EQ(c.task, task_a);
  }
}

TEST_F(SystemTest, DeterministicAcrossRuns) {
  auto run_once = [&](std::uint64_t seed) {
    SimEnv env(testutil::small_topology());
    SkeletonHunter hunter(env.topo, env.overlay, env.orch, env.events,
                          env.faults, RngStream{seed}, fast_config());
    cluster::TaskRequest req;
    req.num_containers = 4;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(2);
    const auto task = env.orch.submit_task(req);
    hunter.monitor_task(*task);
    env.events.run_until(SimTime::minutes(12));
    const auto victim = env.orch.endpoints_of_task(*task)[0];
    env.faults.inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      SimTime::minutes(14), SimTime::minutes(20));
    hunter.start(SimTime::minutes(30));
    env.events.run_all();
    hunter.finalize();
    return hunter.failure_cases().size();
  };
  EXPECT_EQ(run_once(123), run_once(123));
}

/// Parameterized end-to-end sweep over representative issue types: the
/// injected component class changes, the pipeline (probe -> detect ->
/// localize -> score) must land a correct verdict every time.
class IssueSweep : public ::testing::TestWithParam<sim::IssueType> {};

TEST_P(IssueSweep, DetectedAndLocalizedEndToEnd) {
  SimEnv env(testutil::small_topology());
  SkeletonHunterConfig cfg;
  cfg.inference.candidate_dp = {2, 4};
  SkeletonHunter hunter(env.topo, env.overlay, env.orch, env.events,
                        env.faults, RngStream{77}, cfg);
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(12);
  const auto task = env.orch.submit_task(req);
  ASSERT_TRUE(task.has_value());
  hunter.monitor_task(*task);
  env.events.run_until(env.events.now() + SimTime::minutes(12));
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  const auto layout = testutil::layout_of(env, *task, par);
  (void)hunter.supply_observations(*task,
                                   testutil::observations_for(env, layout));

  const auto type = GetParam();
  const auto victim = env.orch.endpoints_of_task(*task)[9];
  const SimTime t0 = env.events.now() + SimTime::minutes(3);
  sim::ComponentRef target;
  switch (sim::issue_info(type).target_kind) {
    case sim::ComponentKind::kPhysicalLink:
      target = {sim::ComponentKind::kPhysicalLink,
                env.topo.uplink_of(victim.rnic).value()};
      break;
    case sim::ComponentKind::kRnic:
      target = {sim::ComponentKind::kRnic, victim.rnic.value()};
      break;
    case sim::ComponentKind::kVSwitch:
      target = {sim::ComponentKind::kVSwitch,
                env.topo.host_of(victim.rnic).value()};
      break;
    default:
      target = {sim::ComponentKind::kHost,
                env.topo.host_of(victim.rnic).value()};
      break;
  }
  env.faults.inject(type, target, t0, t0 + SimTime::minutes(8));
  hunter.start(env.events.now() + SimTime::minutes(20));
  env.events.run_all();
  hunter.finalize();

  const auto score = score_campaign(hunter.failure_cases(), env.faults,
                                    env.topo);
  EXPECT_EQ(score.detected_true, 1u) << sim::to_string(type);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0) << sim::to_string(type);
  EXPECT_DOUBLE_EQ(score.localization_accuracy(), 1.0)
      << sim::to_string(type);
}

INSTANTIATE_TEST_SUITE_P(
    IssueTypes, IssueSweep,
    ::testing::Values(sim::IssueType::kCrcError,
                      sim::IssueType::kSwitchPortDown,
                      sim::IssueType::kRnicPortDown,
                      sim::IssueType::kRnicFirmwareNotResponding,
                      sim::IssueType::kGidChange,
                      sim::IssueType::kNotUsingRdma,
                      sim::IssueType::kHugepageMisconfig),
    [](const ::testing::TestParamInfo<sim::IssueType>& info) {
      std::string name{sim::to_string(info.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace skh::core
