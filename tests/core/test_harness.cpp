#include "core/harness.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.h"

namespace skh::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  return cfg;
}

TEST(Experiment, LaunchAndRunToRunning) {
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  ASSERT_TRUE(task.has_value());
  exp.run_to_running(*task);
  for (ContainerId cid : exp.orchestrator().task(*task).containers) {
    EXPECT_EQ(exp.orchestrator().container(cid).state,
              cluster::ContainerState::kRunning);
  }
  // Preload happened: agents hold the basic list.
  EXPECT_GT(exp.hunter().current_targets(*task), 0u);
}

TEST(Experiment, LaunchFailsGracefullyWithoutCapacity) {
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 9;  // 9 > 8 hosts
  req.gpus_per_container = 8;
  EXPECT_FALSE(exp.launch_task(req).has_value());
}

TEST(Experiment, LayoutAndObservationsAreConsistent) {
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  exp.run_to_running(*task);
  const auto layout = exp.layout_of(*task);
  EXPECT_EQ(layout.roles.size(), 32u);
  const auto obs = exp.observations_for(layout);
  EXPECT_EQ(obs.size(), layout.roles.size());
  for (const auto& o : obs) {
    EXPECT_FALSE(o.throughput.empty());
    EXPECT_EQ(o.host,
              exp.topology().host_of(o.endpoint.rnic).value());
    EXPECT_LT(o.rnic_rank, 8u);
  }
}

TEST(Experiment, ApplySkeletonShrinksTargets) {
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 8;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  exp.run_to_running(*task);
  const auto before = exp.hunter().current_targets(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 4;
  par.dp = 2;
  const auto inferred = exp.apply_skeleton(*task, exp.layout_of(*task, par));
  ASSERT_TRUE(inferred.has_value());
  EXPECT_LT(exp.hunter().current_targets(*task), before);
}

TEST(Experiment, IdleWorkloadKeepsBasicList) {
  // Fidelity validation (§7.3) rejects a skeleton inferred from an idle
  // debug cluster; the basic list stays in force.
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  exp.run_to_running(*task);
  const auto before = exp.hunter().current_targets(*task);
  workload::BurstConfig idle;
  idle.idle = true;
  const auto inferred =
      exp.apply_skeleton(*task, exp.layout_of(*task), idle);
  EXPECT_FALSE(inferred.has_value());
  EXPECT_EQ(exp.hunter().current_targets(*task), before);
}

TEST(Experiment, OptOutStopsProbing) {
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  exp.run_to_running(*task);
  EXPECT_GT(exp.hunter().current_targets(*task), 0u);
  exp.hunter().opt_out(*task);
  EXPECT_EQ(exp.hunter().current_targets(*task), 0u);
  exp.hunter().start(exp.events().now() + SimTime::minutes(5));
  exp.events().run_all();
  exp.hunter().finalize();
  EXPECT_EQ(exp.hunter().total_probes(), 0u);
}

TEST(Experiment, AutoBlacklistBlocksReplacement) {
  // §8: once a host's component is localized as faulty, no new task lands
  // on that host until repair.
  ExperimentConfig cfg = small_config();
  cfg.hunter.inference.candidate_dp = {2, 3, 4};
  Experiment exp(cfg);
  cluster::TaskRequest req;
  // Three containers: the faulty host's endpoints recur across two peers,
  // which is what lets the endpoint-pattern step single it out (a
  // two-container task is perfectly symmetric and genuinely ambiguous).
  req.num_containers = 3;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::minutes(20);
  const auto task = exp.launch_task(req);
  ASSERT_TRUE(task.has_value());
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 1;
  par.dp = 3;
  (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

  const auto victim = exp.orchestrator().endpoints_of_task(*task)[0];
  const HostId bad_host = exp.topology().host_of(victim.rnic);
  const SimTime t0 = exp.events().now() + SimTime::minutes(1);
  exp.faults().inject(sim::IssueType::kGidChange,
                      {sim::ComponentKind::kHost, bad_host.value()}, t0,
                      t0 + SimTime::minutes(5));
  exp.hunter().start(exp.events().now() + SimTime::minutes(30));
  exp.events().run_all();
  exp.hunter().finalize();
  ASSERT_FALSE(exp.hunter().failure_cases().empty());
  EXPECT_TRUE(exp.hunter().blacklist().contains(
      {sim::ComponentKind::kHost, bad_host.value()}));

  // The old task is gone; capacity exists — but the bad host is skipped.
  cluster::TaskRequest again;
  again.num_containers = 8;  // needs every host including the bad one
  again.gpus_per_container = 8;
  EXPECT_FALSE(exp.launch_task(again).has_value());
  again.num_containers = 7;  // fits while avoiding the bad host
  const auto second = exp.launch_task(again);
  ASSERT_TRUE(second.has_value());
  for (ContainerId cid : exp.orchestrator().task(*second).containers) {
    EXPECT_NE(exp.orchestrator().container(cid).host, bad_host);
  }

  // Repair lifts the ban.
  exp.hunter().mark_repaired({sim::ComponentKind::kHost, bad_host.value()});
  cluster::TaskRequest third;
  third.num_containers = 1;
  third.gpus_per_container = 8;
  const auto t3 = exp.launch_task(third);
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(exp.orchestrator()
                .container(exp.orchestrator().task(*t3).containers[0])
                .host,
            bad_host);
}

/// Churn-reconciliation fixture: a 4-container task with the runtime
/// skeleton applied, ready to be hit by restarts/migrations/crashes.
class ExperimentChurn : public ::testing::Test {
 protected:
  ExperimentChurn() : exp_(small_config()), task_(launch(exp_)) {
    par_.tp = 8;
    par_.pp = 2;
    par_.dp = 2;
    skeleton_ = exp_.apply_skeleton(task_, exp_.layout_of(task_, par_));
  }

  /// The fixture's task on `exp`: 4 containers x 8 GPUs, run to running.
  static TaskId launch(Experiment& exp) {
    cluster::TaskRequest req;
    req.num_containers = 4;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(2);
    const TaskId task = *exp.launch_task(req);
    exp.run_to_running(task);
    return task;
  }

  ContainerId victim() {
    return exp_.orchestrator().task(task_).containers[0];
  }

  Experiment exp_;
  TaskId task_;
  workload::ParallelismConfig par_;
  std::optional<InferredSkeleton> skeleton_;
};

TEST_F(ExperimentChurn, RestartDegradesAndReinfersAfterFreshThreshold) {
  ASSERT_TRUE(skeleton_.has_value());
  const auto skeleton_targets = exp_.hunter().current_targets(task_);
  EXPECT_FALSE(exp_.hunter().task_degraded(task_));

  exp_.orchestrator().restart_container(victim());
  // Degradation is synchronous with the churn callback: stale skeleton
  // targets are gone before any probe could fire at the restarting victim.
  EXPECT_TRUE(exp_.hunter().task_degraded(task_));

  // Bring the victim back and supply fresh batches: the first only
  // accumulates (re-inference waits for kReinferenceMinSamples = 2 fresh
  // batches per live endpoint), the second re-infers through the fidelity
  // gate and restores the skeleton list.
  exp_.run_to_running(task_);
  const auto layout = exp_.layout_of(task_, par_);
  EXPECT_FALSE(exp_.apply_skeleton(task_, layout).has_value());
  EXPECT_TRUE(exp_.hunter().task_degraded(task_));
  EXPECT_TRUE(exp_.apply_skeleton(task_, layout).has_value());
  EXPECT_FALSE(exp_.hunter().task_degraded(task_));
  EXPECT_EQ(exp_.hunter().current_targets(task_), skeleton_targets);
}

TEST_F(ExperimentChurn, FailedReinferenceRestartsAccumulationEpoch) {
  ASSERT_TRUE(skeleton_.has_value());
  exp_.orchestrator().restart_container(victim());
  exp_.run_to_running(task_);
  const auto layout = exp_.layout_of(task_, par_);

  // Two idle batches reach the threshold, but the re-inference they
  // trigger fails the fidelity gate: the task stays degraded and the
  // accumulation epoch restarts from zero.
  workload::BurstConfig idle;
  idle.idle = true;
  EXPECT_FALSE(exp_.apply_skeleton(task_, layout, idle).has_value());
  EXPECT_FALSE(exp_.apply_skeleton(task_, layout, idle).has_value());
  EXPECT_TRUE(exp_.hunter().task_degraded(task_));

  // One good batch is not enough after the reset...
  EXPECT_FALSE(exp_.apply_skeleton(task_, layout).has_value());
  EXPECT_TRUE(exp_.hunter().task_degraded(task_));
  // ...the second re-infers and clears degraded mode.
  EXPECT_TRUE(exp_.apply_skeleton(task_, layout).has_value());
  EXPECT_FALSE(exp_.hunter().task_degraded(task_));
}

TEST_F(ExperimentChurn, CrashDegradesOnlyAfterNotifyLag) {
  ASSERT_TRUE(skeleton_.has_value());
  exp_.orchestrator().crash_container(victim());
  // The control plane has not learned of the crash yet: the skeleton stays
  // in force and the dead container keeps being probed — that window is
  // exactly how container-runtime faults are detected (§5.1).
  EXPECT_FALSE(exp_.hunter().task_degraded(task_));

  bool degraded_at_lag = false;
  std::size_t targets_at_lag = 0;
  exp_.events().schedule_at(
      exp_.events().now() + cluster::Orchestrator::kCrashNotifyLag +
          SimTime::seconds(1),
      [&] {
        degraded_at_lag = exp_.hunter().task_degraded(task_);
        targets_at_lag = exp_.hunter().current_targets(task_);
      });
  exp_.events().run_all();
  EXPECT_TRUE(degraded_at_lag);
  // The dead container dropped out of the degraded plan; the survivors
  // still probe each other on the basic list.
  EXPECT_GT(targets_at_lag, 0u);
}

TEST_F(ExperimentChurn, MigrationReinfersOverReboundEndpoints) {
  ASSERT_TRUE(skeleton_.has_value());
  const HostId old_host = exp_.orchestrator().container(victim()).host;
  ASSERT_TRUE(exp_.orchestrator().migrate_container(victim()));
  EXPECT_NE(exp_.orchestrator().container(victim()).host, old_host);
  EXPECT_TRUE(exp_.hunter().task_degraded(task_));

  exp_.run_to_running(task_);
  const auto layout = exp_.layout_of(task_, par_);
  EXPECT_FALSE(exp_.apply_skeleton(task_, layout).has_value());
  const auto inferred = exp_.apply_skeleton(task_, layout);
  ASSERT_TRUE(inferred.has_value());
  EXPECT_FALSE(exp_.hunter().task_degraded(task_));
  // The re-inferred skeleton references only live endpoints — i.e. the
  // victim's post-migration RNICs, not the ones the churn invalidated.
  std::set<Endpoint> live;
  for (const auto& ep : exp_.orchestrator().endpoints_of_task(task_)) {
    live.insert(ep);
  }
  for (const auto& p : inferred->pairs) {
    EXPECT_TRUE(live.contains(p.src));
    EXPECT_TRUE(live.contains(p.dst));
  }
}

TEST_F(ExperimentChurn, RestartDuringABlackoutStaysHandledAfterTheRestore) {
  // The controller keeps running while the analyzer is down: a restart it
  // handles during a blackout re-plans the agents onto the basic list, and
  // the warm restart at the blackout's end must not roll its own view of
  // the task back to the skeleton the churn invalidated.
  ExperimentConfig cfg = small_config();
  cfg.hunter.telemetry.faults = {{sim::TelemetryFaultKind::kAnalyzerBlackout,
                                  SimTime::minutes(14), SimTime::minutes(18),
                                  0.0}};
  Experiment exp(cfg);
  const TaskId task = launch(exp);
  const auto layout = exp.layout_of(task, par_);
  ASSERT_TRUE(exp.apply_skeleton(task, layout).has_value());
  const std::size_t skeleton_targets = exp.hunter().current_targets(task);
  const ContainerId restarted = exp.orchestrator().task(task).containers[0];
  ASSERT_LT(exp.events().now(), SimTime::minutes(14));
  exp.events().schedule_at(SimTime::minutes(15), [&] {
    exp.orchestrator().restart_container(restarted);
  });
  exp.hunter().start(SimTime::minutes(20));
  exp.events().run_until(SimTime::minutes(20));
  ASSERT_EQ(exp.hunter().analyzer_restores(), 1u);
  ASSERT_FALSE(exp.hunter().analyzer_in_blackout());

  // Still degraded, still probing the basic list.
  EXPECT_TRUE(exp.hunter().task_degraded(task));
  EXPECT_GT(exp.hunter().current_targets(task), skeleton_targets);
  const auto degraded_gauge = [&exp] {
    for (const auto& g : exp.obs().registry.scrape().gauges) {
      if (g.name == "hunter.degraded_tasks") return g.value;
    }
    return -1.0;
  };
  EXPECT_EQ(degraded_gauge(), 1.0);

  // Re-inference waits for two fresh batches, as without the blackout, and
  // then clears degraded mode everywhere.
  exp.run_to_running(task);
  EXPECT_FALSE(exp.apply_skeleton(task, layout).has_value());
  EXPECT_TRUE(exp.hunter().task_degraded(task));
  EXPECT_TRUE(exp.apply_skeleton(task, layout).has_value());
  EXPECT_FALSE(exp.hunter().task_degraded(task));
  EXPECT_EQ(exp.hunter().current_targets(task), skeleton_targets);
  EXPECT_EQ(degraded_gauge(), 0.0);
}

TEST(Experiment, CheckpointRestoreRoundTripIsBitIdentical) {
  // Analyzer warm restart (§ gray telemetry): checkpoint the hunter
  // mid-incident, restore the snapshot immediately, and keep running. The
  // run must be indistinguishable — same cases, same verdicts, same event
  // counts — from the same-seed run that was never interrupted.
  auto run = [](bool interrupt) {
    ExperimentConfig cfg = small_config();
    cfg.seed = 77;
    Experiment exp(cfg);
    cluster::TaskRequest req;
    req.num_containers = 4;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(1);
    const auto task = exp.launch_task(req);
    exp.run_to_running(*task);
    const auto victim = exp.orchestrator().endpoints_of_task(*task)[0];
    const SimTime t0 = exp.events().now();
    exp.faults().inject(sim::IssueType::kRnicPortDown,
                        {sim::ComponentKind::kRnic, victim.rnic.value()},
                        t0 + SimTime::minutes(2), t0 + SimTime::minutes(8));
    if (interrupt) {
      // Mid-incident: the case is open and half its evidence collected.
      exp.events().schedule_at(t0 + SimTime::minutes(5), [&] {
        const auto snap = exp.hunter().checkpoint();
        exp.hunter().restore(snap);
      });
    }
    exp.hunter().start(t0 + SimTime::minutes(20));
    exp.events().run_all();
    exp.hunter().finalize();

    struct CaseSummary {
      std::int64_t first, last, closed_at;
      std::size_t pairs, events;
      LocalizationMethod method;
      std::vector<sim::ComponentRef> culprits;
      double confidence;
    };
    std::vector<CaseSummary> out;
    for (const auto& c : exp.hunter().failure_cases()) {
      out.push_back({c.first_event.raw_nanos(), c.last_event.raw_nanos(),
                     c.closed_at.raw_nanos(), c.pairs.size(),
                     c.events.size(), c.localization.method,
                     c.localization.culprits, c.localization.confidence});
    }
    return std::pair{out, exp.hunter().total_probes()};
  };
  const auto [plain, plain_probes] = run(false);
  const auto [warm, warm_probes] = run(true);
  ASSERT_FALSE(plain.empty());  // the incident must have produced a case
  EXPECT_EQ(plain_probes, warm_probes);
  ASSERT_EQ(plain.size(), warm.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].first, warm[i].first);
    EXPECT_EQ(plain[i].last, warm[i].last);
    EXPECT_EQ(plain[i].closed_at, warm[i].closed_at);
    EXPECT_EQ(plain[i].pairs, warm[i].pairs);
    EXPECT_EQ(plain[i].events, warm[i].events);
    EXPECT_EQ(plain[i].method, warm[i].method);
    EXPECT_EQ(plain[i].culprits, warm[i].culprits);
    EXPECT_EQ(plain[i].confidence, warm[i].confidence);
  }
}

TEST(Experiment, TotalProbesCountsEveryDeliveredResultOfALongRun) {
  // A 90-minute campaign at a 5 s interval runs 1080 rounds; every result
  // the analyzer ingested counts, however long ago it arrived.
  ExperimentConfig cfg = small_config();
  cfg.hunter.probe_interval = SimTime::seconds(5);
  Experiment exp(cfg);
  cluster::TaskRequest req;
  req.num_containers = 2;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  ASSERT_TRUE(task.has_value());
  exp.run_to_running(*task);
  exp.hunter().start(exp.events().now() + SimTime::minutes(90));
  exp.events().run_all();
  EXPECT_GT(exp.hunter().total_probes(), 0u);
  EXPECT_EQ(exp.hunter().total_probes(),
            exp.hunter().detector_counters().probes_ingested);
}

/// The fault_drill blackout scenario: an 8x8 fabric, seed 6300, a 4x8
/// task on its inferred skeleton, one RNIC port down from 3:00 to 11:00,
/// and the analyzer blacked out from 6:00 until `blackout_end`. The
/// campaign ends 20 minutes after the task runs, so a `blackout_end` past
/// that leaves the restore to `finalize()`.
std::unique_ptr<Experiment> run_blackout_drill(std::size_t shards,
                                               bool metrics,
                                               SimTime blackout_end) {
  ExperimentConfig cfg = small_config();
  cfg.seed = 6300;
  cfg.hunter.analyzer_shards = shards;
  cfg.obs.metrics = metrics;
  cfg.hunter.telemetry.faults = {{sim::TelemetryFaultKind::kAnalyzerBlackout,
                                  SimTime::minutes(6), blackout_end, 0.0}};
  auto exp = std::make_unique<Experiment>(cfg);
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp->launch_task(req);
  EXPECT_TRUE(task.has_value());
  if (!task) return exp;
  exp->run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  (void)exp->apply_skeleton(*task, exp->layout_of(*task, par));
  const auto victim = exp->orchestrator().endpoints_of_task(*task)[9];
  exp->faults().inject(sim::IssueType::kRnicPortDown,
                       {sim::ComponentKind::kRnic, victim.rnic.value()},
                       SimTime::minutes(3), SimTime::minutes(11));
  exp->hunter().start(exp->events().now() + SimTime::minutes(20));
  exp->events().run_all();
  exp->hunter().finalize();
  return exp;
}

const SimTime kBlackoutEnd = SimTime::minutes(8) + SimTime::seconds(30);

TEST(Experiment, BlackoutKeepsDetectorCountersAtAnyShardCountAndPosture) {
  // Detector counters are process telemetry: the blackout's cold reset
  // must not zero them, at any shard count, with metrics on or off. Every
  // delivered result is counted once, before and after the blackout.
  const auto base = run_blackout_drill(1, true, kBlackoutEnd);
  ASSERT_EQ(base->hunter().analyzer_restores(), 1u);
  const DetectorCounters want = base->hunter().detector_counters();
  EXPECT_EQ(want.probes_ingested, base->hunter().total_probes());
  EXPECT_GT(want.short_windows_closed, 0u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const bool metrics : {true, false}) {
      const auto exp = run_blackout_drill(shards, metrics, kBlackoutEnd);
      const DetectorCounters got = exp->hunter().detector_counters();
      EXPECT_EQ(got.probes_ingested, exp->hunter().total_probes())
          << shards << " shard(s), metrics " << metrics;
      EXPECT_EQ(got.probes_ingested, want.probes_ingested)
          << shards << " shard(s), metrics " << metrics;
      EXPECT_TRUE(got == want) << shards << " shard(s), metrics " << metrics;
    }
  }
}

TEST(Experiment, BlackoutOutlastingTheCampaignRestoresLikeATick) {
  // A blackout that ends inside the campaign is left at a tick; one that
  // outlasts it is left at finalize(). Both warm restarts note the restore
  // on the case that was open when the analyzer died.
  const auto restore_entries = [](const FailureCase& c) {
    std::size_t n = 0;
    for (const auto& e : c.timeline.entries) {
      n += std::string_view(e.stage) == "analyzer.restore" ? 1 : 0;
    }
    return n;
  };
  for (const SimTime end : {kBlackoutEnd, SimTime::hours(1)}) {
    const auto exp = run_blackout_drill(1, true, end);
    EXPECT_EQ(exp->hunter().analyzer_restores(), 1u);
    EXPECT_FALSE(exp->hunter().analyzer_in_blackout());
    const auto& cases = exp->hunter().failure_cases();
    ASSERT_FALSE(cases.empty()) << "blackout end " << end.to_seconds() << " s";
    EXPECT_EQ(restore_entries(cases.front()), 1u)
        << "blackout end " << end.to_seconds() << " s";
  }
}

TEST(Experiment, BlackoutKeepsTheWindowLogSizedForTheFleet) {
  // The window log is sized at plan time for two closes per pair. A
  // blackout's cold reset must keep that capacity: a fleet of more than
  // 4096 pairs closes more windows in one round than a default-sized log
  // holds.
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 32;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.probe_interval = SimTime::seconds(5);
  cfg.hunter.telemetry.faults = {{sim::TelemetryFaultKind::kAnalyzerBlackout,
                                  SimTime::minutes(5), SimTime::minutes(7),
                                  0.0}};
  Experiment exp(cfg);
  cluster::TaskRequest req;
  req.num_containers = 32;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  ASSERT_TRUE(task.has_value());
  exp.run_to_running(*task);
  ASSERT_LT(exp.events().now(), SimTime::minutes(5));
  exp.hunter().start(SimTime::minutes(12));
  exp.events().run_all();
  exp.hunter().finalize();
  EXPECT_EQ(exp.hunter().analyzer_restores(), 1u);
  EXPECT_GT(exp.hunter().detector().pair_count(), 4096u);
  EXPECT_EQ(exp.hunter().detector().window_log_drops(), 0u);
}

TEST(Experiment, ReapplyingASkeletonReservesNoMorePairs) {
  // A replan reserves the mapped pairs plus the listed pairs not mapped
  // yet. Re-listing pairs that are already probed adds none, so applying
  // the same skeleton again must not grow the reservation.
  Experiment exp(small_config());
  cluster::TaskRequest req;
  req.num_containers = 8;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(2);
  const auto task = exp.launch_task(req);
  ASSERT_TRUE(task.has_value());
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 4;
  const auto layout = exp.layout_of(*task, par);
  ASSERT_TRUE(exp.apply_skeleton(*task, layout).has_value());
  exp.hunter().start(exp.events().now() + SimTime::minutes(10));
  exp.events().run_until(exp.events().now() + SimTime::seconds(5));
  const std::size_t mapped = exp.hunter().detector().pair_count();
  const std::size_t capacity = exp.obs().recorder.pair_capacity();
  ASSERT_GT(mapped, 0u);
  ASSERT_GE(capacity, mapped);

  ASSERT_TRUE(exp.apply_skeleton(*task, layout).has_value());
  EXPECT_EQ(exp.obs().recorder.pair_capacity(), capacity);
}

TEST(Experiment, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg = small_config();
    cfg.seed = seed;
    Experiment exp(cfg);
    cluster::TaskRequest req;
    req.num_containers = 4;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(1);
    const auto task = exp.launch_task(req);
    exp.run_to_running(*task);
    exp.hunter().start(exp.events().now() + SimTime::minutes(5));
    exp.events().run_all();
    return exp.hunter().total_probes();
  };
  EXPECT_EQ(run(9), run(9));
}

}  // namespace
}  // namespace skh::core
