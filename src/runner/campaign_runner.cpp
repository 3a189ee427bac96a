#include "runner/campaign_runner.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <thread>

#include "common/pool.h"

namespace skh::runner {

namespace {

/// The probe-visible issue types the campaign's faults cycle over.
constexpr sim::IssueType kIssueMix[] = {
    sim::IssueType::kCrcError,
    sim::IssueType::kSwitchPortDown,
    sim::IssueType::kSwitchPortFlapping,
    sim::IssueType::kRnicHardwareFailure,
    sim::IssueType::kRnicPortDown,
    sim::IssueType::kGidChange,
    sim::IssueType::kNotUsingRdma,
    sim::IssueType::kPcieNicError,
};
constexpr SimTime kWarmup = SimTime::minutes(5);  ///< before the first fault
/// Host-side collective fault episodes: first start, spacing and length.
constexpr SimTime kCollectiveStart = SimTime::minutes(7);
constexpr SimTime kCollectiveSpacing = SimTime::minutes(10);
constexpr SimTime kCollectiveDuration = SimTime::minutes(5);

/// Map an issue type to a concrete injectable target on `victim`'s path —
/// the same resolution the accuracy bench uses, so every issue class lands
/// on a component of the kind Table 1 says it degrades.
sim::ComponentRef target_for(sim::IssueType type, const Endpoint& victim,
                             const topo::Topology& topo) {
  switch (sim::issue_info(type).target_kind) {
    case sim::ComponentKind::kPhysicalLink:
      return {sim::ComponentKind::kPhysicalLink,
              topo.uplink_of(victim.rnic).value()};
    case sim::ComponentKind::kPhysicalSwitch: {
      const auto host = topo.host_of(victim.rnic);
      return {sim::ComponentKind::kPhysicalSwitch,
              topo.tor_at(topo.segment_of(host), topo.rail_of(victim.rnic))
                  .value()};
    }
    case sim::ComponentKind::kRnic:
      return {sim::ComponentKind::kRnic, victim.rnic.value()};
    case sim::ComponentKind::kVSwitch:
      return {sim::ComponentKind::kVSwitch,
              topo.host_of(victim.rnic).value()};
    default:
      return {sim::ComponentKind::kHost, topo.host_of(victim.rnic).value()};
  }
}

}  // namespace

RunResult run_campaign(const CampaignConfig& cfg, std::uint64_t seed) {
  RunResult result;
  (void)run_campaign_experiment(cfg, seed, result);
  return result;
}

std::unique_ptr<core::Experiment> run_campaign_experiment(
    const CampaignConfig& cfg, std::uint64_t seed, RunResult& result) {
  result = RunResult{};
  result.seed = seed;

  core::ExperimentConfig ecfg;
  ecfg.topology = cfg.topology;
  ecfg.hunter = cfg.hunter;
  ecfg.seed = seed;
  ecfg.obs = cfg.obs;
  // Telemetry plan: derived from the seed alone (named fork of a fresh
  // stream, untouched by any subsystem's draws) and installed before the
  // hunter is built, since the channel is wired at construction.
  if (cfg.telemetry_faults > 0) {
    RngStream trng = RngStream(seed).fork("telemetry-plan");
    ecfg.hunter.telemetry = sim::make_telemetry_storm(
        cfg.telemetry_faults, cfg.telemetry_start, cfg.telemetry_spacing,
        cfg.telemetry_duration, trng);
  }
  result.telemetry_events = ecfg.hunter.telemetry.faults.size();
  auto deployment = std::make_unique<core::Experiment>(ecfg);
  core::Experiment& exp = *deployment;

  std::vector<TaskId> tasks;
  std::vector<workload::TaskLayout> layouts;  ///< aligned with `tasks`
  for (const auto& shape : cfg.tasks) {
    cluster::TaskRequest req;
    req.num_containers = shape.containers;
    req.gpus_per_container = shape.gpus_per_container;
    req.lifetime = cfg.task_lifetime;
    const auto t = exp.launch_task(req);
    if (!t) continue;  // cluster out of capacity: skip this tenant
    exp.run_to_running(*t);
    workload::ParallelismConfig par;
    par.tp = shape.gpus_per_container;
    par.pp = shape.pp;
    par.dp = shape.dp;
    auto layout = exp.layout_of(*t, par);
    (void)exp.apply_skeleton(*t, layout);
    tasks.push_back(*t);
    layouts.push_back(std::move(layout));
  }
  result.tasks_launched = tasks.size();
  if (tasks.empty()) return deployment;

  // Fault plan: forked by name, so the schedule depends only on the seed —
  // not on how many draws the subsystems made before this point.
  RngStream frng = exp.rng().fork("fault-plan");
  SimTime cursor = exp.events().now() + kWarmup;

  auto random_endpoint = [&](TaskId task) -> Endpoint {
    const auto eps = exp.orchestrator().endpoints_of_task(task);
    return eps[static_cast<std::size_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(eps.size()) - 1))];
  };

  for (std::size_t i = 0; i < cfg.visible_faults; ++i) {
    const auto type = kIssueMix[i % std::size(kIssueMix)];
    const TaskId task = tasks[static_cast<std::size_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(tasks.size()) - 1))];
    const Endpoint victim = random_endpoint(task);
    exp.faults().inject(type, target_for(type, victim, exp.topology()),
                        cursor, cursor + cfg.fault_duration);
    cursor += cfg.fault_gap;
  }

  // Intra-host faults: invisible to probing, bound recall (§7.3).
  for (std::size_t i = 0; i < cfg.invisible_faults; ++i) {
    const auto host = static_cast<std::uint32_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(cfg.topology.num_hosts) - 1));
    exp.faults().inject(sim::IssueType::kNvlinkDegradation,
                        {sim::ComponentKind::kHost, host}, cursor,
                        cursor + cfg.fault_duration);
    cursor += cfg.fault_gap;
  }

  // Crashed sidecar agents: phantoms that bound precision (§7.3), spaced
  // well clear of real faults so their cases cannot be attributed to one.
  for (std::size_t i = 0; i < cfg.phantom_agents; ++i) {
    cursor += SimTime::minutes(40);
    const Endpoint victim = random_endpoint(tasks[0]);
    exp.faults().inject_phantom(
        {sim::ComponentKind::kContainer, victim.container.value()}, cursor,
        cursor + SimTime::minutes(3));
    cursor += cfg.fault_gap;
  }

  // Churn plan: its own named fork for the same reason as the fault plan —
  // the schedule must not depend on draws made by other subsystems.
  if (cfg.churn_restarts > 0 || cfg.churn_migrations > 0) {
    RngStream crng = exp.rng().fork("churn-plan");
    const SimTime churn_base = exp.events().now() + cfg.churn_start;
    for (const TaskId task : tasks) {
      const auto n_containers = static_cast<std::uint32_t>(
          exp.orchestrator().task(task).containers.size());
      auto plan = sim::make_restart_storm(n_containers, cfg.churn_restarts,
                                          churn_base, cfg.churn_spacing,
                                          crng);
      const auto wave = sim::make_migration_wave(
          n_containers, cfg.churn_migrations,
          churn_base + cfg.churn_spacing * 0.5, cfg.churn_spacing, crng);
      plan.insert(plan.end(), wave.begin(), wave.end());
      exp.schedule_churn(task, plan);
      result.churn_events += plan.size();
    }
  }

  // Collective signal plane: host-side fault plans from their own named
  // fork (like the fault/churn/telemetry plans, a pure function of the
  // seed), one plan per task so victims are task-local container indices.
  if (cfg.collective_plane) {
    RngStream kng = exp.rng().fork("collective-plan");
    const SimTime coll_base = exp.events().now() + kCollectiveStart;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto n_containers = static_cast<std::uint32_t>(
          exp.orchestrator().task(tasks[i]).containers.size());
      const auto plan = sim::make_collective_storm(
          n_containers, cfg.collective_faults, coll_base, kCollectiveSpacing,
          kCollectiveDuration, kng);
      exp.enable_collective_plane(tasks[i], layouts[i], plan,
                                  cursor + cfg.drain);
      result.collective_events += plan.faults.size();
    }
  }

  exp.hunter().start(cursor + cfg.drain);
  exp.events().run_all();
  exp.hunter().finalize();

  result.score = core::score_campaign(exp.hunter().failure_cases(),
                                      exp.faults(), exp.topology());
  result.faults = exp.faults().faults();
  result.failure_cases = exp.hunter().failure_cases().size();
  result.probes_sent = exp.hunter().total_probes();
  result.detector = exp.hunter().detector_counters();
  result.cases_network_silent = result.score.cases_network_silent;
  result.collective_steps = exp.hunter().collective_steps();
  result.collective_fingerprint = exp.collective_fingerprint();
  if (cfg.obs.metrics) {
    result.metrics = exp.obs().registry.scrape();
    for (const auto& h : result.metrics.histograms) {
      if (h.name == "latency.ingest_to_verdict_s") {
        result.p99_verdict_latency_s = h.quantile(0.99);
        break;
      }
    }
    result.forensic_bundles = exp.obs().recorder.bundles().size();
  }
  return deployment;
}

CampaignSet run_many(const CampaignConfig& cfg,
                     std::span<const std::uint64_t> seeds,
                     std::size_t n_threads) {
  CampaignSet set;
  set.runs.resize(seeds.size());
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min(n_threads, seeds.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      set.runs[i] = run_campaign(cfg, seeds[i]);
    }
  } else {
    // Slot-indexed writes: runs[i] belongs to seeds[i] no matter which
    // worker executes it or in what order jobs finish.
    std::vector<std::exception_ptr> errors(seeds.size());
    common::ThreadPool pool(workers);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      pool.submit([&cfg, &set, &errors, &seeds, i] {
        try {
          set.runs[i] = run_campaign(cfg, seeds[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  std::vector<core::CampaignScore> scores;
  scores.reserve(set.runs.size());
  for (const auto& r : set.runs) scores.push_back(r.score);
  set.summary = core::summarize_scores(scores);
  // Fleet snapshot: merge per-seed scrapes in seed order — deterministic at
  // any thread count because each scrape is itself single-thread-recorded.
  for (const auto& r : set.runs) set.fleet.merge(r.metrics);
  return set;
}

CampaignSet run_many(const CampaignConfig& cfg, std::uint64_t master_seed,
                     std::size_t n_runs, std::size_t n_threads) {
  const auto seeds = split_seeds(master_seed, n_runs);
  return run_many(cfg, seeds, n_threads);
}

}  // namespace skh::runner
