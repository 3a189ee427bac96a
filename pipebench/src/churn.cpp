// churn_spray: the full pipeline with its control-plane write paths busy.
//
// A 128-host fabric with 8 spines per rail and 4 hosts per segment, so
// same-rail pairs cross the spine tier. Two 16-container x 8-GPU tasks
// probe runtime skeletons under 8-way packet spray with per-path
// sub-series. One campaign runs an 80-minute schedule after its warm-up:
// a gray ECMP member link and an RNIC port down (the probe-visible
// faults), a restart storm and a migration wave issued through the
// Orchestrator, fresh observations re-supplied until degraded tasks
// re-infer, a hang/straggler/slow-host storm on the collective plane, and
// a 7-episode telemetry storm ending in an analyzer blackout. The storm
// starts more than the scoring slack after the last fault ends, so a case
// it raises can only score as false.
//
// An untraced run sets the seed's campaign up and times it again and again
// in one process for --seconds; a tick's time is the fastest of its
// repetitions, and every repetition must repeat the first's verdict and
// collective fingerprints. A traced run times the campaign once and then
// replays it untimed for the same check.
#include <memory>

#include "common.h"
#include "core/metrics.h"

namespace pb {
namespace {

constexpr std::uint32_t kTasks = 2;
constexpr std::uint32_t kContainers = 16;
constexpr std::uint32_t kGpus = 8;
const SimTime kInterval = SimTime::seconds(5);
constexpr std::size_t kWarmupTicks = 60;
/// Tasks reach Running within this budget (container start-up is capped at
/// 10 minutes and the two tasks launch one after the other); the first tick
/// follows it at a fixed instant, so every seed's schedule lines up alike.
const SimTime kLaunchBudget = SimTime::minutes(21);
const SimTime kFirstTick = kLaunchBudget + kInterval;
const SimTime kTimed0 =
    kFirstTick + kInterval * static_cast<double>(kWarmupTicks);
/// The timed schedule, in minutes from kTimed0.
constexpr double kDurationMin = 80.0;
constexpr double kTelemetryStormMin = 55.0;
constexpr std::size_t kTimedTicks = 960;
/// Repetitions of the campaign in an untraced run: at least this many, then
/// more while the next fits in --seconds (a traced run makes one). Each
/// sets the campaign up from scratch and times it (~4 s on a 4-core x86
/// box); a tick's time is the fastest of its repetitions, and setup_s the
/// median of the set-ups.
constexpr std::size_t kMinRepetitions = 3;
constexpr std::size_t kBlockTicks = 6;

SimTime at(double minutes) { return kTimed0 + SimTime::minutes(minutes); }
const SimTime kLastTick = at(kDurationMin) - kInterval;

workload::ParallelismConfig parallelism() {
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 4;
  par.dp = 4;
  return par;
}

core::ExperimentConfig churn_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.topology.num_hosts = 128;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 4;
  cfg.topology.spines_per_rail = 8;
  cfg.hunter.probe_interval = kInterval;
  cfg.hunter.engine.routing_mode = topo::RoutingMode::kSpray;
  cfg.hunter.engine.spray_ways = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  // A lying measurement plane must starve windows, not feed them.
  cfg.hunter.detector.window_quorum = 5;
  // Seven episodes, one per telemetry fault kind; the last is a blackout.
  RngStream rng = RngStream(seed).fork("pipebench.churn.telemetry");
  cfg.hunter.telemetry = sim::make_telemetry_storm(
      7, at(kTelemetryStormMin), SimTime::seconds(210), SimTime::minutes(2),
      rng);
  cfg.seed = seed;
  return cfg;
}

/// One campaign: deployment, schedule, and what the benchmark timed.
struct Campaign {
  std::unique_ptr<core::Experiment> exp;
  std::vector<TaskId> tasks;
  std::vector<std::vector<EndpointPair>> skeleton;  ///< latest, per task
  std::unique_ptr<TickMarkers> markers;
  std::vector<double> churn_ms;
  std::vector<double> inference_ms;
  std::uint64_t replans0 = 0;
  /// Traced runs only: a side ProbeEngine on the campaign's topology,
  /// overlay and faults with the hunter's engine settings. After every
  /// timed tick, outside the tick's span, it probes the latest skeleton
  /// pairs once, so `probe.engine` is measured under spray.
  std::unique_ptr<probe::ProbeEngine> engine;
  double engine_s = 0.0;
  double tick_s = 0.0;  ///< hunter tick time over the same ticks
  std::uint64_t engine_calls = 0;
  std::uint64_t engine_undelivered = 0;
};

void timed_call(std::vector<double>& ms, Tracer& tracer, const char* name,
                const std::function<void()>& call) {
  const double t0 = now_s();
  call();
  const double t1 = now_s();
  ms.push_back((t1 - t0) * 1e3);
  tracer.record(name, 0, t0, t1);
}

/// Faults, churn and observation re-supply of the timed schedule.
void schedule(Campaign& cp, std::uint64_t seed, Tracer& tracer) {
  core::Experiment& exp = *cp.exp;
  Campaign* p = &cp;
  RngStream pick = RngStream(seed).fork("pipebench.churn.faults");
  const auto& topo = exp.topology();
  // Gray ECMP member: a seed-chosen skeleton pair of task 0 that crosses
  // the spine tier, and a seed-chosen member of its equal-cost set.
  std::vector<EndpointPair> crossing;
  for (const auto& pr : cp.skeleton[0]) {
    if (topo.num_paths(pr.src.rnic, pr.dst.rnic) > 1) crossing.push_back(pr);
  }
  if (!crossing.empty()) {
    const auto& pr = crossing[static_cast<std::size_t>(pick.uniform_int(
        0, static_cast<std::int64_t>(crossing.size()) - 1))];
    const auto n = topo.num_paths(pr.src.rnic, pr.dst.rnic);
    const auto plan = sim::make_gray_member_link(
        topo, pr.src.rnic, pr.dst.rnic,
        static_cast<std::uint32_t>(pick.uniform_int(0, n - 1)));
    exp.faults().inject(sim::IssueType::kCrcError, plan.target,
                        at(2) + SimTime::seconds(2.5), at(10), plan.effect);
  }
  const auto eps = exp.orchestrator().endpoints_of_task(cp.tasks[1]);
  const auto& victim = eps[static_cast<std::size_t>(
      pick.uniform_int(0, static_cast<std::int64_t>(eps.size()) - 1))];
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      at(12) + SimTime::seconds(2.5), at(17));

  // Restart storm on task 0 and migration wave on task 1, each call timed.
  RngStream churn_rng = RngStream(seed).fork("pipebench.churn.plan");
  const auto storm = sim::make_restart_storm(
      kContainers, 4, at(20) + SimTime::seconds(1), SimTime::seconds(30),
      churn_rng);
  const auto wave = sim::make_migration_wave(
      kContainers, 3, at(24) + SimTime::seconds(1), SimTime::seconds(40),
      churn_rng);
  for (const auto& ev : storm) {
    const ContainerId c =
        exp.orchestrator().task(cp.tasks[0]).containers[ev.container_index];
    exp.events().schedule_at(ev.at, [p, c, &tracer] {
      timed_call(p->churn_ms, tracer, "cluster.churn",
                 [p, c] { p->exp->orchestrator().restart_container(c); });
    });
  }
  for (const auto& ev : wave) {
    const ContainerId c =
        exp.orchestrator().task(cp.tasks[1]).containers[ev.container_index];
    exp.events().schedule_at(ev.at, [p, c, &tracer] {
      timed_call(p->churn_ms, tracer, "cluster.churn", [p, c] {
        (void)p->exp->orchestrator().migrate_container(c);
      });
    });
  }
  // Fresh observations every minute while a task is degraded.
  for (int m = 21; m <= 45; ++m) {
    exp.events().schedule_at(at(m) + SimTime::seconds(2), [p, &tracer] {
      for (std::size_t t = 0; t < p->tasks.size(); ++t) {
        const TaskId task = p->tasks[t];
        if (!p->exp->hunter().task_degraded(task)) continue;
        std::optional<core::InferredSkeleton> sk;
        timed_call(p->inference_ms, tracer, "core.inference", [p, task, &sk] {
          sk = p->exp->apply_skeleton(task,
                                      p->exp->layout_of(task, parallelism()));
        });
        if (sk) p->skeleton[t] = sk->pairs;
      }
    });
  }
}

/// Build one campaign and run its warm-up ticks; on failure, returns
/// nullptr and says why in `why`.
std::unique_ptr<Campaign> set_up(std::uint64_t seed, Tracer& tracer,
                                 std::string& why) {
  auto cp = std::make_unique<Campaign>();
  const core::ExperimentConfig cfg = churn_config(seed);
  cp->exp = std::make_unique<core::Experiment>(cfg);
  core::Experiment& exp = *cp->exp;
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    cluster::TaskRequest req;
    req.num_containers = kContainers;
    req.gpus_per_container = kGpus;
    req.lifetime = SimTime::hours(24);
    const auto task = exp.launch_task(req);
    if (!task) {
      why = "the cluster rejected a task";
      return nullptr;
    }
    exp.run_to_running(*task);
    cp->tasks.push_back(*task);
  }
  if (exp.events().now() > kLaunchBudget) {
    why = "tasks were not running within the launch budget";
    return nullptr;
  }
  exp.events().run_until(kLaunchBudget);

  cp->skeleton.resize(kTasks);
  RngStream coll = RngStream(seed).fork("pipebench.churn.collective");
  for (std::size_t t = 0; t < kTasks; ++t) {
    const auto layout = exp.layout_of(cp->tasks[t], parallelism());
    const auto sk = exp.apply_skeleton(cp->tasks[t], layout);
    if (!sk) {
      why = "skeleton inference rejected task " + std::to_string(t);
      return nullptr;
    }
    cp->skeleton[t] = sk->pairs;
    // Host-side storm: on task 0 during the faults, on task 1 after them.
    const auto plan = sim::make_collective_storm(
        kContainers, 3, at(t == 0 ? 3 : 33), SimTime::minutes(8),
        SimTime::minutes(3), coll);
    exp.enable_collective_plane(cp->tasks[t], layout, plan, kLastTick);
  }
  schedule(*cp, seed, tracer);
  TickMarkers::AfterTick after;
  if (tracer.enabled()) {
    Campaign* p = cp.get();
    p->engine = std::make_unique<probe::ProbeEngine>(
        exp.topology(), exp.overlay(), exp.faults(),
        RngStream(seed).fork("pipebench.churn.engine"), cfg.hunter.engine);
    after = [p, &tracer](const TickMarkers::Tick& k) {
      const std::uint64_t tick = p->markers->ticks().size() - 1;
      tracer.record("hunter.tick", tick, k.open_s, k.close_s);
      if (tick < kWarmupTicks) return;
      p->tick_s += k.close_s - k.open_s;
      const double t0 = now_s();
      for (const auto& pairs : p->skeleton) {
        for (const auto& pr : pairs) {
          const auto r = p->engine->probe(pr.src, pr.dst, k.at);
          ++p->engine_calls;
          p->engine_undelivered += r.delivered ? 0 : 1;
        }
      }
      const double t1 = now_s();
      tracer.record("probe.engine", tick, t0, t1);
      p->engine_s += t1 - t0;
    };
  }
  cp->markers = std::make_unique<TickMarkers>(exp, kFirstTick, kInterval,
                                              kLastTick, std::move(after));
  cp->markers->arm();
  exp.hunter().start(kLastTick);
  exp.events().run_until(kTimed0 - kInterval);
  cp->replans0 = counter_value(exp.obs().registry.scrape(), "hunter.replans");
  return cp;
}

/// Timed phase, then the end-of-campaign flush and localization. Returns
/// the wall clock at the end of the timed phase.
double run_timed(Campaign& cp) {
  cp.exp->events().run_until(kLastTick);
  const double end = now_s();
  cp.exp->hunter().finalize();
  return end;
}

struct Fingerprints {
  std::uint64_t verdicts = 0;
  std::uint64_t collective = 0;
  friend bool operator==(const Fingerprints&, const Fingerprints&) = default;
};

Fingerprints fingerprints(Campaign& cp) {
  return {verdict_fingerprint(cp.exp->hunter().failure_cases()),
          cp.exp->collective_fingerprint()};
}

}  // namespace

int run_churn(const Args& args) {
  Report report;
  HostWatch host;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  const std::size_t min_reps = args.trace ? 1 : kMinRepetitions;

  // Each repetition sets the campaign up again and times it, and is freed
  // before the next; checks, operations and per-layer figures come from the
  // first.
  Layers L;
  std::vector<double> setup_s, blackout_ms, detect, verdict;
  std::vector<std::vector<TickSample>> rep_samples;
  Fingerprints fp;
  std::size_t faults = 0, correct = 0, cases = 0, false_cases = 0;
  std::size_t churn_calls = 0;
  double rss_setup = 0.0;
  std::string why;
  const double begin = now_s();
  double rep_s = 0.0;  // wall time of the longest repetition
  for (std::size_t rep = 0;
       another_repetition(rep, min_reps, now_s() - begin, rep_s,
                          args.trace ? 0.0 : args.seconds);
       ++rep) {
    const double t0 = now_s();
    auto cp = set_up(args.seed, tracer, why);
    setup_s.push_back(now_s() - t0);
    if (!cp) {
      report.check(false, "churn_spray: set-up: " + why);
      return report.finish();
    }
    if (rep == 0) rss_setup = rss_mb();
    const auto& marks = cp->markers->ticks();
    const std::size_t warm = marks.size();
    const double end = run_timed(*cp);
    rep_samples.push_back(tick_samples(marks, warm, end));
    const Fingerprints now = fingerprints(*cp);
    if (rep == 0) fp = now;
    report.check(now == fp, "churn_spray: repetition " + std::to_string(rep) +
                                " repeated the first's verdict and "
                                "collective fingerprints");
    rep_s = std::max(rep_s, now_s() - t0);
    if (rep > 0) continue;

    core::Experiment& exp = *cp->exp;
    for (std::size_t i = warm; i < marks.size(); ++i) {
      if (marks[i].blackout) {
        blackout_ms.push_back((marks[i].close_s - marks[i].open_s) * 1e3);
      }
    }
    const auto& found = exp.hunter().failure_cases();
    const auto outcomes = score_faults(found, exp.faults(), exp.topology());
    false_cases = count_operations(report, outcomes, found, exp.faults(),
                                   exp.topology());
    cases = found.size();
    for (const auto& o : outcomes) {
      ++faults;
      correct += o.verdict_correct ? 1 : 0;
      detect.push_back(o.detect_s);
      verdict.push_back(o.verdict_s);
    }
    churn_calls = cp->churn_ms.size();
    const auto snap = exp.obs().registry.scrape();
    const auto& tel = exp.hunter().telemetry_channel().counters();
    report.check(rep_samples.back().size() == kTimedTicks,
                 "churn_spray: every tick instant was timed");
    report.check(counter_value(snap, "hunter.ticks") == marks.size(),
                 "churn_spray: one hunter tick per marker pair");
    report.check(tel.results_dropped > 0,
                 "churn_spray: the telemetry storm dropped results");
    report.check(exp.hunter().collective_steps() > 0,
                 "churn_spray: the collective plane ingested steps");
    report.check(exp.hunter().analyzer_restores() == 1,
                 "churn_spray: the analyzer blacked out and restored once");
    report.check(churn_calls == 7, "churn_spray: 7 churn calls issued");

    if (cp->engine_calls > 0) {
      const auto calls = static_cast<double>(cp->engine_calls);
      L.engine.calls = calls;
      L.engine.ns_per_call = cp->engine_s * 1e9 / calls;
      L.engine.tick_share = cp->engine_s / cp->tick_s;
      L.engine.undelivered_frac =
          static_cast<double>(cp->engine_undelivered) / calls;
    }
    const auto& table = exp.hunter().detector().pair_table().stats();
    L.telemetry.dropped = static_cast<double>(tel.results_dropped);
    L.telemetry.duplicated = static_cast<double>(tel.results_duplicated);
    L.telemetry.delayed = static_cast<double>(tel.results_delayed);
    L.router.probe_steps = static_cast<double>(table.probe_steps);
    L.router.recycled_ids = static_cast<double>(table.recycled_ids);
    L.set_counters(marks[warm].before, marks.back().after);
    L.inference.calls = static_cast<double>(cp->inference_ms.size());
    L.inference.ms_p50 =
        cp->inference_ms.empty() ? 0.0 : median(cp->inference_ms);
    L.churn.calls = static_cast<double>(churn_calls);
    L.churn.ms_p50 = median(cp->churn_ms);
    L.churn.replans = static_cast<double>(
        counter_value(snap, "hunter.replans") - cp->replans0);
    L.collective.steps = static_cast<double>(exp.hunter().collective_steps());
    L.collective.verdicts =
        static_cast<double>(exp.hunter().collective_verdicts());
    L.obs.bundles = static_cast<double>(exp.obs().recorder.bundles().size() +
                                        exp.obs().recorder.bundle_drops());
    L.obs.scrape_ms = scrape_ms(exp.obs().registry, 5);
  }
  note_repetitions(rep_samples, kBlockTicks);
  std::vector<TickSample> samples;
  report.check(fastest_per_tick(rep_samples, samples),
               "churn_spray: every repetition did the same work, tick by tick");
  if (args.trace) {
    // The campaign again, untimed: verdicts and step traces repeat.
    auto again = set_up(args.seed, untraced, why);
    report.check(again != nullptr, "churn_spray: replay set-up: " + why);
    if (again) {
      run_timed(*again);
      report.check(fingerprints(*again) == fp,
                   "churn_spray: verdict and collective fingerprints repeat "
                   "for the seed");
    }
  }
  const TickSummary ts = summarize_ticks(samples, kBlockTicks);
  report.check(!blackout_ms.empty(), "churn_spray: blackout ticks were timed");
  note("# churn_spray seed=%llu: %zu repetitions, %zu timed ticks (%zu "
       "closing), %zu cases, %zu false, %zu/%zu faults localized, %zu churn "
       "calls, %.0f inference calls",
       static_cast<unsigned long long>(args.seed), rep_samples.size(),
       ts.ticks, ts.closing, cases, false_cases, correct, faults, churn_calls,
       L.inference.calls);

  if (!args.trace) {
    note_base_tick(rep_samples.front());
    note_setups(setup_s);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("probes_per_s", ts.probes_per_s, "1/s");
    report.metric("close_tick_ms_p50", ts.close_ms_p50, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    host.finish(report, false);
    return report.finish();
  }

  double items = 0;
  for (const auto& s : samples) items += static_cast<double>(s.probes);
  L.router.lookups = items;
  L.detector.items = items;
  L.hunter.ticks = static_cast<double>(samples.size());
  L.hunter.blackout_tick_ms = median(blackout_ms);
  L.hunter.cases = static_cast<double>(cases);
  L.hunter.cases_false = static_cast<double>(false_cases);
  L.latency.detect_s_p50 = median_known(detect);
  L.latency.verdict_s_p50 = median_known(verdict);
  L.mem.rss_setup_mb = rss_setup;
  L.mem.rss_growth_mb = peak_rss_mb() - rss_setup;
  L.set_overhead(args, ts.tick_ms_p50);
  L.emit(report);
  host.finish(report, true);
  if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    report.check(false, "churn_spray: trace file written");
  }
  return report.finish();
}

}  // namespace pb
