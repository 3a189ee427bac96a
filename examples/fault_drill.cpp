// Fault drill: sweep every Table-1 issue type against a live deployment
// and print a one-line verdict per issue — a smoke test an operator can
// run before trusting a new SkeletonHunter rollout (and the example behind
// bench_table1_issues). `--churn-gate` runs only the restart-storm drill
// (the churn.false_alarm_gate ctest entry).
#include <cstdio>
#include <fstream>

#include "drill_gates.h"

#include "core/harness.h"
#include "core/metrics.h"
#include "obs/json_lint.h"
#include "obs/trace.h"

using namespace skh;
using namespace skh::core;

namespace {

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const char* name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Restart-storm drill: a fault-free storm over a monitored task must raise
/// ZERO non-suppressed failure cases (restarts are the control plane doing
/// its job, not network failures), and once fresh observations accumulate,
/// re-inference must bring the probing plan back to its pre-churn skeleton.
int run_restart_storm_drill() {
  std::puts("Restart-storm drill: 6 fault-free restarts on a live task\n");
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.seed = 6100;
  cfg.obs.metrics = true;
  Experiment exp(cfg);

  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp.launch_task(req);
  if (!task) {
    std::puts("  FAILED: cluster rejected the task");
    return 1;
  }
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  const auto layout = exp.layout_of(*task, par);
  if (!exp.apply_skeleton(*task, layout)) {
    std::puts("  FAILED: initial skeleton inference rejected");
    return 1;
  }
  const std::size_t skeleton_targets = exp.hunter().current_targets(*task);

  // The storm: six restarts, 30 s apart, no network fault anywhere.
  RngStream storm_rng = exp.rng().fork("storm");
  const auto storm = sim::make_restart_storm(
      req.num_containers, 6, exp.events().now() + SimTime::minutes(3),
      SimTime::seconds(30), storm_rng);
  exp.schedule_churn(*task, storm);

  // Fresh observation batches once the storm has settled: the first batch
  // only accumulates (re-inference waits for two fresh batches per live
  // endpoint), the second re-infers through the fidelity gate.
  const SimTime settle = exp.events().now() + SimTime::minutes(15);
  for (int batch = 0; batch < 2; ++batch) {
    exp.events().schedule_at(
        settle + SimTime::minutes(batch), [&exp, &par, task = *task] {
          (void)exp.apply_skeleton(task, exp.layout_of(task, par));
        });
  }

  // Measure recovery while the task is still live (run_all also drains the
  // task's natural end-of-life teardown, which empties the agent set).
  std::size_t final_targets = 0;
  bool recovered = false;
  exp.events().schedule_at(settle + SimTime::minutes(5),
                           [&exp, &final_targets, &recovered, task = *task] {
                             final_targets =
                                 exp.hunter().current_targets(task);
                             recovered = !exp.hunter().task_degraded(task);
                           });

  exp.hunter().start(exp.events().now() + SimTime::minutes(25));
  exp.events().run_all();
  exp.hunter().finalize();

  const auto snap = exp.obs().registry.scrape();
  const std::size_t cases = exp.hunter().failure_cases().size();
  std::printf("  restarts delivered : %llu\n",
              static_cast<unsigned long long>(
                  counter_value(snap, "orchestrator.containers_restarted")));
  std::printf("  churn events seen  : %llu, replans: %llu\n",
              static_cast<unsigned long long>(
                  counter_value(snap, "hunter.churn_events")),
              static_cast<unsigned long long>(
                  counter_value(snap, "hunter.replans")));
  std::printf("  failure cases      : %zu (want 0)\n", cases);
  std::printf("  probing targets    : %zu pre-churn, %zu post-reinference\n",
              skeleton_targets, final_targets);
  std::printf("  degraded at end    : %s\n", recovered ? "no" : "yes");
  const bool pass =
      cases == 0 && recovered && final_targets == skeleton_targets;
  std::printf("\nchurn gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

/// Telemetry drill phase A: a lying measurement plane over a HEALTHY
/// network must raise ZERO failure cases. Loss bursts, duplicate storms,
/// reordering, clock skew, and RTT bit-flips are all telemetry artifacts —
/// paging an operator for any of them is a false alarm.
int run_gray_telemetry_drill() {
  std::puts(
      "Gray-telemetry drill: lying measurement plane, healthy network\n");
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.hunter.detector.window_quorum = 5;
  cfg.seed = 6200;
  cfg.obs.metrics = true;
  // The storm: overlapping gray episodes covering every non-blackout
  // telemetry fault kind, including a near-total loss burst that starves
  // windows below quorum.
  using sim::TelemetryFaultKind;
  auto episode = [](TelemetryFaultKind kind, int start_min, int dur_min,
                    double magnitude) {
    return sim::TelemetryFault{kind, SimTime::minutes(start_min),
                               SimTime::minutes(start_min + dur_min),
                               magnitude};
  };
  cfg.hunter.telemetry.faults = {
      episode(TelemetryFaultKind::kResponseLoss, 3, 4, 0.5),
      episode(TelemetryFaultKind::kDuplication, 5, 4, 0.4),
      episode(TelemetryFaultKind::kReordering, 8, 4, 0.3),
      episode(TelemetryFaultKind::kClockSkew, 11, 4, 2.0),
      episode(TelemetryFaultKind::kRttCorruption, 13, 4, 0.05),
      episode(TelemetryFaultKind::kResponseLoss, 17, 2, 0.95),
  };
  Experiment exp(cfg);

  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp.launch_task(req);
  if (!task) {
    std::puts("  FAILED: cluster rejected the task");
    return 1;
  }
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

  exp.hunter().start(exp.events().now() + SimTime::minutes(25));
  exp.events().run_all();
  exp.hunter().finalize();

  const auto& ch = exp.hunter().telemetry_channel().counters();
  const auto det = exp.hunter().detector_counters();
  const std::size_t cases = exp.hunter().failure_cases().size();
  std::printf("  plane lied         : %llu dropped, %llu duplicated, "
              "%llu delayed, %llu skewed, %llu corrupted\n",
              static_cast<unsigned long long>(ch.results_dropped),
              static_cast<unsigned long long>(ch.results_duplicated),
              static_cast<unsigned long long>(ch.results_delayed),
              static_cast<unsigned long long>(ch.timestamps_skewed),
              static_cast<unsigned long long>(ch.rtt_corrupted));
  std::printf("  detector defenses  : %llu dups rejected, %llu stale "
              "rejected, %llu windows below quorum\n",
              static_cast<unsigned long long>(det.duplicates_rejected),
              static_cast<unsigned long long>(det.stale_rejected),
              static_cast<unsigned long long>(det.windows_insufficient));
  std::printf("  failure cases      : %zu (want 0)\n", cases);
  const bool pass = cases == 0 && ch.results_dropped > 0 &&
                    ch.results_duplicated > 0 && ch.results_delayed > 0 &&
                    ch.timestamps_skewed > 0 && ch.rtt_corrupted > 0 &&
                    det.duplicates_rejected > 0 && det.stale_rejected > 0 &&
                    det.windows_insufficient > 0;
  std::printf("\ngray-telemetry gate: %s\n\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

/// Telemetry drill phase B: an analyzer blackout spanning an in-flight
/// failure case must not change the outcome — the warm restart from the
/// blackout-entry checkpoint resumes the case, and its verdict (method and
/// culprit set) matches the uninterrupted run on the same seed, with no
/// extra cases.
struct BlackoutVerdict {
  std::size_t cases = 0;
  bool detected = false;
  LocalizationMethod method = LocalizationMethod::kUnlocalized;
  std::vector<sim::ComponentRef> culprits;
  std::uint64_t restores = 0;
  /// Every case timeline must stay monotone in sim time even when stages
  /// straddle an analyzer blackout + warm restore.
  bool timelines_monotone = true;
};

BlackoutVerdict run_blackout_scenario(bool with_blackout) {
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.seed = 6300;
  if (with_blackout) {
    cfg.hunter.telemetry.faults = {
        {sim::TelemetryFaultKind::kAnalyzerBlackout, SimTime::minutes(6),
         SimTime::minutes(8) + SimTime::seconds(30), 0.0}};
  }
  Experiment exp(cfg);

  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp.launch_task(req);
  if (!task) return {};
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

  // A real fault whose lifetime straddles the blackout window.
  const auto victim = exp.orchestrator().endpoints_of_task(*task)[9];
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      SimTime::minutes(3), SimTime::minutes(11));

  exp.hunter().start(exp.events().now() + SimTime::minutes(20));
  exp.events().run_all();
  exp.hunter().finalize();

  BlackoutVerdict v;
  v.cases = exp.hunter().failure_cases().size();
  const auto score =
      score_campaign(exp.hunter().failure_cases(), exp.faults(),
                     exp.topology());
  v.detected = score.detected_true > 0;
  if (!exp.hunter().failure_cases().empty()) {
    const auto& loc = exp.hunter().failure_cases().front().localization;
    v.method = loc.method;
    v.culprits = loc.culprits;
  }
  v.restores = exp.hunter().analyzer_restores();
  for (const auto& c : exp.hunter().failure_cases()) {
    for (std::size_t i = 1; i < c.timeline.entries.size(); ++i) {
      if (c.timeline.entries[i].at < c.timeline.entries[i - 1].at) {
        v.timelines_monotone = false;
      }
    }
  }
  return v;
}

int run_blackout_restore_drill() {
  std::puts("Blackout drill: analyzer dies mid-incident, restores warm\n");
  const BlackoutVerdict honest = run_blackout_scenario(false);
  const BlackoutVerdict blackout = run_blackout_scenario(true);
  std::printf("  uninterrupted run  : %zu case(s), method %s, %zu culprit(s)\n",
              honest.cases, std::string(to_string(honest.method)).c_str(),
              honest.culprits.size());
  std::printf("  blackout run       : %zu case(s), method %s, %zu "
              "culprit(s), %llu restore(s)\n",
              blackout.cases, std::string(to_string(blackout.method)).c_str(),
              blackout.culprits.size(),
              static_cast<unsigned long long>(blackout.restores));
  std::printf("  timelines monotone : %s\n",
              blackout.timelines_monotone ? "yes" : "NO");
  const bool pass = honest.detected && blackout.detected &&
                    blackout.cases == honest.cases &&
                    blackout.method == honest.method &&
                    blackout.culprits == honest.culprits &&
                    blackout.restores == 1 && honest.timelines_monotone &&
                    blackout.timelines_monotone;
  std::printf("\nblackout gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run_telemetry_gate() {
  const int gray_rc = run_gray_telemetry_drill();
  const int blackout_rc = run_blackout_restore_drill();
  return (gray_rc == 0 && blackout_rc == 0) ? 0 : 1;
}

/// Forensic gate: a drill with a real fault must open at least one failure
/// case, and the flight recorder must hold a self-contained forensic bundle
/// for it — parseable JSON whose timeline carries every stage from
/// case.open to case.close, with non-empty window history for the
/// offending pairs. Every case id is unique and its bundle names it.
int run_forensic_gate() {
  std::puts("Forensic gate: fault drill with flight recorder on\n");
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.seed = 6400;
  cfg.obs.metrics = true;
  Experiment exp(cfg);

  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp.launch_task(req);
  if (!task) {
    std::puts("  FAILED: cluster rejected the task");
    return 1;
  }
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

  const auto victim = exp.orchestrator().endpoints_of_task(*task)[9];
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      SimTime::minutes(3), SimTime::minutes(11));

  exp.hunter().start(exp.events().now() + SimTime::minutes(20));
  exp.events().run_all();
  exp.hunter().finalize();

  const auto& rec = exp.obs().recorder;
  const auto& cases = exp.hunter().failure_cases();
  std::printf("  failure cases      : %zu (want >= 1)\n", cases.size());
  std::printf("  bundles resident   : %zu\n", rec.bundles().size());
  if (cases.empty()) {
    std::puts("\nforensic gate: FAIL (no case opened)");
    return 1;
  }

  bool all_ok = true;
  for (const auto& c : cases) {
    const std::string* bundle = rec.bundle_of(c.id);
    if (bundle == nullptr) {
      std::printf("  case %u: NO BUNDLE\n", c.id);
      all_ok = false;
      continue;
    }
    const bool parses = obs::json_valid(*bundle);
    if (!parses) {
      // Leave the evidence on disk for whoever debugs the malformed bundle.
      char fname[64];
      std::snprintf(fname, sizeof fname, "forensic_bundle_case%u.json", c.id);
      std::ofstream(fname) << *bundle;
    }
    // Every causal stage present, and at least one recorded window (the
    // "flags" key only appears inside window objects).
    const bool stages = bundle->find("\"case.open\"") != std::string::npos &&
                        bundle->find("\"anomaly\"") != std::string::npos &&
                        bundle->find("\"localize\"") != std::string::npos &&
                        bundle->find("\"case.close\"") != std::string::npos;
    const bool windows = bundle->find("\"flags\":") != std::string::npos;
    const bool votes = bundle->find("\"source\":") != std::string::npos;
    std::printf("  case %u: %zu bytes, json %s, stages %s, windows %s, "
                "votes %s\n",
                c.id, bundle->size(), parses ? "ok" : "INVALID",
                stages ? "ok" : "MISSING", windows ? "ok" : "EMPTY",
                votes ? "ok" : "EMPTY");
    all_ok = all_ok && parses && stages && windows && votes;
  }
  all_ok = skh::examples::bundles_owned(cases, rec) && all_ok;
  const auto snap = exp.obs().registry.scrape();
  for (const auto& h : snap.histograms) {
    if (h.name == "latency.ingest_to_verdict_s") {
      std::printf("  ingest-to-verdict  : p50 %.1fs, p99 %.1fs over %llu "
                  "verdict(s)\n",
                  h.quantile(0.5), h.quantile(0.99),
                  static_cast<unsigned long long>(h.count));
    }
  }
  std::printf("\nforensic gate: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}

int run_full_drill() {
  std::puts("Fault drill: one injection per Table-1 issue type\n");
  int detected = 0, expected_detected = 0;
  bool trace_dumped = false;
  for (const auto& info : sim::all_issue_infos()) {
    ExperimentConfig cfg;
    cfg.topology.num_hosts = 8;
    cfg.topology.rails_per_host = 8;
    cfg.topology.hosts_per_segment = 8;
    cfg.hunter.inference.candidate_dp = {2, 4};
    cfg.seed = 7000 + static_cast<std::uint64_t>(info.type);
    // Sim-time trace of the whole drill. A 20-minute deployment here
    // records ~77k events; the ring holds them all, so the dump is whole.
    cfg.obs.tracing = true;
    cfg.obs.trace_capacity = 1 << 17;
    Experiment exp(cfg);

    cluster::TaskRequest req;
    req.num_containers = 4;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(6);
    const auto task = exp.launch_task(req);
    if (!task) continue;
    exp.run_to_running(*task);
    workload::ParallelismConfig par;
    par.tp = 8;
    par.pp = 2;
    par.dp = 2;
    (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

    const auto victim = exp.orchestrator().endpoints_of_task(*task)[9];
    const SimTime start = exp.events().now() + SimTime::minutes(3);
    const SimTime end = start + SimTime::minutes(8);
    sim::ComponentRef target;
    switch (info.target_kind) {
      case sim::ComponentKind::kPhysicalLink:
        target = {sim::ComponentKind::kPhysicalLink,
                  exp.topology().uplink_of(victim.rnic).value()};
        break;
      case sim::ComponentKind::kPhysicalSwitch: {
        const auto host = exp.topology().host_of(victim.rnic);
        target = {sim::ComponentKind::kPhysicalSwitch,
                  exp.topology()
                      .tor_at(exp.topology().segment_of(host),
                              exp.topology().rail_of(victim.rnic))
                      .value()};
        break;
      }
      case sim::ComponentKind::kRnic:
        target = {sim::ComponentKind::kRnic, victim.rnic.value()};
        break;
      case sim::ComponentKind::kVSwitch:
        target = {sim::ComponentKind::kVSwitch,
                  exp.topology().host_of(victim.rnic).value()};
        break;
      case sim::ComponentKind::kContainer:
        target = {sim::ComponentKind::kContainer, victim.container.value()};
        exp.events().schedule_at(start, [&exp, victim] {
          exp.orchestrator().crash_container(victim.container);
        });
        break;
      default:
        target = {sim::ComponentKind::kHost,
                  exp.topology().host_of(victim.rnic).value()};
        break;
    }
    if (info.type == sim::IssueType::kRepetitiveFlowOffloading ||
        info.type == sim::IssueType::kOffloadingFailure) {
      exp.events().schedule_at(start, [&exp, victim] {
        exp.overlay().invalidate_offload(victim.rnic);
      });
      exp.faults().inject(info.type, target, start, end, sim::FaultEffect{});
    } else if (info.type == sim::IssueType::kContainerCrash) {
      exp.faults().inject(info.type, target, start, end, sim::FaultEffect{});
    } else {
      exp.faults().inject(info.type, target, start, end);
    }

    exp.hunter().start(exp.events().now() + SimTime::minutes(20));
    exp.events().run_all();
    exp.hunter().finalize();
    const auto score = score_campaign(exp.hunter().failure_cases(),
                                      exp.faults(), exp.topology());
    const bool hit = score.detected_true > 0;
    if (info.probe_visible) {
      ++expected_detected;
      if (hit) ++detected;
    }
    // For the first detected issue, dump the artifacts an operator would
    // attach to the ticket: the failure case's causal timeline and the
    // deployment's Chrome-trace (load in chrome://tracing or Perfetto).
    if (hit && !trace_dumped) {
      trace_dumped = true;
      const auto& c = exp.hunter().failure_cases().front();
      std::printf("\n  case timeline for issue #%d:\n%s",
                  static_cast<int>(info.type), c.timeline.to_string().c_str());
      std::ofstream out("fault_drill_trace.json");
      const auto& tracer = exp.obs().tracer;
      obs::export_chrome_trace(tracer, out);
      std::printf("  %s sim-time trace (%zu events, %llu dropped) -> "
                  "fault_drill_trace.json\n\n",
                  tracer.dropped() > 0 ? "TRUNCATED (oldest evicted)" : "full",
                  tracer.size(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    std::printf("  #%-2d %-30s %-14s -> %s\n", static_cast<int>(info.type),
                std::string(sim::to_string(info.type)).c_str(),
                std::string(sim::to_string(info.symptom)).c_str(),
                hit              ? "DETECTED"
                : info.probe_visible ? "MISSED"
                                     : "invisible (expected miss, Sec 7.3)");
  }
  std::printf("\ndrill result: %d/%d probe-visible issues detected\n\n",
              detected, expected_detected);
  const int churn_rc = run_restart_storm_drill();
  const int telemetry_rc = run_telemetry_gate();
  return (detected == expected_detected && churn_rc == 0 &&
          telemetry_rc == 0)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr skh::examples::Gate kGates[] = {
      {"--churn-gate", run_restart_storm_drill},
      {"--telemetry-gate", run_telemetry_gate},
      {"--forensic-gate", run_forensic_gate},
  };
  return skh::examples::dispatch_gates(argc, argv, kGates, run_full_drill);
}
