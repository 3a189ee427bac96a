// Collective drill: exercise the second signal plane end to end.
//
// Scenario A (--silent-hang-gate): an NCCL-level hang on one container of
// a healthy network. The probe mesh is structurally blind to it — the
// drill requires ZERO probe-plane cases and exactly ONE network-silent
// case, localized to the hung container through its wait-for chain, with
// a parseable forensic bundle carrying the collective evidence (and every
// case's bundle naming its own case); the verdict must be identical at 1
// and 4 analyzer shards.
//
// Scenario B (--corroboration-gate): a real RNIC fault with the plane on
// and healthy hosts. The collective verdicts it triggers must land on the
// probe-plane case as cross-plane agreements (confidence > 1.0) and leave
// no separate network-silent ticket behind.
//
// Scenario C (--determinism-gate): a campaign with host-side fault storms
// replayed at 1, 4, and 16 runner threads must produce bit-identical
// scores, silent-case counts, and step-trace fingerprints.
#include <cstdio>
#include <string>
#include <vector>

#include "core/harness.h"
#include "core/metrics.h"
#include "drill_gates.h"
#include "obs/json_lint.h"
#include "runner/campaign_runner.h"

using namespace skh;
using namespace skh::core;

namespace {

struct SilentHangOutcome {
  std::size_t probe_cases = 0;
  std::size_t silent_cases = 0;
  std::uint64_t verdicts = 0;
  bool method_chain = false;
  bool localized_to_victim = false;
  bool waiters_nonempty = false;
  bool bundle_ok = false;
  std::vector<sim::ComponentRef> culprits;
};

SilentHangOutcome run_silent_hang_scenario(std::size_t shards) {
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.hunter.analyzer_shards = shards;
  cfg.seed = 6500;
  cfg.obs.metrics = true;
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
  const auto layout = exp.layout_of(*task, par);
  (void)exp.apply_skeleton(*task, layout);

  // The hang: container 2 stalls mid-collective for five minutes. No
  // network component is touched — every probe keeps answering normally.
  const std::uint32_t victim_index = 2;
  sim::CollectiveFaultPlan plan;
  plan.faults = {sim::make_collective_hang(
      victim_index, exp.events().now() + SimTime::minutes(3),
      SimTime::minutes(5))};
  exp.enable_collective_plane(*task, layout, plan,
                              exp.events().now() + SimTime::minutes(18));

  exp.hunter().start(exp.events().now() + SimTime::minutes(20));
  exp.events().run_all();
  exp.hunter().finalize();

  SilentHangOutcome o;
  o.verdicts = exp.hunter().collective_verdicts();
  const ContainerId victim =
      exp.orchestrator().task(*task).containers[victim_index];
  for (const auto& c : exp.hunter().failure_cases()) {
    if (c.cls == CaseClass::kProbePlane) {
      ++o.probe_cases;
      continue;
    }
    ++o.silent_cases;
    o.method_chain =
        c.localization.method == LocalizationMethod::kCollectiveChain;
    o.culprits = c.localization.culprits;
    for (const auto& ref : c.localization.culprits) {
      if (ref.kind == sim::ComponentKind::kContainer &&
          ref.index == victim.value()) {
        o.localized_to_victim = true;
      }
    }
    for (const auto& v : c.collective_evidence) {
      if (!v.waiters.empty()) o.waiters_nonempty = true;
    }
    const std::string* bundle = exp.obs().recorder.bundle_of(c.id);
    o.bundle_ok =
        bundle != nullptr && obs::json_valid(*bundle) &&
        bundle->find("\"class\":\"network-silent\"") != std::string::npos &&
        bundle->find("\"collective\":") != std::string::npos &&
        bundle->find("\"kind\":\"hang\"") != std::string::npos;
  }
  o.bundle_ok = skh::examples::bundles_owned(exp.hunter().failure_cases(),
                                             exp.obs().recorder) &&
                o.bundle_ok;
  return o;
}

int run_silent_hang_gate() {
  std::puts("Silent-hang drill: NCCL hang on a healthy network\n");
  const SilentHangOutcome a = run_silent_hang_scenario(1);
  const SilentHangOutcome b = run_silent_hang_scenario(4);
  std::printf("  collective verdicts: %llu\n",
              static_cast<unsigned long long>(a.verdicts));
  std::printf("  probe-plane cases  : %zu (want 0)\n", a.probe_cases);
  std::printf("  network-silent     : %zu (want 1)\n", a.silent_cases);
  std::printf("  method             : %s\n",
              a.method_chain ? "collective-chain" : "WRONG");
  std::printf("  victim localized   : %s, waiters %s, bundle %s\n",
              a.localized_to_victim ? "yes" : "NO",
              a.waiters_nonempty ? "recorded" : "EMPTY",
              a.bundle_ok ? "ok" : "BAD");
  const bool shard_identical =
      a.probe_cases == b.probe_cases && a.silent_cases == b.silent_cases &&
      a.verdicts == b.verdicts && a.culprits == b.culprits;
  std::printf("  shards 1 vs 4      : %s\n",
              shard_identical ? "identical" : "DIVERGED");
  const bool pass = a.probe_cases == 0 && a.silent_cases == 1 &&
                    a.verdicts > 0 && a.method_chain &&
                    a.localized_to_victim && a.waiters_nonempty &&
                    a.bundle_ok && b.bundle_ok && shard_identical;
  std::printf("\nsilent-hang gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run_corroboration_gate() {
  std::puts("Corroboration drill: real RNIC fault with the plane on\n");
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.seed = 6600;
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
  (void)exp.apply_skeleton(*task, layout);

  // A real network fault: the victim RNIC goes dark. Both planes see it —
  // the probe mesh directly, the collectives through the dead rank's ring.
  const auto victim = exp.orchestrator().endpoints_of_task(*task)[9];
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      SimTime::minutes(3), SimTime::minutes(11));
  const sim::CollectiveFaultPlan healthy_hosts;  // empty: hosts are fine
  exp.enable_collective_plane(*task, layout, healthy_hosts,
                              exp.events().now() + SimTime::minutes(18));

  exp.hunter().start(exp.events().now() + SimTime::minutes(20));
  exp.events().run_all();
  exp.hunter().finalize();

  const auto score = score_campaign(exp.hunter().failure_cases(),
                                    exp.faults(), exp.topology());
  std::size_t silent = 0;
  std::uint32_t agreements = 0;
  double confidence = 0.0;
  for (const auto& c : exp.hunter().failure_cases()) {
    if (c.cls == CaseClass::kTenantVisibleNetworkSilent) {
      ++silent;
      continue;
    }
    if (c.collective_agreements > agreements) {
      agreements = c.collective_agreements;
      confidence = c.localization.confidence;
    }
  }
  std::printf("  fault detected     : %s\n",
              score.detected_true > 0 ? "yes" : "NO");
  std::printf("  silent tickets     : %zu (want 0: probe plane owns it)\n",
              silent);
  std::printf("  agreements         : %u (want >= 1)\n", agreements);
  std::printf("  confidence         : %.2f (want > 1.0)\n", confidence);
  const bool pass = score.detected_true > 0 && silent == 0 &&
                    agreements >= 1 && confidence > 1.0;
  std::printf("\ncorroboration gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run_determinism_gate() {
  std::puts("Determinism drill: host-fault campaign at 1/4/16 threads\n");
  runner::CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.tasks = {{4, 8, 2, 2}, {4, 8, 2, 2}};
  cfg.task_lifetime = SimTime::hours(4);
  cfg.visible_faults = 2;
  cfg.invisible_faults = 0;
  cfg.phantom_agents = 0;
  cfg.collective_plane = true;
  cfg.collective_faults = 3;
  const std::vector<std::uint64_t> seeds = {101, 202};

  const auto t1 = runner::run_many(cfg, seeds, 1);
  const auto t4 = runner::run_many(cfg, seeds, 4);
  const auto t16 = runner::run_many(cfg, seeds, 16);

  bool identical = true;
  std::uint64_t steps = 0;
  std::size_t silent = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto& a = t1.runs[i];
    const auto& b = t4.runs[i];
    const auto& c = t16.runs[i];
    steps += a.collective_steps;
    silent += a.cases_network_silent;
    const bool same =
        a.score == b.score && a.score == c.score &&
        a.collective_fingerprint == b.collective_fingerprint &&
        a.collective_fingerprint == c.collective_fingerprint &&
        a.collective_steps == b.collective_steps &&
        a.collective_steps == c.collective_steps &&
        a.cases_network_silent == b.cases_network_silent &&
        a.cases_network_silent == c.cases_network_silent &&
        a.collective_events == b.collective_events &&
        a.collective_events == c.collective_events;
    std::printf("  seed %llu: fingerprint %016llx, %llu steps, %zu silent "
                "case(s) -> %s\n",
                static_cast<unsigned long long>(seeds[i]),
                static_cast<unsigned long long>(a.collective_fingerprint),
                static_cast<unsigned long long>(a.collective_steps),
                a.cases_network_silent, same ? "identical" : "DIVERGED");
    identical = identical && same;
  }
  const bool pass = identical && steps > 0;
  std::printf("\ndeterminism gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run_full_drill() {
  const int hang_rc = run_silent_hang_gate();
  std::puts("");
  const int corr_rc = run_corroboration_gate();
  std::puts("");
  const int det_rc = run_determinism_gate();
  return (hang_rc == 0 && corr_rc == 0 && det_rc == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr skh::examples::Gate kGates[] = {
      {"--silent-hang-gate", run_silent_hang_gate},
      {"--corroboration-gate", run_corroboration_gate},
      {"--determinism-gate", run_determinism_gate},
  };
  return skh::examples::dispatch_gates(argc, argv, kGates, run_full_drill);
}
