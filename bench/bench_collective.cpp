// Collective signal plane cost: step-trace ingest throughput and the
// campaign-level overhead of running the second plane at all.
//
// Two numbers matter. The diagnoser's ingest path runs once per emitted
// iteration over every registered communicator, so its per-step cost
// bounds how large a task the plane can watch (greppable:
// COLLECTIVE_INGEST_NS_PER_STEP). And turning the plane on inside a
// full campaign must stay cheap relative to the probe mesh it rides
// along with (COLLECTIVE_OVERHEAD_PCT, interleaved best-of-3). Both are
// report-only; the hard identity check — two generators over the same
// stream must fingerprint identically — gates the exit code, because a
// nondeterministic bench measures nothing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "collective/diag.h"
#include "runner/campaign_runner.h"
#include "workload/collective_trace.h"

using namespace skh;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Synthetic full-host placement: container c on host c with `tp` RNICs.
workload::TaskLayout big_layout() {
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 4;
  par.dp = 16;
  cluster::TaskInfo task;
  task.id = TaskId{0};
  task.request.num_containers = par.num_containers();
  task.request.gpus_per_container = par.tp;
  std::vector<cluster::ContainerInfo> containers;
  for (std::uint32_t c = 0; c < par.num_containers(); ++c) {
    cluster::ContainerInfo ci;
    ci.id = ContainerId{c};
    ci.task = task.id;
    ci.host = HostId{c};
    ci.index_in_task = c;
    for (std::uint32_t g = 0; g < par.tp; ++g) {
      ci.rnics.push_back(RnicId{c * par.tp + g});
    }
    task.containers.push_back(ci.id);
    containers.push_back(ci);
  }
  return workload::make_layout(task, containers, par);
}

}  // namespace

int main() {
  std::puts("Collective signal plane: ingest throughput and campaign cost\n");

  // --- ingest microbench: a TP8/PP4/DP16 task, 40 iterations ---------------
  const auto layout = big_layout();
  const auto groups = workload::build_collective_groups(layout);
  workload::CollectiveTraceGenerator gen(groups, {}, RngStream(11));
  workload::CollectiveTraceGenerator twin(groups, {}, RngStream(11));
  collective::CollectiveDiagnoser diag;
  for (const auto& g : groups) diag.register_group(g);

  constexpr std::uint32_t kIterations = 40;
  std::vector<std::vector<workload::StepRecord>> batches;
  std::uint64_t fp_a = 0xcbf29ce484222325ull, fp_b = fp_a;
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    const SimTime at = SimTime::seconds(30.0 * it);
    batches.push_back(gen.emit_iteration(it, at));
    fp_a = workload::fingerprint_records(batches.back(), fp_a);
    fp_b = workload::fingerprint_records(twin.emit_iteration(it, at), fp_b);
  }

  std::vector<collective::CollectiveVerdict> verdicts;
  const auto t0 = Clock::now();
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    diag.ingest(batches[it], SimTime::seconds(30.0 * (it + 1)), verdicts);
  }
  const double ingest_s = seconds_since(t0);
  const std::uint64_t steps = diag.steps_ingested();
  const double ns_per_step = steps == 0 ? 0.0 : ingest_s * 1e9 /
                                                    static_cast<double>(steps);
  std::printf("  communicators        : %zu\n", groups.size());
  std::printf("  steps ingested       : %llu (%u iterations)\n",
              static_cast<unsigned long long>(steps), kIterations);
  std::printf("  ingest wall          : %.3f ms (%.1f ns/step)\n",
              ingest_s * 1e3, ns_per_step);
  std::printf("  verdicts on healthy  : %zu (want 0)\n", verdicts.size());

  // --- campaign overhead: plane off vs on, interleaved best-of-3 ----------
  runner::CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 4;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2};
  cfg.tasks = {{4, 4, 2, 2}};
  cfg.visible_faults = 2;
  cfg.fault_gap = SimTime::minutes(8);
  cfg.fault_duration = SimTime::minutes(4);
  cfg.drain = SimTime::minutes(10);

  double best_off = 1e300, best_on = 1e300;
  std::uint64_t on_steps = 0;
  for (int rep = 0; rep < 3; ++rep) {
    cfg.collective_plane = false;
    const auto off0 = Clock::now();
    (void)runner::run_campaign(cfg, 4242);
    best_off = std::min(best_off, seconds_since(off0));
    cfg.collective_plane = true;
    cfg.collective_faults = 2;
    const auto on0 = Clock::now();
    const auto r = runner::run_campaign(cfg, 4242);
    best_on = std::min(best_on, seconds_since(on0));
    on_steps = r.collective_steps;
  }
  const double overhead_pct = (best_on - best_off) / best_off * 100.0;
  std::printf("  campaign wall        : %.3f s off, %.3f s on (%llu steps)\n",
              best_off, best_on, static_cast<unsigned long long>(on_steps));
  std::printf("  plane overhead       : %.1f%%\n\n", overhead_pct);

  // Greppable summary, one KEY=value per line.
  std::printf("COLLECTIVE_STEPS=%llu\n",
              static_cast<unsigned long long>(steps));
  std::printf("COLLECTIVE_INGEST_NS_PER_STEP=%.1f\n", ns_per_step);
  std::printf("COLLECTIVE_OVERHEAD_PCT=%.1f\n", overhead_pct);

  if (fp_a != fp_b) {
    std::puts("FAIL: twin generators over the same stream diverged");
    return 1;
  }
  if (!verdicts.empty()) {
    std::puts("FAIL: healthy trace raised verdicts");
    return 1;
  }
  return 0;
}
