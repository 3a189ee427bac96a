// Observability overhead gate: metrics/tracing instrumentation is compiled
// into every pipeline stage unconditionally, so its disabled-path cost must
// stay in the noise. This bench runs the same Monte-Carlo campaign with obs
// fully detached (the pre-obs baseline: unbound handles, one null-check per
// site) and with the default production posture (metrics on, tracing
// compiled in but disabled) and fails if the gated run is more than 1%
// slower than baseline, modulo an absolute slack floor for short runs.
//
// Noise control: each rep is timed in process CPU time
// (CLOCK_PROCESS_CPUTIME_ID), which time spent descheduled behind other
// processes does not inflate the way it inflates wall time; wall time is
// printed beside it. Reps are interleaved (baseline, gated, baseline, ...)
// so slow drift (thermal, cache pressure from neighbours) hits both sides,
// and each side scores its *minimum* — the rep least disturbed.
// `SKH_OBS_OVERHEAD_TOL_PCT` overrides the relative tolerance for
// exceptionally noisy CI hosts.
//
// The second gate re-checks the runner's determinism guarantee with obs
// enabled: per-seed scores, fault schedules, and the merged fleet snapshot
// must be bit-identical at 1 and 4 worker threads.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "runner/campaign_runner.h"

using namespace skh;
using namespace skh::runner;

namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 4;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.probe_interval = SimTime::seconds(5);
  cfg.hunter.inference.candidate_dp = {2};
  cfg.tasks = {{4, 4, 2, 2}, {4, 4, 4, 1}};
  cfg.visible_faults = 4;
  cfg.invisible_faults = 0;
  cfg.phantom_agents = 0;
  cfg.fault_gap = SimTime::minutes(8);
  cfg.fault_duration = SimTime::minutes(4);
  cfg.drain = SimTime::minutes(10);
  return cfg;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One campaign's cost: process CPU seconds (the gated figure) and wall
/// seconds (reported beside it).
struct Cost {
  double cpu_s = 1e300;
  double wall_s = 1e300;
};

Cost run_once(const CampaignConfig& cfg,
              const std::vector<std::uint64_t>& seeds) {
  const double c0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const CampaignSet set = run_many(cfg, seeds, 1);
  const auto t1 = std::chrono::steady_clock::now();
  const double c1 = process_cpu_s();
  if (set.runs.size() != seeds.size()) std::abort();  // keep the work live
  return {c1 - c0, std::chrono::duration<double>(t1 - t0).count()};
}

/// Keep the per-field minimum over reps.
void keep_min(Cost& best, const Cost& rep) {
  best.cpu_s = std::min(best.cpu_s, rep.cpu_s);
  best.wall_s = std::min(best.wall_s, rep.wall_s);
}

bool same_results(const CampaignSet& a, const CampaignSet& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (!(a.runs[i].score == b.runs[i].score)) return false;
    if (a.runs[i].faults.size() != b.runs[i].faults.size()) return false;
    for (std::size_t j = 0; j < a.runs[i].faults.size(); ++j) {
      const auto& fa = a.runs[i].faults[j];
      const auto& fb = b.runs[i].faults[j];
      if (fa.type != fb.type || !(fa.target == fb.target) ||
          fa.start != fb.start || fa.end != fb.end) {
        return false;
      }
    }
    if (!(a.runs[i].metrics == b.runs[i].metrics)) return false;
  }
  return a.fleet == b.fleet;
}

}  // namespace

int main() {
  print_banner("obs overhead gate: instrumented-but-idle vs detached");

  CampaignConfig baseline_cfg = base_config();
  baseline_cfg.obs.metrics = false;  // nothing attached: pre-obs hot path

  CampaignConfig gated_cfg = base_config();
  gated_cfg.obs.metrics = true;    // production posture: registry bound,
  gated_cfg.obs.tracing = false;   // tracer compiled in but disabled

  const auto seeds = split_seeds(0x0b5'0b5, 6);

  constexpr int kReps = 5;
  (void)run_once(baseline_cfg, seeds);  // warm caches / page-in
  Cost base;
  Cost gated;
  for (int rep = 0; rep < kReps; ++rep) {
    keep_min(base, run_once(baseline_cfg, seeds));
    keep_min(gated, run_once(gated_cfg, seeds));
  }
  const double best_base = base.cpu_s;
  const double best_gated = gated.cpu_s;

  double tol_pct = 1.0;
  if (const char* env = std::getenv("SKH_OBS_OVERHEAD_TOL_PCT")) {
    tol_pct = std::atof(env);
  }
  // Short campaigns bottom out on scheduler jitter: allow 20 ms of absolute
  // slack so the relative gate only bites once it is measurable.
  constexpr double kAbsSlackS = 0.020;
  const double overhead_pct = 100.0 * (best_gated - best_base) / best_base;
  const bool within = best_gated <= best_base * (1.0 + tol_pct / 100.0) ||
                      best_gated - best_base <= kAbsSlackS;

  const std::string best = "best of " + std::to_string(kReps);
  TablePrinter table({"variant", best + " CPU (s)", best + " wall (s)",
                      "CPU overhead"});
  table.add_row({"obs detached (baseline)", TablePrinter::num(best_base, 3),
                 TablePrinter::num(base.wall_s, 3), "-"});
  table.add_row({"metrics on, tracing off", TablePrinter::num(best_gated, 3),
                 TablePrinter::num(gated.wall_s, 3),
                 TablePrinter::num(overhead_pct, 2) + "%"});
  table.print();
  std::printf("\ngate (process CPU time): <= %.2f%% relative or <= %.0f ms "
              "absolute -> %s\n",
              tol_pct, kAbsSlackS * 1e3, within ? "PASS" : "FAIL");
  if (!within) {
    std::printf("FATAL: idle observability costs %.2f%% of campaign CPU "
                "time\n", overhead_pct);
    return 1;
  }

  // Determinism with obs enabled: thread count must not leak into scores,
  // fault schedules, per-seed scrapes, or the fleet snapshot.
  const CampaignSet one = run_many(gated_cfg, seeds, 1);
  const CampaignSet four = run_many(gated_cfg, seeds, 4);
  const bool deterministic = same_results(one, four);
  std::printf("determinism: 1-thread vs 4-thread campaign results "
              "bit-identical -> %s\n", deterministic ? "PASS" : "FAIL");
  if (!deterministic) {
    std::printf("FATAL: obs instrumentation broke thread-count "
                "invariance\n");
    return 1;
  }

  std::printf("fleet snapshot: %zu counters, %zu gauges, %zu histograms; "
              "probes issued: %llu\n",
              one.fleet.counters.size(), one.fleet.gauges.size(),
              one.fleet.histograms.size(),
              static_cast<unsigned long long>(
                  one.fleet.counter_or("probe.issued")));
  return 0;
}
