// Monte-Carlo campaign runner: N independent fault-injection campaigns,
// optionally in parallel, with bit-identical results at any thread count.
//
// One campaign = one fully isolated simulated deployment (its own
// Experiment, hence its own EventQueue, FaultInjector, orchestrator, and
// SkeletonHunter) driven by a deterministically derived seed. Because each
// run's RNG stream depends only on (master seed, run index) — see
// split_seed in common/rng.h — the per-seed CampaignScore vector is a pure
// function of (config, seeds), independent of thread count and OS
// scheduling. run_many is the facade every sweep/ablation bench builds on:
// it fans runs across a ThreadPool and folds the per-seed scores into a
// ScoreSummary (mean / stddev / 95% CI per §7.1 metric).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/harness.h"
#include "core/metrics.h"
#include "obs/metrics.h"
#include "sim/fault.h"

namespace skh::runner {

/// Shape of one tenant task launched at campaign start.
struct TaskShape {
  std::uint32_t containers = 8;
  std::uint32_t gpus_per_container = 8;  ///< tensor-parallel degree (tp)
  std::uint32_t dp = 4;                  ///< data-parallel replicas
  std::uint32_t pp = 2;                  ///< pipeline stages
};

/// Everything a campaign does except the seed. The same config replayed
/// with the same seed reproduces the identical fault schedule and score.
struct CampaignConfig {
  topo::TopologyConfig topology{.num_hosts = 32,
                                .rails_per_host = 8,
                                .hosts_per_segment = 8};
  core::SkeletonHunterConfig hunter{};
  std::vector<TaskShape> tasks{{8, 8, 4, 2}, {4, 8, 2, 2}};
  SimTime task_lifetime = SimTime::hours(24);

  /// Probe-visible faults, cycling over eight Table 1 issue types in order
  /// (see campaign_runner.cpp); victims are drawn from the campaign's own
  /// RNG stream.
  std::size_t visible_faults = 12;
  /// Intra-host (probe-invisible) faults: the §7.3 recall bound.
  std::size_t invisible_faults = 1;
  /// Crashed sidecar agents (phantoms): the §7.3 precision bound.
  std::size_t phantom_agents = 1;

  SimTime fault_gap = SimTime::minutes(11);   ///< spacing between faults
  SimTime fault_duration = SimTime::minutes(6);
  SimTime drain = SimTime::minutes(20);       ///< probing past the last fault

  /// Mid-run churn: per-task restart / migration events scheduled from the
  /// campaign's own "churn-plan" RNG fork, so the plan — like the fault
  /// schedule — is a pure function of the seed and bit-identical at any
  /// runner thread count. 0/0 disables churn.
  std::size_t churn_restarts = 0;
  std::size_t churn_migrations = 0;
  SimTime churn_start = SimTime::minutes(8);    ///< after campaign start
  SimTime churn_spacing = SimTime::minutes(4);

  /// Gray measurement plane: number of telemetry fault episodes, cycling
  /// over the kinds in sim::make_telemetry_storm, scheduled from the
  /// campaign's own "telemetry-plan" RNG fork (bit-identical at any thread
  /// count). 0 keeps the channel honest — zero extra RNG draws, so existing
  /// seeds replay unchanged.
  std::size_t telemetry_faults = 0;
  SimTime telemetry_start = SimTime::minutes(6);
  SimTime telemetry_spacing = SimTime::minutes(9);
  SimTime telemetry_duration = SimTime::minutes(4);

  /// Collective signal plane: when enabled, every launched task registers
  /// its communicators and emits per-iteration step traces; host-side
  /// fault episodes (hang / straggler / slow host — invisible to the probe
  /// mesh) come from the campaign's own "collective-plan" RNG fork,
  /// cycling through sim::make_collective_storm. Off by default: zero
  /// extra RNG draws, so existing seeds replay unchanged.
  bool collective_plane = false;
  std::size_t collective_faults = 0;

  /// Per-campaign observability (one registry + tracer per seed, recorded
  /// on whichever worker runs the seed, so scrapes stay bit-stable at any
  /// thread count). `obs.metrics = false` detaches everything — the
  /// pre-obs baseline the overhead bench compares against.
  obs::ObsConfig obs{};
};

/// One campaign's outcome. `faults` is the injected ground-truth schedule,
/// kept so callers (and the determinism tests) can compare schedules
/// across seeds and thread counts.
struct RunResult {
  std::uint64_t seed = 0;
  core::CampaignScore score{};
  std::vector<sim::Fault> faults;
  std::size_t tasks_launched = 0;
  std::size_t failure_cases = 0;
  std::size_t probes_sent = 0;
  /// Churn events scheduled across all monitored tasks this run.
  std::size_t churn_events = 0;
  /// Telemetry fault episodes the measurement plane applied this run.
  std::size_t telemetry_events = 0;
  /// Detector ingest counters; pool across runs with core::merge_counters.
  core::DetectorCounters detector{};
  /// End-of-campaign registry scrape (empty when `cfg.obs.metrics` is off).
  obs::MetricsSnapshot metrics{};
  /// p99 of the end-to-end ingest-to-verdict latency histogram
  /// (`latency.ingest_to_verdict_s`), in sim-time seconds; 0 when obs is
  /// off or no case reached a verdict this run.
  double p99_verdict_latency_s = 0.0;
  /// Forensic bundles resident in the flight recorder at campaign end.
  std::size_t forensic_bundles = 0;
  /// Host-side collective fault episodes scheduled this run.
  std::size_t collective_events = 0;
  /// kTenantVisibleNetworkSilent cases the collective plane filed.
  std::size_t cases_network_silent = 0;
  /// Collective step records the diagnoser ingested.
  std::uint64_t collective_steps = 0;
  /// Chained FNV-1a over every emitted step record (0x...325 basis when
  /// the plane is off) — compared verbatim by the determinism gates.
  std::uint64_t collective_fingerprint = 0;
};

/// run_many's aggregate: per-seed results in input-seed order plus the
/// cross-seed statistical summary.
struct CampaignSet {
  std::vector<RunResult> runs;
  core::ScoreSummary summary;
  /// Fleet snapshot: per-seed registries merged in seed order — the
  /// cross-campaign totals `production_campaign` prints.
  obs::MetricsSnapshot fleet{};
};

/// Execute one campaign to completion on the calling thread.
[[nodiscard]] RunResult run_campaign(const CampaignConfig& cfg,
                                     std::uint64_t seed);

/// run_campaign that also hands back the finished deployment, for callers
/// that inspect what it leaves behind (failure cases, bundles, registry).
/// `result` receives exactly what run_campaign returns.
[[nodiscard]] std::unique_ptr<core::Experiment> run_campaign_experiment(
    const CampaignConfig& cfg, std::uint64_t seed, RunResult& result);

/// Execute one campaign per seed across `n_threads` workers (0 = hardware
/// concurrency; 1 = sequential on the calling thread). runs[i] always
/// corresponds to seeds[i] and is bit-identical at any thread count.
[[nodiscard]] CampaignSet run_many(const CampaignConfig& cfg,
                                   std::span<const std::uint64_t> seeds,
                                   std::size_t n_threads = 0);

/// Convenience: derive `n_runs` seeds from `master_seed` via split_seed.
[[nodiscard]] CampaignSet run_many(const CampaignConfig& cfg,
                                   std::uint64_t master_seed,
                                   std::size_t n_runs,
                                   std::size_t n_threads = 0);

}  // namespace skh::runner
