// Experiment harness: a fully wired simulated deployment in one object.
//
// Examples and benches (and downstream users reproducing the paper's
// experiments) need the same boilerplate: build a rail-optimized topology,
// wire overlay + orchestrator + fault injector + SkeletonHunter onto one
// event queue, launch tasks, and derive the workload observations that
// skeleton inference consumes. This header packages that plumbing.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/orchestrator.h"
#include "core/skeleton_hunter.h"
#include "core/skeleton_inference.h"
#include "obs/context.h"
#include "sim/fault.h"
#include "workload/collective_trace.h"
#include "workload/traffic.h"

namespace skh::core {

struct ExperimentConfig {
  topo::TopologyConfig topology{};
  SkeletonHunterConfig hunter{};
  std::uint64_t seed = 42;
  /// Observability wiring: with `obs.metrics` the deployment's registry and
  /// tracer attach to the orchestrator and the whole detection pipeline;
  /// without it no context is attached anywhere (the pre-obs baseline).
  obs::ObsConfig obs{};
};

/// One simulated deployment: topology, overlay, orchestrator, fault
/// injector, and a SkeletonHunter instance sharing an event queue.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& cfg);

  // Non-copyable, non-movable: subsystems hold references to each other.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Submit a task and register it with SkeletonHunter (preload phase).
  /// Returns nullopt when the cluster lacks capacity.
  [[nodiscard]] std::optional<TaskId> launch_task(
      const cluster::TaskRequest& req);

  /// Advance simulated time until all containers of `task` are Running.
  void run_to_running(TaskId task,
                      SimTime max_wait = SimTime::minutes(12));

  /// Build the task's layout under `par` (or a default derived from shape).
  [[nodiscard]] workload::TaskLayout layout_of(
      TaskId task,
      std::optional<workload::ParallelismConfig> par = std::nullopt) const;

  /// Synthesize the per-endpoint burst observations of a layout.
  [[nodiscard]] std::vector<EndpointObservation> observations_for(
      const workload::TaskLayout& layout,
      const workload::BurstConfig& bcfg = {}) const;

  /// Convenience: infer + apply the runtime skeleton for a task.
  std::optional<InferredSkeleton> apply_skeleton(
      TaskId task, const workload::TaskLayout& layout,
      const workload::BurstConfig& bcfg = {});

  /// Map a churn plan (see sim/fault.h) onto orchestrator calls, scheduled
  /// on the event queue at each event's instant: kRestart ->
  /// restart_container, kMigrate -> migrate_container, kCrash ->
  /// crash_container, kAgentDeath -> a phantom fault on the victim's
  /// container component for the event's duration (§7.3: the sidecar dies,
  /// not the tenant). Events aimed past the task's container count are
  /// ignored.
  void schedule_churn(TaskId task, const std::vector<sim::ChurnEvent>& plan);

  /// Turn on the collective signal plane for a task: build its
  /// communicators from `layout`, register them with the hunter, and
  /// schedule step-trace emission, one training iteration every 30 s,
  /// until `until`. `plan` holds the host-side faults (hangs, stragglers,
  /// slow hosts) — failures the probe mesh cannot see; pass an empty plan
  /// for a healthy-host run (zero RNG draws, so pre-collective seeds replay
  /// unchanged). Probe-visible ground-truth network faults on an
  /// endpoint's RNIC, uplink, host or container couple into its step
  /// durations (the cross-plane agreement channel); phantom faults never
  /// do — a dead sidecar is invisible to the tenant's collectives.
  void enable_collective_plane(TaskId task, const workload::TaskLayout& layout,
                               const sim::CollectiveFaultPlan& plan,
                               SimTime until);

  /// Chained FNV-1a fold over every step record emitted by every enabled
  /// plane, in emission order — the byte-identity witness for the trace
  /// determinism gates.
  [[nodiscard]] std::uint64_t collective_fingerprint() const noexcept {
    return collective_fp_;
  }

  /// RNIC rank of an endpoint within its container.
  [[nodiscard]] std::uint32_t rank_of(const Endpoint& ep) const;

  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] overlay::OverlayNetwork& overlay() noexcept {
    return overlay_;
  }
  [[nodiscard]] sim::EventQueue& events() noexcept { return events_; }
  [[nodiscard]] sim::FaultInjector& faults() noexcept { return faults_; }
  [[nodiscard]] cluster::Orchestrator& orchestrator() noexcept {
    return orch_;
  }
  [[nodiscard]] SkeletonHunter& hunter() noexcept { return hunter_; }
  [[nodiscard]] RngStream& rng() noexcept { return rng_; }
  /// The deployment's observability context (registry + tracer). Valid
  /// whether or not it is attached to the pipeline (`cfg.obs.metrics`).
  [[nodiscard]] obs::Context& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::Context& obs() const noexcept { return obs_; }

 private:
  /// One enabled plane: the generator plus the batch emitted last tick,
  /// held until the next tick has aged it past the hang timeout.
  struct CollectivePlaneState {
    workload::CollectiveTraceGenerator gen;
    TaskId task;
    std::uint32_t next_iteration = 0;
    std::vector<workload::StepRecord> pending;
  };
  /// Ingest the pending batch, emit the next iteration, reschedule.
  void collective_tick(CollectivePlaneState* st, SimTime until);

  RngStream rng_;
  topo::Topology topo_;
  overlay::OverlayNetwork overlay_;
  sim::EventQueue events_;
  sim::FaultInjector faults_;
  obs::Context obs_;
  cluster::Orchestrator orch_;
  SkeletonHunter hunter_;
  /// Stable addresses: event-queue lambdas capture raw pointers into these.
  std::vector<std::unique_ptr<CollectivePlaneState>> collective_planes_;
  std::uint64_t collective_fp_ = 0xcbf29ce484222325ull;
};

}  // namespace skh::core
