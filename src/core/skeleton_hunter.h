// The SkeletonHunter system facade (§4, Figure 11): controller + agents +
// analyzer wired over the simulated cluster.
//
// Lifecycle per monitored task:
//   submit     -> preload: rail-pruned basic ping list computed immediately
//                 (before any container runs).
//   container  -> an agent spawns (sidecar) holding its slice of the basic
//   running       list; all targets stay inactive until the destination
//                 container *registers* — registration is fired by the
//                 orchestrator's running callback, i.e. by the data plane.
//   runtime    -> once throughput observations are supplied, traffic-
//                 skeleton inference replaces the agents' lists with the
//                 skeleton probing matrix (>95% smaller than full mesh).
//   each tick  -> agents probe their active targets; results stream into
//                 the anomaly detector; per-pair anomaly events aggregate
//                 into failure cases; quiet cases are localized with
//                 Algorithm 1 and closed.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/orchestrator.h"
#include "collective/diag.h"
#include "common/pool.h"
#include "core/anomaly.h"
#include "core/blacklist.h"
#include "core/sharded_detector.h"
#include "core/diagnostics.h"
#include "core/localize.h"
#include "core/ping_list_gen.h"
#include "core/skeleton_inference.h"
#include "obs/context.h"
#include "obs/timeline.h"
#include "probe/agent.h"
#include "probe/engine.h"
#include "probe/telemetry.h"

namespace skh::core {

struct SkeletonHunterConfig {
  SimTime probe_interval = SimTime::seconds(1);
  /// Probe-engine knobs, including the routing mode (static ECMP / adaptive
  /// / packet spray). A non-static mode forces `detector.track_paths` on —
  /// path diversity without per-path sub-series would just dilute the
  /// pair-level windows and hide exactly the gray members spray exists to
  /// expose.
  probe::EngineConfig engine{};
  DetectorConfig detector{};
  /// Analyzer shards the pair space is partitioned across (a pair's stable
  /// global id modulo the shard count; see core/sharded_detector.h).
  /// Verdicts are bit-identical at any shard count — sharding buys ingest
  /// parallelism, never behavior. 1 runs the same partition, shard job and
  /// merge as N, inline, with no worker pool.
  std::size_t analyzer_shards = 1;
  InferenceConfig inference{};
  bool incremental_activation = true;   ///< ablation: registration gating
  /// Gray measurement plane: the telemetry fault plan applied to every
  /// probe round between the sidecars and the analyzer (empty = honest
  /// channel, zero RNG draws). kAnalyzerBlackout episodes take the analyzer
  /// down entirely: on entry the hunter checkpoints and cold-resets its
  /// analyzer state, on exit it restores the checkpoint and resumes warm.
  sim::TelemetryFaultPlan telemetry{};
};

/// Which signal plane a failure case came from. Probe-plane cases are
/// scored against the injected network ground truth; network-silent cases
/// are tenant-visible incidents (NCCL hang, straggler host) the probe
/// mesh is structurally blind to — CCL-D/Mycroft territory, routed to the
/// tenant/host owners instead of netops.
enum class CaseClass : std::uint8_t {
  kProbePlane,
  kTenantVisibleNetworkSilent,
};

[[nodiscard]] std::string_view to_string(CaseClass c) noexcept;

/// One aggregated failure: the unit scored against injected ground truth.
struct FailureCase {
  /// Unique among the hunter's cases (one past the newest case's id), so
  /// the flight recorder's bundle for an id is this case's bundle.
  std::uint32_t id = 0;
  TaskId task;
  SimTime first_event;
  SimTime last_event;
  std::set<EndpointPair> pairs;
  std::vector<AnomalyEvent> events;
  Localization localization;
  bool closed = false;
  bool suppressed = false;  ///< transient, filtered before reporting
  SimTime closed_at;
  /// Which plane opened this case.
  CaseClass cls = CaseClass::kProbePlane;
  /// Collective verdicts attached to this case: the evidence itself for a
  /// network-silent case, corroboration for a probe-plane case.
  std::vector<collective::CollectiveVerdict> collective_evidence;
  /// Cross-plane agreements (collective verdicts whose root/waiters
  /// overlap this probe case's pairs).
  std::uint32_t collective_agreements = 0;
  /// Causal chain from the first anomalous window through scoring to the
  /// localization verdict — the ticket an operator would read (§6).
  obs::CaseTimeline timeline;
};

class SkeletonHunter {
 public:
  SkeletonHunter(const topo::Topology& topo,
                 overlay::OverlayNetwork& overlay,
                 cluster::Orchestrator& orchestrator,
                 sim::EventQueue& events, const sim::FaultInjector& faults,
                 RngStream rng, SkeletonHunterConfig cfg = {});

  /// Attach the observability context to the whole detection pipeline:
  /// this facade plus its probe engine, anomaly detector, and localizer.
  /// nullptr detaches all of them. Attach before `start()`.
  void attach_obs(obs::Context* ctx);

  /// Preload phase for a submitted task: compute its basic ping list.
  /// Must be called after Orchestrator::submit_task for the task to be
  /// monitored.
  void monitor_task(TaskId task);

  /// Supply throughput observations for the runtime inference phase; on a
  /// feasible inference the task's agents switch to the skeleton list.
  /// Returns the inference result (nullopt = infeasible or rejected by the
  /// fidelity validator; the basic list is kept either way).
  ///
  /// While a task is degraded by churn, batches accumulate instead: nullopt
  /// is returned until every live endpoint has two fresh post-churn batches
  /// (stale pre-churn series would just re-infer the skeleton the churn
  /// invalidated), then inference re-runs through the same fidelity gate.
  /// A failed re-inference resets the accumulation epoch.
  std::optional<InferredSkeleton> supply_observations(
      TaskId task, const std::vector<EndpointObservation>& obs);

  /// Whether churn has put the task in degraded mode (probing the basic
  /// list while fresh observations accumulate toward re-inference).
  [[nodiscard]] bool task_degraded(TaskId task) const;

  /// User opt-out (§7.3): stop probing this task entirely — for tenants
  /// who know their workload breaks the collective-communication
  /// assumptions.
  void opt_out(TaskId task);

  /// Begin probing: schedules a tick every probe_interval until `end`.
  void start(SimTime end);

  /// Close every open case (end of campaign) and localize them.
  void finalize();

  // --- results --------------------------------------------------------------
  [[nodiscard]] const std::vector<FailureCase>& failure_cases() const noexcept {
    return cases_;
  }
  /// Probe results the telemetry channel delivered to the analyzer over the
  /// whole run (results sent during a blackout never arrive). A plain
  /// counter: checkpoint() and restore() leave it alone.
  [[nodiscard]] std::size_t total_probes() const noexcept {
    return probes_delivered_;
  }
  /// Anomaly-detector ingest counters (probes, windows, LOF path split).
  [[nodiscard]] DetectorCounters detector_counters() const {
    return detector_.counters();
  }
  /// Current directed-target count across a task's agents (Fig. 15/16).
  [[nodiscard]] std::size_t current_targets(TaskId task) const;
  /// Components banned from scheduling so far (§8).
  [[nodiscard]] const Blacklist& blacklist() const noexcept {
    return blacklist_;
  }
  /// The (possibly sharded) analyzer behind this hunter.
  [[nodiscard]] const ShardedDetector& detector() const noexcept {
    return detector_;
  }
  /// Repair completed: lift the ban on a component.
  void mark_repaired(sim::ComponentRef ref);

  // --- collective signal plane ----------------------------------------------
  /// Register a monitored task's communicators with the collective
  /// diagnoser (typically build_collective_groups(layout)). Idempotent
  /// per task: re-registration replaces the group set and resets its
  /// diagnosis state.
  void register_collectives(TaskId task,
                            const std::vector<workload::CollectiveGroup>& gs);
  /// Feed one emitted step-trace batch. Verdicts route into the case
  /// machinery: agreement with an open probe case attaches as
  /// corroboration (confidence bonus at close); an uncorroborated hang or
  /// straggler opens/merges a kTenantVisibleNetworkSilent case. Dropped
  /// during an analyzer blackout, like probe results.
  void ingest_collective_steps(TaskId task,
                               std::span<const workload::StepRecord> records);
  /// Steps the collective diagnoser has ingested (all tasks).
  [[nodiscard]] std::uint64_t collective_steps() const noexcept;
  /// Collective verdicts emitted so far (hang + slow, all tasks).
  [[nodiscard]] std::uint64_t collective_verdicts() const noexcept;

  // --- gray telemetry & warm restart ---------------------------------------
  class Snapshot;
  /// Serialize the analysis state (detector windows + streaks, case
  /// registry, blacklist, collective diagnosis) into an opaque snapshot.
  /// Controller state — task monitors and their plans, agents, the probe
  /// engine, the tick count — is NOT captured: the controller keeps
  /// running while the analyzer is down, so a churn it handles during a
  /// blackout stays handled after the restore.
  [[nodiscard]] Snapshot checkpoint() const;
  /// Warm-restart the analyzer from a snapshot taken by checkpoint().
  void restore(const Snapshot& snap);
  /// The measurement-plane channel every probe round crosses (counters of
  /// what the plane dropped/duplicated/delayed/skewed/corrupted).
  [[nodiscard]] const probe::TelemetryChannel& telemetry_channel()
      const noexcept {
    return telemetry_;
  }
  /// Whether a kAnalyzerBlackout episode currently has the analyzer down.
  [[nodiscard]] bool analyzer_in_blackout() const noexcept {
    return in_blackout_;
  }
  /// Warm restarts performed after blackout episodes so far.
  [[nodiscard]] std::uint64_t analyzer_restores() const noexcept {
    return restores_;
  }

 private:
  struct TaskMonitor {
    bool active = false;
    std::vector<Endpoint> endpoints;
    std::vector<EndpointPair> current_list;  ///< directed probing matrix
    // --- churn reconciliation state ---------------------------------------
    bool degraded = false;  ///< churned; basic list reinstalled
    /// Fresh post-churn observation batches per endpoint (epoch resets on
    /// further churn and on failed re-inference).
    std::map<Endpoint, std::size_t> fresh_counts;
    std::map<Endpoint, EndpointObservation> fresh_obs;  ///< latest batch
  };

  void on_created(const cluster::ContainerInfo& ci);
  void on_running(const cluster::ContainerInfo& ci);
  void on_stopped(const cluster::ContainerInfo& ci);
  void on_churn(const cluster::ContainerInfo& ci,
                cluster::Orchestrator::ChurnReason reason);
  /// Tear the task back to the rail-pruned basic list: refresh endpoints
  /// (migrations rebind RNICs, crashes remove containers), invalidate the
  /// skeleton, clear the fresh-observation epoch, redistribute.
  void degrade_to_basic(TaskId task);
  /// Shared inference path: infer + fidelity gate + install skeleton list.
  std::optional<InferredSkeleton> try_apply_skeleton(
      TaskId task, const std::vector<EndpointObservation>& obs);
  void spawn_agent(const cluster::ContainerInfo& ci);
  void distribute_list(TaskId task);
  /// Analyzer process death at blackout entry: every in-memory structure
  /// the snapshot protects is genuinely destroyed, so the post-blackout
  /// state can only come from restore().
  void cold_reset_analyzer();
  /// Blackout exit, at a tick or at finalize: warm-restart from the
  /// blackout-entry checkpoint and note the restore on every open case.
  void leave_blackout(SimTime now);
  void tick();
  /// Bucket anomaly events by the task of each event's source container
  /// and route every bucket, in task order.
  void route_by_task(std::span<const AnomalyEvent> events);
  void route_events(TaskId task, std::vector<AnomalyEvent> events);
  /// Observed silence of `c` at `now`: time since its last event, with the
  /// span of an analyzer blackout (before last_restore_) not counted.
  [[nodiscard]] SimTime quiet_for(const FailureCase& c, SimTime now) const {
    return now - std::max(c.last_event, last_restore_);
  }
  /// The one way a case comes into being, for either plane: assigns its
  /// id, stamps first/last event, writes the case.open timeline entry,
  /// counts and traces the open. The caller attaches the evidence.
  FailureCase& open_case(TaskId task, CaseClass cls, SimTime at,
                         std::string detail, double value = 0.0);
  void close_case(FailureCase& c);
  /// Filter a closing case out of the report: mark it suppressed, count
  /// it, and note why under `stage` on its timeline.
  void suppress(FailureCase& c, const char* stage, const char* detail);
  /// Route one collective verdict: corroborate an overlapping open probe
  /// case, else open/merge a network-silent case.
  void route_collective_verdict(TaskId task,
                                const collective::CollectiveVerdict& v);
  /// Close path for kTenantVisibleNetworkSilent cases: localization comes
  /// from the verdict chain (root container + host + wait-for chain), not
  /// from Algorithm 1 — there are no anomalous pairs to tomograph.
  void close_collective_case(FailureCase& c);
  /// The close tail of every reported case, for both planes: the localize
  /// and case.close timeline entries, the case.close trace instant, the
  /// blacklist (probe plane only) and the final forensic bundle.
  void file_ticket(FailureCase& c);
  /// Drain the detector's closed-window log into the flight recorder's
  /// per-pair rings.
  void drain_windows();
  /// Build this case's forensic bundle from the case and the recorder's
  /// rings and store it (replacing any earlier emission for the case).
  void emit_bundle(const FailureCase& c);
  [[nodiscard]] std::uint32_t rank_of(const Endpoint& ep) const;

  const topo::Topology& topo_;
  overlay::OverlayNetwork& overlay_;
  cluster::Orchestrator& orch_;
  sim::EventQueue& events_;
  SkeletonHunterConfig cfg_;

  probe::ProbeEngine engine_;
  /// Worker pool driving the analyzer shards (null at 1 shard). Declared
  /// before detector_: the detector borrows it and must die first.
  std::unique_ptr<common::ThreadPool> shard_pool_;
  ShardedDetector detector_;
  /// The detector's analysis state as constructed, before any pair: what a
  /// blackout's cold reset restores.
  const ShardedDetector::Snapshot fresh_detector_;
  DiagnosticsOracle oracle_;
  Localizer localizer_;
  probe::TelemetryChannel telemetry_;

  Blacklist blacklist_;
  std::map<TaskId, TaskMonitor> monitors_;
  /// Per-task collective signal plane: the registered communicators and
  /// their diagnosis state. Value-semantic on purpose — the blackout
  /// checkpoint copies it.
  std::map<TaskId, collective::CollectiveDiagnoser> collective_;
  /// Per-ingest verdict scratch, reused.
  std::vector<collective::CollectiveVerdict> verdict_scratch_;
  std::map<ContainerId, probe::Agent> agents_;
  std::vector<FailureCase> cases_;
  SimTime end_;
  bool started_ = false;
  std::uint64_t ticks_ = 0;
  bool in_blackout_ = false;
  std::uint64_t restores_ = 0;
  /// Time of the last warm restart. Quiet-period and merge-window checks
  /// clock against max(case.last_event, last_restore_): while the analyzer
  /// was dead it observed nothing, so the blackout span is not evidence of
  /// silence — without this floor an in-flight case would be closed (and a
  /// duplicate opened) the moment the analyzer came back.
  SimTime last_restore_;
  std::unique_ptr<Snapshot> blackout_snapshot_;
  /// Per-tick probe round: every agent appends its results, the telemetry
  /// channel rewrites it in place, and it is routed into batch_. Reused
  /// across ticks.
  std::vector<probe::ProbeResult> round_;
  /// Results delivered to the analyzer so far (total_probes()).
  std::size_t probes_delivered_ = 0;
  /// Per-tick batch-ingest scratch (routed items, fired events, per-item
  /// fired counts the hunter does not read), reused across ticks.
  std::vector<ShardedDetector::BatchItem> batch_;
  std::vector<AnomalyEvent> batch_events_;
  std::vector<std::uint32_t> batch_fired_;

  obs::Context* obs_ = nullptr;
  /// The hunter's own instrumentation. Default-constructed it is detached:
  /// every handle drops its records and there is no recorder.
  struct Instruments {
    Instruments() = default;
    /// Bind every series on `ctx`'s registry; take its recorder if enabled.
    explicit Instruments(obs::Context& ctx);

    obs::Counter cases_opened;
    obs::Counter cases_closed;
    obs::Counter cases_suppressed;
    obs::Counter ticks;
    obs::Counter churn_events;
    obs::Counter replans;
    obs::Gauge active_agents;
    obs::Gauge degraded_tasks;
    obs::Counter restores;
    obs::Counter flap_rebans;
    // Collective signal plane.
    obs::Counter coll_steps;
    obs::Counter coll_hangs;
    obs::Counter coll_slows;
    obs::Counter coll_agreements;
    obs::Counter coll_silent_cases;
    obs::Counter coll_absorbed;
    /// Ingest-to-verdict latency plane, stages 2-3 (stage 1, the telemetry
    /// channel delay, lives on TelemetryChannel). All sim-time seconds.
    obs::Histogram detect_s;    ///< event routed - event detected
    obs::Histogram localize_s;  ///< verdict - first event
    obs::Histogram verdict_s;   ///< verdict - first window open
    /// The context's flight recorder when enabled (nullptr otherwise):
    /// bundles, window rings and the event ring flow through here.
    obs::FlightRecorder* recorder = nullptr;
  };
  Instruments ins_;
  /// Per-tick drain scratch for the detector's closed-window log.
  std::vector<obs::WindowRecord> window_scratch_;

 public:
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class SkeletonHunter;
    ShardedDetector::Snapshot detector_;
    std::vector<FailureCase> cases_;
    Blacklist blacklist_;
    std::map<TaskId, collective::CollectiveDiagnoser> collective_;
  };
};

}  // namespace skh::core
