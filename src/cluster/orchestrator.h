// Container orchestration over the simulated cluster.
//
// The orchestrator is the control plane of Figure 1: it places a task's
// containers on hosts with free GPU capacity, binds their RNICs, attaches
// their endpoints to the overlay network, and drives the per-container state
// machine on the shared event queue. Containers become Running after a
// host-dependent startup delay (Figure 4's phased pattern); the registration
// callbacks fired at that moment are what SkeletonHunter's agents use for
// incremental ping-list activation (§5.1).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/task.h"
#include "cluster/traces.h"
#include "common/rng.h"
#include "obs/context.h"
#include "overlay/overlay.h"
#include "sim/event_queue.h"
#include "topo/topology.h"

namespace skh::cluster {

class Orchestrator {
 public:
  Orchestrator(const topo::Topology& topo, overlay::OverlayNetwork& overlay,
               sim::EventQueue& events, RngStream rng);

  /// Attach the observability context (nullptr detaches): task/container
  /// lifecycle counters, a running-container gauge, and register/deregister
  /// trace instants.
  void attach_obs(obs::Context* ctx);

  /// Place and launch a task at the current simulated time. Returns nullopt
  /// if the cluster lacks capacity (placement is all-or-nothing).
  [[nodiscard]] std::optional<TaskId> submit_task(const TaskRequest& req);

  /// Begin teardown of all containers of a task (phased, like startup).
  void terminate_task(TaskId task);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] const TaskInfo& task(TaskId id) const;
  [[nodiscard]] const ContainerInfo& container(ContainerId id) const;
  [[nodiscard]] std::vector<Endpoint> endpoints_of_task(TaskId id) const;
  /// Endpoints of containers currently in Running state.
  [[nodiscard]] std::vector<Endpoint> running_endpoints_of_task(
      TaskId id) const;
  [[nodiscard]] std::uint32_t free_gpus(HostId host) const;

  // --- registration (data-plane activation, §5.1) ---------------------------
  using ContainerCallback = std::function<void(const ContainerInfo&)>;
  /// Fired synchronously at submit time for every placed container (still
  /// Starting; its network stack is not ready yet).
  void on_container_created(ContainerCallback cb);
  /// Fired when a container reaches Running (it can now be pinged).
  void on_container_running(ContainerCallback cb);
  /// Fired when a container leaves Running (terminating or crashed).
  void on_container_stopped(ContainerCallback cb);

  // --- mid-run churn (restart / migration / crash reconciliation) -----------
  /// Why a churn notification fired.
  enum class ChurnReason : std::uint8_t { kRestart, kMigration, kCrash };
  /// Fired whenever a container's placement or lifecycle churns mid-run:
  /// synchronously inside restart_container / migrate_container (the control
  /// plane initiated those, so subscribers learn before the next probe
  /// round), and after kCrashNotifyLag for crashes (the control plane itself
  /// learns late). Always fired *after* the stopped callbacks of the same
  /// event, and — for migrations — after the container's RNICs have been
  /// rebound, so subscribers rebuilding probe plans see the new endpoints.
  using ChurnCallback = std::function<void(const ContainerInfo&, ChurnReason)>;
  void on_container_churn(ChurnCallback cb);

  /// Restart a Running container in place (same host, same RNICs): fires the
  /// stopped + churn callbacks synchronously (deregistration happens before
  /// any probe can target the dying network stack), detaches its endpoints,
  /// and schedules a fresh startup delay back to Running. Non-Running
  /// containers are left untouched.
  void restart_container(ContainerId id);

  /// Migrate a Running container: deregister (stopped callbacks), release
  /// its host resources, re-place it on another host with free capacity
  /// (honoring the placement filter; falls back to its current host when
  /// nothing else fits), rebind its RNICs, fire the churn callbacks, and
  /// schedule startup. Returns false (no-op) if the container is not
  /// Running or no schedulable host has capacity.
  bool migrate_container(ContainerId id);

  /// Scheduling policy hook: hosts for which the filter returns false are
  /// skipped during placement (e.g. blacklisted hosts, §8).
  using PlacementFilter = std::function<bool(HostId)>;
  void set_placement_filter(PlacementFilter filter);

  /// Crash a container immediately (container-runtime fault, Table 1 #17).
  /// The network detaches at once; the stopped callback fires only after
  /// kCrashNotifyLag, modelling the control plane's state-sync delay.
  void crash_container(ContainerId id);

  /// Control-plane notification lag after a crash (§3.1 state-sync delay).
  static constexpr SimTime kCrashNotifyLag = SimTime::seconds(90);

 private:
  void set_running(ContainerId id);
  void set_dead(ContainerId id);
  void release_resources(const ContainerInfo& ci);
  /// Shared deregistration step for restart/migration: counters, trace
  /// instant, state flip to Starting, stopped callbacks.
  void deregister_for_churn(ContainerInfo& ci);

  const topo::Topology& topo_;
  overlay::OverlayNetwork& overlay_;
  sim::EventQueue& events_;
  RngStream rng_;

  std::vector<TaskInfo> tasks_;
  std::vector<ContainerInfo> containers_;
  std::unordered_map<HostId, std::uint32_t> gpus_used_;
  PlacementFilter placement_filter_;
  std::vector<ContainerCallback> created_cbs_;
  std::vector<ContainerCallback> running_cbs_;
  std::vector<ContainerCallback> stopped_cbs_;
  std::vector<ChurnCallback> churn_cbs_;

  obs::Context* obs_ = nullptr;
  obs::Counter m_tasks_submitted_;
  obs::Counter m_tasks_rejected_;
  obs::Counter m_containers_started_;
  obs::Counter m_containers_stopped_;
  obs::Counter m_containers_crashed_;
  obs::Counter m_containers_restarted_;
  obs::Counter m_containers_migrated_;
  obs::Gauge m_containers_running_;
};

}  // namespace skh::cluster
