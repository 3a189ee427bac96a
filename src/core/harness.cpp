#include "core/harness.h"

#include <stdexcept>

namespace skh::core {
namespace {

/// One training iteration's step trace is emitted (and the previous
/// iteration's ingested) every this often. Stalls must age past the hang
/// timeout by the time their batch is judged.
constexpr SimTime kCollectiveIterationPeriod = SimTime::seconds(30);
static_assert(kCollectiveIterationPeriod > collective::kHangTimeout);
/// Per-step delay a probe-visible network fault adds to a collective step:
/// its extra latency plus its loss probability times this retransmit
/// penalty, summed over the faulted components the endpoint traverses.
constexpr double kLossRetransmitUs = 5000.0;

}  // namespace

Experiment::Experiment(const ExperimentConfig& cfg)
    : rng_(cfg.seed),
      topo_(topo::Topology::build(cfg.topology)),
      obs_(cfg.obs),
      orch_(topo_, overlay_, events_, rng_.fork("orchestrator")),
      hunter_(topo_, overlay_, orch_, events_, faults_,
              rng_.fork("hunter"), cfg.hunter) {
  if (cfg.obs.metrics) {
    orch_.attach_obs(&obs_);
    hunter_.attach_obs(&obs_);
  }
}

std::optional<TaskId> Experiment::launch_task(const cluster::TaskRequest& req) {
  const auto task = orch_.submit_task(req);
  if (task) hunter_.monitor_task(*task);
  return task;
}

void Experiment::run_to_running(TaskId task, SimTime max_wait) {
  const SimTime deadline = events_.now() + max_wait;
  while (events_.now() < deadline) {
    const auto& info = orch_.task(task);
    bool all_running = true;
    for (ContainerId cid : info.containers) {
      if (orch_.container(cid).state != cluster::ContainerState::kRunning) {
        all_running = false;
        break;
      }
    }
    if (all_running) return;
    if (!events_.step()) break;
  }
}

workload::TaskLayout Experiment::layout_of(
    TaskId task, std::optional<workload::ParallelismConfig> par) const {
  const auto& info = orch_.task(task);
  std::vector<cluster::ContainerInfo> containers;
  containers.reserve(info.containers.size());
  for (ContainerId cid : info.containers) {
    containers.push_back(orch_.container(cid));
  }
  const auto cfg = par.value_or(workload::default_parallelism(
      info.total_gpus(), info.request.gpus_per_container));
  return workload::make_layout(info, containers, cfg);
}

std::vector<EndpointObservation> Experiment::observations_for(
    const workload::TaskLayout& layout,
    const workload::BurstConfig& bcfg) const {
  RngStream rng = rng_.fork("burst-series").fork(layout.task.value());
  const auto series = workload::burst_series_for_layout(layout, bcfg, rng);
  std::vector<EndpointObservation> obs;
  obs.reserve(layout.roles.size());
  for (std::size_t i = 0; i < layout.roles.size(); ++i) {
    EndpointObservation o;
    o.endpoint = layout.roles[i].endpoint;
    o.host = topo_.host_of(o.endpoint.rnic).value();
    o.container_index = orch_.container(o.endpoint.container).index_in_task;
    o.rnic_rank = rank_of(o.endpoint);
    o.throughput = series[i];
    obs.push_back(std::move(o));
  }
  return obs;
}

std::optional<InferredSkeleton> Experiment::apply_skeleton(
    TaskId task, const workload::TaskLayout& layout,
    const workload::BurstConfig& bcfg) {
  return hunter_.supply_observations(task, observations_for(layout, bcfg));
}

void Experiment::schedule_churn(TaskId task,
                                const std::vector<sim::ChurnEvent>& plan) {
  const auto& info = orch_.task(task);
  for (const sim::ChurnEvent& ev : plan) {
    if (ev.container_index >= info.containers.size()) continue;
    const ContainerId victim = info.containers[ev.container_index];
    switch (ev.kind) {
      case sim::ChurnKind::kRestart:
        events_.schedule_at(ev.at,
                            [this, victim] { orch_.restart_container(victim); });
        break;
      case sim::ChurnKind::kMigrate:
        events_.schedule_at(ev.at,
                            [this, victim] { orch_.migrate_container(victim); });
        break;
      case sim::ChurnKind::kCrash:
        events_.schedule_at(ev.at,
                            [this, victim] { orch_.crash_container(victim); });
        break;
      case sim::ChurnKind::kAgentDeath:
        // The sidecar dies but the tenant keeps training: probes through the
        // victim fail (a monitoring defect, ground_truth = false) while the
        // container itself never deregisters.
        faults_.inject_phantom(
            {sim::ComponentKind::kContainer, victim.value()}, ev.at,
            ev.at + ev.duration);
        break;
    }
  }
}

void Experiment::enable_collective_plane(TaskId task,
                                         const workload::TaskLayout& layout,
                                         const sim::CollectiveFaultPlan& plan,
                                         SimTime until) {
  auto groups = workload::build_collective_groups(layout);
  hunter_.register_collectives(task, groups);
  auto state = std::make_unique<CollectivePlaneState>(CollectivePlaneState{
      workload::CollectiveTraceGenerator(
          std::move(groups), workload::CollectiveTraceConfig{},
          rng_.fork("collective-trace").fork(task.value())),
      task});
  CollectivePlaneState* st = state.get();
  collective_planes_.push_back(std::move(state));
  // Host-side faults by value: the plan is pure data and the plane must
  // not dangle on a caller temporary.
  st->gen.set_host_fault_fn([plan](std::uint32_t ci, SimTime t) {
    workload::CollectiveTraceGenerator::HostEffect e;
    e.hang = plan.hang_at(ci, t);
    e.slowdown = plan.slowdown_at(ci, t);
    return e;
  });
  st->gen.set_network_delay_fn(
      [this](const Endpoint& ep, SimTime t) -> std::optional<double> {
        const sim::ComponentRef comps[] = {
            {sim::ComponentKind::kRnic, ep.rnic.value()},
            {sim::ComponentKind::kPhysicalLink,
             topo_.uplink_of(ep.rnic).value()},
            {sim::ComponentKind::kHost, topo_.host_of(ep.rnic).value()},
            {sim::ComponentKind::kContainer, ep.container.value()}};
        double extra = 0.0;
        for (const auto& c : comps) {
          for (const sim::Fault* f : faults_.active_on(c, t)) {
            // Phantom (monitoring-defect) faults never couple: the
            // tenant's collectives don't cross the sidecar.
            if (!f->ground_truth || !f->degrading_at(t)) continue;
            if (f->effect.unreachable) return std::nullopt;
            extra += f->effect.extra_latency_us +
                     f->effect.loss_probability * kLossRetransmitUs;
          }
        }
        return extra;
      });
  collective_tick(st, until);
}

void Experiment::collective_tick(CollectivePlaneState* st, SimTime until) {
  const SimTime now = events_.now();
  // Last tick's batch has aged one full period — stalled steps are past
  // the hang timeout by construction (see kCollectiveIterationPeriod).
  if (!st->pending.empty()) {
    hunter_.ingest_collective_steps(st->task, st->pending);
  }
  st->pending = st->gen.emit_iteration(st->next_iteration++, now);
  collective_fp_ = workload::fingerprint_records(st->pending, collective_fp_);
  if (now + kCollectiveIterationPeriod <= until) {
    events_.schedule_after(kCollectiveIterationPeriod,
                           [this, st, until] { collective_tick(st, until); });
  } else {
    // Final batch still needs one aging period before judgment, else an
    // injected stall in the last iteration would silently vanish.
    events_.schedule_after(kCollectiveIterationPeriod, [this, st] {
      if (!st->pending.empty()) {
        hunter_.ingest_collective_steps(st->task, st->pending);
        st->pending.clear();
      }
    });
  }
}

std::uint32_t Experiment::rank_of(const Endpoint& ep) const {
  const auto& ci = orch_.container(ep.container);
  for (std::uint32_t r = 0; r < ci.rnics.size(); ++r) {
    if (ci.rnics[r] == ep.rnic) return r;
  }
  throw std::invalid_argument("Experiment::rank_of: endpoint not in task");
}

}  // namespace skh::core
