#include "core/skeleton_hunter.h"

#include <algorithm>
#include <cstdio>

#include "common/flat_table.h"
#include "common/logging.h"
#include "core/fidelity.h"
#include "core/forensic.h"

namespace skh::core {

namespace {

std::string pair_label(const EndpointPair& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "c%u/r%u -> c%u/r%u",
                p.src.container.value(), p.src.rnic.value(),
                p.dst.container.value(), p.dst.rnic.value());
  return buf;
}

// Config coupling: a non-static routing mode only makes sense with per-path
// sub-series in the detector (the member-scoped evidence the localizer's
// path votes consume), so force track_paths on before anything is built
// from the config.
SkeletonHunterConfig effective_config(SkeletonHunterConfig cfg) {
  if (cfg.engine.routing_mode != topo::RoutingMode::kStaticEcmp) {
    cfg.detector.track_paths = true;
  }
  return cfg;
}

/// A failure case with no fresh events for this long (observed time) is
/// localized and closed.
constexpr SimTime kCaseQuietPeriod = SimTime::seconds(90);
/// Events on a task merge into its open case while that case has been
/// quiet for at most this long; later events open a new case.
constexpr SimTime kCaseMergeWindow = SimTime::minutes(5);
/// Churn reconciliation: a degraded task re-infers only once every live
/// endpoint has this many fresh post-churn observation batches.
constexpr std::size_t kReinferenceMinSamples = 2;
/// Cross-plane agreement bonus on a probe case's localization confidence
/// when collective verdicts corroborate it. The result may exceed 1.0 —
/// above 1.0 reads "independently confirmed by the collective plane", not
/// just "all consulted probe evidence answered" — up to the cap.
constexpr double kCorroborationBonus = 0.25;
constexpr double kConfidenceCap = 1.25;

double corroborated(double confidence) {
  return std::min(kConfidenceCap, confidence + kCorroborationBonus);
}

/// Whether `p` has an endpoint on a container the verdict implicates: the
/// stall root or a member of its wait-for chain.
bool touches(const EndpointPair& p, const collective::CollectiveVerdict& v) {
  const auto on = [&p](ContainerId c) {
    return p.src.container == c || p.dst.container == c;
  };
  return on(v.root.container) ||
         std::any_of(v.waiters.begin(), v.waiters.end(),
                     [&on](const Endpoint& w) { return on(w.container); });
}

// Ingest-to-verdict latency plane bucket bounds. Small on purpose: a
// handful of bounds keeps the per-observation cost a short linear scan,
// protecting the <1% overhead gate.
constexpr double kDetectBounds[] = {0.5, 1.0, 2.0, 5.0, 10.0, 30.0};
constexpr double kLocalizeBounds[] = {30.0,  60.0,  90.0, 120.0,
                                      300.0, 600.0, 1800.0};
constexpr double kVerdictBounds[] = {60.0,  120.0, 180.0, 300.0,
                                     600.0, 1800.0, 3600.0};

}  // namespace

std::string_view to_string(CaseClass c) noexcept {
  switch (c) {
    case CaseClass::kProbePlane: return "probe-plane";
    case CaseClass::kTenantVisibleNetworkSilent: return "network-silent";
  }
  return "unknown";
}

SkeletonHunter::SkeletonHunter(const topo::Topology& topo,
                               overlay::OverlayNetwork& overlay,
                               cluster::Orchestrator& orchestrator,
                               sim::EventQueue& events,
                               const sim::FaultInjector& faults,
                               RngStream rng, SkeletonHunterConfig cfg)
    : topo_(topo), overlay_(overlay), orch_(orchestrator), events_(events),
      cfg_(effective_config(std::move(cfg))),
      engine_(topo, overlay, faults, rng.fork("engine"), cfg_.engine),
      shard_pool_(cfg_.analyzer_shards > 1
                      ? std::make_unique<common::ThreadPool>(std::min(
                            cfg_.analyzer_shards,
                            std::max<std::size_t>(
                                1, std::thread::hardware_concurrency())))
                      : nullptr),
      detector_(cfg_.detector,
                std::max<std::size_t>(1, cfg_.analyzer_shards),
                shard_pool_.get()),
      fresh_detector_(detector_.snapshot()),
      oracle_(faults, rng.fork("oracle")),
      localizer_(topo, overlay, oracle_, faults),
      telemetry_(cfg_.telemetry, rng.fork("telemetry")) {
  // cfg_ is a by-value member, so its telemetry plan outlives the localizer.
  localizer_.attach_telemetry(&cfg_.telemetry,
                              rng.fork("traceroute-telemetry"));
  // §8: no new task is scheduled onto a blacklisted component until it is
  // repaired.
  orch_.set_placement_filter([this](HostId host) {
    return blacklist_.host_schedulable(host, topo_.config().rails_per_host);
  });
  orch_.on_container_created(
      [this](const cluster::ContainerInfo& ci) { on_created(ci); });
  orch_.on_container_running(
      [this](const cluster::ContainerInfo& ci) { on_running(ci); });
  orch_.on_container_stopped(
      [this](const cluster::ContainerInfo& ci) { on_stopped(ci); });
  orch_.on_container_churn(
      [this](const cluster::ContainerInfo& ci,
             cluster::Orchestrator::ChurnReason reason) {
        on_churn(ci, reason);
      });
}

SkeletonHunter::Instruments::Instruments(obs::Context& ctx) {
  auto& r = ctx.registry;
  const auto counter = [&r](std::string_view name) {
    return r.bind_counter(r.counter_id(name));
  };
  const auto gauge = [&r](std::string_view name) {
    return r.bind_gauge(r.gauge_id(name));
  };
  const auto histogram = [&r](std::string_view name,
                              std::span<const double> bounds) {
    return r.bind_histogram(r.histogram_id(name, bounds));
  };
  cases_opened = counter("hunter.cases_opened");
  cases_closed = counter("hunter.cases_closed");
  cases_suppressed = counter("hunter.cases_suppressed");
  ticks = counter("hunter.ticks");
  churn_events = counter("hunter.churn_events");
  replans = counter("hunter.replans");
  active_agents = gauge("hunter.active_agents");
  degraded_tasks = gauge("hunter.degraded_tasks");
  restores = counter("hunter.analyzer_restores");
  flap_rebans = counter("hunter.blacklist_flap_rebans");
  coll_steps = counter("collective.steps_ingested");
  coll_hangs = counter("collective.verdicts_hang");
  coll_slows = counter("collective.verdicts_slow");
  coll_agreements = counter("collective.agreements");
  coll_silent_cases = counter("collective.cases_network_silent");
  coll_absorbed = counter("collective.cases_absorbed");
  detect_s = histogram("latency.detect_s", kDetectBounds);
  localize_s = histogram("latency.localize_s", kLocalizeBounds);
  verdict_s = histogram("latency.ingest_to_verdict_s", kVerdictBounds);
  recorder = ctx.recorder.enabled() ? &ctx.recorder : nullptr;
}

void SkeletonHunter::attach_obs(obs::Context* ctx) {
  obs_ = ctx;
  engine_.attach_obs(ctx);
  detector_.attach_obs(ctx);
  localizer_.attach_obs(ctx);
  telemetry_.attach_obs(ctx);
  ins_ = ctx != nullptr ? Instruments(*ctx) : Instruments{};
  if (ins_.recorder != nullptr) {
    ins_.recorder->reserve_pairs(detector_.pair_count());
  }
}

std::uint32_t SkeletonHunter::rank_of(const Endpoint& ep) const {
  const auto& ci = orch_.container(ep.container);
  for (std::uint32_t i = 0; i < ci.rnics.size(); ++i) {
    if (ci.rnics[i] == ep.rnic) return i;
  }
  return 0;
}

void SkeletonHunter::monitor_task(TaskId task) {
  TaskMonitor m;
  m.active = true;
  m.endpoints = orch_.endpoints_of_task(task);
  // Preload: the basic (rail-pruned) ping list, computed before any
  // container of the task has even started.
  m.current_list = basic_ping_list(
      m.endpoints, [this](const Endpoint& ep) { return rank_of(ep); });
  monitors_[task] = std::move(m);
  distribute_list(task);
}

void SkeletonHunter::distribute_list(TaskId task) {
  const auto& m = monitors_.at(task);
  // Plan-time capacity for the detector's flat pair table: the list being
  // distributed fixes the pair population this task will probe, so size
  // the table now and ingest performs zero rehashes. The mapped pairs
  // (churned ones included: a pair keeps its slot for the detector's
  // lifetime) plus the listed pairs not mapped yet: a re-listed pair is
  // counted once.
  std::size_t pairs = detector_.pair_count();
  for (const auto& p : m.current_list) {
    if (detector_.find_handle(p) == common::FlatPairTable::kNoSlot) ++pairs;
  }
  detector_.reserve_pairs(pairs);
  // The recorder mirrors the detector's reservation so steady-state
  // window recording never allocates.
  if (ins_.recorder != nullptr) ins_.recorder->reserve_pairs(pairs);
  for (ContainerId cid : orch_.task(task).containers) {
    const auto it = agents_.find(cid);
    if (it == agents_.end()) continue;
    std::vector<EndpointPair> slice;
    for (const auto& p : m.current_list) {
      if (p.src.container == cid) slice.push_back(p);
    }
    it->second.set_ping_list(std::move(slice));
  }
}

void SkeletonHunter::spawn_agent(const cluster::ContainerInfo& ci) {
  const auto mit = monitors_.find(ci.task);
  if (mit == monitors_.end() || !mit->second.active) return;
  if (agents_.contains(ci.id)) return;
  probe::Agent agent{ci.id, ci.endpoints()};
  std::vector<EndpointPair> slice;
  for (const auto& p : mit->second.current_list) {
    if (p.src.container == ci.id) slice.push_back(p);
  }
  agent.set_ping_list(std::move(slice));
  if (!cfg_.incremental_activation) {
    // Ablation: activate every target immediately, as a naive Pingmesh
    // would — probes race container startup and raise false alarms.
    for (ContainerId peer : orch_.task(ci.task).containers) {
      if (peer != ci.id) agent.activate_destination(peer);
    }
  } else {
    // Activate targets whose destination containers already registered.
    for (ContainerId peer : orch_.task(ci.task).containers) {
      if (peer == ci.id) continue;
      if (orch_.container(peer).state == cluster::ContainerState::kRunning) {
        agent.activate_destination(peer);
      }
    }
  }
  agents_.emplace(ci.id, std::move(agent));
}

void SkeletonHunter::on_created(const cluster::ContainerInfo& ci) {
  // Without registration gating the sidecar starts probing at creation.
  if (!cfg_.incremental_activation) spawn_agent(ci);
}

void SkeletonHunter::on_running(const cluster::ContainerInfo& ci) {
  const auto mit = monitors_.find(ci.task);
  if (mit == monitors_.end() || !mit->second.active) return;
  spawn_agent(ci);
  // Registration: this container is ready to be pinged; peers activate it.
  if (cfg_.incremental_activation) {
    for (ContainerId peer : orch_.task(ci.task).containers) {
      if (peer == ci.id) continue;
      const auto it = agents_.find(peer);
      if (it != agents_.end()) it->second.activate_destination(ci.id);
    }
  }
}

void SkeletonHunter::on_stopped(const cluster::ContainerInfo& ci) {
  const auto mit = monitors_.find(ci.task);
  if (mit == monitors_.end()) return;
  // Deregistration: peers stop probing this container (teardown is not a
  // connectivity failure).
  for (ContainerId peer : orch_.task(ci.task).containers) {
    if (peer == ci.id) continue;
    const auto it = agents_.find(peer);
    if (it != agents_.end()) it->second.deactivate_destination(ci.id);
  }
  agents_.erase(ci.id);
  // Entire task done? Stop monitoring.
  const auto& task = orch_.task(ci.task);
  const bool any_running = std::any_of(
      task.containers.begin(), task.containers.end(), [this](ContainerId c) {
        return orch_.container(c).state == cluster::ContainerState::kRunning;
      });
  if (!any_running && task.terminated) {
    if (mit->second.degraded) {
      mit->second.degraded = false;
      ins_.degraded_tasks.add(-1.0);
    }
    mit->second.active = false;
  }
}

void SkeletonHunter::on_churn(const cluster::ContainerInfo& ci,
                              cluster::Orchestrator::ChurnReason reason) {
  const auto mit = monitors_.find(ci.task);
  if (mit == monitors_.end() || !mit->second.active) return;
  ins_.churn_events.inc();
  if (obs_ != nullptr) {
    obs_->tracer.instant("hunter", "churn", events_.now(), ci.id.value(),
                         static_cast<std::uint64_t>(reason));
  }
  SKH_LOG_INFO("skeleton-hunter", "churn on container ", ci.id.value(),
               " (task ", ci.task.value(), "); degrading to basic list");
  degrade_to_basic(ci.task);
}

void SkeletonHunter::degrade_to_basic(TaskId task) {
  auto& m = monitors_.at(task);
  // Refresh the endpoint set from the orchestrator: a migration rebinds the
  // victim's RNICs and a crash removes its container for good. Dead
  // containers drop out of the plan entirely — their skeleton pairs are the
  // ones the churn invalidated.
  m.endpoints.clear();
  for (ContainerId cid : orch_.task(task).containers) {
    const auto& ci = orch_.container(cid);
    if (ci.state == cluster::ContainerState::kDead) continue;
    const auto eps = ci.endpoints();
    m.endpoints.insert(m.endpoints.end(), eps.begin(), eps.end());
  }
  m.current_list = basic_ping_list(
      m.endpoints, [this](const Endpoint& ep) { return rank_of(ep); });
  if (!m.degraded) {
    m.degraded = true;
    ins_.degraded_tasks.add(1.0);
  }
  // Pre-churn observations describe a traffic pattern that may no longer
  // exist; only batches supplied after this instant count toward
  // re-inference.
  m.fresh_counts.clear();
  m.fresh_obs.clear();
  ins_.replans.inc();
  distribute_list(task);
}

bool SkeletonHunter::task_degraded(TaskId task) const {
  const auto mit = monitors_.find(task);
  return mit != monitors_.end() && mit->second.degraded;
}

std::optional<InferredSkeleton> SkeletonHunter::supply_observations(
    TaskId task, const std::vector<EndpointObservation>& obs) {
  const auto mit = monitors_.find(task);
  if (mit == monitors_.end() || !mit->second.active) return std::nullopt;
  auto& m = mit->second;
  if (!m.degraded) return try_apply_skeleton(task, obs);

  // Degraded mode: accumulate fresh evidence until every live endpoint has
  // enough batches, then re-infer through the same fidelity gate.
  for (const auto& o : obs) {
    ++m.fresh_counts[o.endpoint];
    m.fresh_obs[o.endpoint] = o;
  }
  bool ready = !m.endpoints.empty();
  for (const Endpoint& ep : m.endpoints) {
    const auto it = m.fresh_counts.find(ep);
    if (it == m.fresh_counts.end() ||
        it->second < kReinferenceMinSamples) {
      ready = false;
      break;
    }
  }
  if (!ready) return std::nullopt;
  std::vector<EndpointObservation> fresh;
  fresh.reserve(m.endpoints.size());
  for (const Endpoint& ep : m.endpoints) fresh.push_back(m.fresh_obs.at(ep));
  auto inferred = try_apply_skeleton(task, fresh);
  m.fresh_counts.clear();
  m.fresh_obs.clear();
  if (!inferred) {
    // Failed re-inference: stay degraded, restart the accumulation epoch.
    return std::nullopt;
  }
  m.degraded = false;
  ins_.degraded_tasks.add(-1.0);
  if (obs_ != nullptr) {
    obs_->tracer.instant("hunter", "reinference", events_.now(),
                         task.value(), inferred->pairs.size());
  }
  return inferred;
}

std::optional<InferredSkeleton> SkeletonHunter::try_apply_skeleton(
    TaskId task, const std::vector<EndpointObservation>& obs) {
  const auto mit = monitors_.find(task);
  auto inferred = infer_skeleton(obs, cfg_.inference);
  if (!inferred) {
    SKH_LOG_WARN("skeleton-hunter", "inference infeasible for task ",
                 task.value(), "; keeping basic ping list");
    return std::nullopt;
  }
  // §7.3 mitigation: an inferred skeleton is trusted only once it aligns
  // with the observed bursts; otherwise the basic list stays (debug
  // clusters, unknown parallelism strategies).
  const auto fidelity = validate_skeleton(inferred->pairs, obs);
  if (!fidelity.acceptable()) {
    SKH_LOG_WARN("skeleton-hunter", "skeleton fidelity ", fidelity.score,
                 " below threshold for task ", task.value(),
                 "; keeping basic ping list");
    return std::nullopt;
  }
  mit->second.current_list = skeleton_ping_list(inferred->pairs);
  distribute_list(task);
  return inferred;
}

void SkeletonHunter::start(SimTime end) {
  end_ = end;
  if (started_) return;
  started_ = true;
  events_.schedule_after(cfg_.probe_interval, [this] { tick(); });
}

void SkeletonHunter::tick() {
  const SimTime now = events_.now();
  ins_.ticks.inc();
  ins_.active_agents.set(static_cast<double>(agents_.size()));
  // Blackout transitions. Entering: checkpoint then destroy the analyzer
  // state, as a real process crash would. Leaving: warm-restart from the
  // checkpoint — open cases resume with their windows and streaks intact,
  // so an in-flight incident is neither double-counted nor lost.
  const bool blackout = telemetry_.blackout_at(now);
  if (blackout && !in_blackout_) {
    blackout_snapshot_ = std::make_unique<Snapshot>(checkpoint());
    cold_reset_analyzer();
    in_blackout_ = true;
    if (obs_ != nullptr) {
      obs_->tracer.instant("hunter", "analyzer.blackout", now, ticks_, 0);
    }
  } else if (!blackout && in_blackout_) {
    leave_blackout(now);
  }
  // Probe: every agent runs its round regardless of analyzer health (the
  // sidecars are separate processes), appending to one shared round buffer
  // in agent order. The round then crosses the telemetry channel; only what
  // the channel delivers reaches the anomaly detector.
  round_.clear();
  for (auto& [cid, agent] : agents_) agent.run_round(engine_, now, round_);
  if (!in_blackout_) {
    telemetry_.transmit(round_, now);
    probes_delivered_ += round_.size();
    // Route the round once on this thread (global handles), then fan the
    // detector work across the analyzer shards. The batch returns events
    // grouped by originating result in round order — the exact sequence
    // sequential single-detector ingest produces — so the per-task buckets
    // below are shard-count-invariant.
    batch_.clear();
    batch_.reserve(round_.size());
    for (const auto& result : round_) {
      batch_.push_back(ShardedDetector::BatchItem{
          detector_.handle_of(result.pair),
          {result.seq, result.sent_at, result.delivered, result.rtt_us,
           result.path_id}});
    }
    detector_.ingest_batch(batch_, batch_events_, batch_fired_);
    drain_windows();
    route_by_task(batch_events_);
    // Close quiet cases; drop the ones suppressed as transients.
    for (auto& c : cases_) {
      if (!c.closed && quiet_for(c, now) >= kCaseQuietPeriod) close_case(c);
    }
    std::erase_if(cases_, [](const FailureCase& c) { return c.suppressed; });
  }
  ++ticks_;
  if (now + cfg_.probe_interval <= end_) {
    events_.schedule_after(cfg_.probe_interval, [this] { tick(); });
  }
}

SkeletonHunter::Snapshot SkeletonHunter::checkpoint() const {
  Snapshot s;
  s.detector_ = detector_.snapshot();
  s.cases_ = cases_;
  s.blacklist_ = blacklist_;
  s.collective_ = collective_;
  return s;
}

void SkeletonHunter::leave_blackout(SimTime now) {
  restore(*blackout_snapshot_);
  blackout_snapshot_.reset();
  in_blackout_ = false;
  last_restore_ = now;
  ++restores_;
  ins_.restores.inc();
  for (auto& c : cases_) {
    if (!c.closed) {
      c.timeline.add(now, "analyzer.restore",
                     "warm restart from blackout checkpoint; case resumed");
    }
  }
  if (obs_ != nullptr) {
    obs_->tracer.instant("hunter", "analyzer.restore", now, ticks_,
                         cases_.size());
  }
}

void SkeletonHunter::restore(const Snapshot& snap) {
  detector_.restore(snap.detector_);
  cases_ = snap.cases_;
  blacklist_ = snap.blacklist_;
  collective_ = snap.collective_;
}

void SkeletonHunter::cold_reset_analyzer() {
  // The detector's analysis state goes back to how it was constructed. Its
  // counters, obs bindings and window-log capacity are process telemetry
  // and config, not analysis state: restore() leaves them as they are.
  detector_.restore(fresh_detector_);
  cases_.clear();
  blacklist_ = Blacklist{};
  // Collective diagnosis state (strikes, latches, pending hangs) dies with
  // the process; the communicator registrations survive — they came from
  // the control plane, not from analysis.
  for (auto& [task, diag] : collective_) diag.reset_state();
}

void SkeletonHunter::route_by_task(std::span<const AnomalyEvent> events) {
  std::map<TaskId, std::vector<AnomalyEvent>> per_task;
  for (const auto& e : events) {
    per_task[orch_.container(e.pair.src.container).task].push_back(e);
  }
  for (auto& [task, evts] : per_task) route_events(task, std::move(evts));
}

FailureCase& SkeletonHunter::open_case(TaskId task, CaseClass cls, SimTime at,
                                       std::string detail, double value) {
  FailureCase c;
  // One past the newest case, not the registry size: suppressed cases are
  // erased, and a size-derived id could repeat a live case's.
  c.id = cases_.empty() ? 0 : cases_.back().id + 1;
  c.task = task;
  c.cls = cls;
  c.first_event = at;
  c.last_event = at;
  c.timeline.add(at, "case.open", std::move(detail), value);
  ins_.cases_opened.inc();
  if (cls == CaseClass::kTenantVisibleNetworkSilent) {
    ins_.coll_silent_cases.inc();
  }
  if (obs_ != nullptr) {
    obs_->tracer.instant("hunter",
                         cls == CaseClass::kProbePlane
                             ? "case.open"
                             : "case.open_network_silent",
                         at, c.id, task.value());
  }
  return cases_.emplace_back(std::move(c));
}

void SkeletonHunter::route_events(TaskId task,
                                  std::vector<AnomalyEvent> events) {
  // Order-independent case reducer: sort the batch into the canonical
  // (detected_at, pair, kind, score) order before any open/merge/suppress
  // decision. Whatever sharding or interleaving produced this batch, the
  // same event set reduces to the same cases with the same first_event —
  // the keystone of shard-count-invariant verdicts (and chronologically
  // the right case-open attribution regardless).
  canonicalize_events(events);
  const SimTime now = events_.now();
  // Cases this batch opens are appended from here on.
  const std::size_t first_opened = cases_.size();
  for (const auto& e : events) {
    // A long-term (30-minute-window) alarm that merely re-reports a pair
    // already covered by a recent case is the windowing tail of that
    // incident, not a new failure; merging it would glue unrelated
    // incidents together and dilute the localization vote.
    if (e.kind == AnomalyKind::kLatencyLongTerm) {
      const bool redundant = std::any_of(
          cases_.begin(), cases_.end(), [&](const FailureCase& c) {
            return c.task == task &&
                   e.detected_at - c.last_event <=
                       cfg_.detector.long_window * 2.0 &&
                   c.pairs.contains(e.pair);
          });
      if (redundant) continue;
    }
    // Aggregate by task and time window (the production analyzer indexes
    // results by task/container/RNIC/uplink, §6): one failing component
    // degrades many pairs at once — e.g. a ToR takes out pairs that share
    // no endpoint — and splitting them would also starve the tomography
    // voter of intersection evidence. Merging clocks against observed
    // time: a case that went dark only because the analyzer was dead still
    // absorbs the incident's post-restore events.
    const auto open = std::find_if(
        cases_.begin(), cases_.end(), [&](const FailureCase& c) {
          return !c.closed && c.task == task &&
                 quiet_for(c, now) <= kCaseMergeWindow;
        });
    FailureCase& target =
        open != cases_.end()
            ? *open
            : open_case(task, CaseClass::kProbePlane, e.detected_at,
                        "first anomalous window on " + pair_label(e.pair));
    target.pairs.insert(e.pair);
    target.events.push_back(e);
    // Stage 2 of the latency plane: detection-to-routing lag (a window
    // closing mid-round surfaces here on the same tick; the lag is the
    // intra-tick remainder).
    ins_.detect_s.observe((now - e.detected_at).to_seconds());
    if (ins_.recorder != nullptr) {
      ins_.recorder->record_event(obs::EventRecord{
          e.pair, e.detected_at, e.score, static_cast<std::uint8_t>(e.kind)});
    }
    target.timeline.add(e.detected_at, "anomaly",
                        std::string(to_string(e.kind)) + " on " +
                            pair_label(e.pair),
                        e.score);
    target.last_event = std::max(target.last_event, e.detected_at);
  }
  // Every case open emits a forensic bundle (self-contained JSON of the
  // evidence so far); close_case re-emits with the verdict attached. Done
  // after the batch so the open bundle covers the whole opening round.
  for (std::size_t i = first_opened; i < cases_.size(); ++i) {
    emit_bundle(cases_[i]);
  }
}

void SkeletonHunter::register_collectives(
    TaskId task, const std::vector<workload::CollectiveGroup>& gs) {
  collective::CollectiveDiagnoser diag;
  for (const auto& g : gs) diag.register_group(g);
  collective_[task] = std::move(diag);
}

void SkeletonHunter::ingest_collective_steps(
    TaskId task, std::span<const workload::StepRecord> records) {
  // The analyzer process consumes this plane too: during a blackout the
  // step reports are lost with it, exactly like probe results.
  if (in_blackout_) return;
  const auto it = collective_.find(task);
  if (it == collective_.end()) return;
  ins_.coll_steps.add(records.size());
  verdict_scratch_.clear();
  it->second.ingest(records, events_.now(), verdict_scratch_);
  for (const auto& v : verdict_scratch_) {
    if (v.kind == collective::VerdictKind::kHang) {
      ins_.coll_hangs.inc();
    } else {
      ins_.coll_slows.inc();
    }
    route_collective_verdict(task, v);
  }
}

std::uint64_t SkeletonHunter::collective_steps() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [task, diag] : collective_) total += diag.steps_ingested();
  return total;
}

std::uint64_t SkeletonHunter::collective_verdicts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [task, diag] : collective_) {
    total += diag.hang_verdicts() + diag.slow_verdicts();
  }
  return total;
}

void SkeletonHunter::route_collective_verdict(
    TaskId task, const collective::CollectiveVerdict& v) {
  const SimTime now = events_.now();
  // Cross-plane agreement: an open probe case on the same task whose pairs
  // touch the implicated containers. Both planes seeing the same incident
  // is the strongest evidence either can get — the verdict attaches as
  // corroboration and raises the case's confidence at close.
  for (auto& c : cases_) {
    if (c.closed || c.task != task || c.cls != CaseClass::kProbePlane) {
      continue;
    }
    if (quiet_for(c, now) > kCaseMergeWindow) continue;
    if (std::none_of(c.pairs.begin(), c.pairs.end(),
                     [&v](const EndpointPair& p) { return touches(p, v); })) {
      continue;
    }
    ++c.collective_agreements;
    c.collective_evidence.push_back(v);
    ins_.coll_agreements.inc();
    c.timeline.add(now, "collective.corroborate",
                   std::string(to_string(v.kind)) + " verdict on container " +
                       std::to_string(v.root.container.value()) +
                       " agrees with probe plane",
                   v.severity);
    if (obs_ != nullptr) {
      obs_->tracer.instant("hunter", "collective.corroborate", now, c.id,
                           v.root.container.value());
    }
    return;
  }
  // Disagreement: the probe plane sees nothing. Open (or merge into) a
  // tenant-visible-but-network-silent case.
  for (auto& c : cases_) {
    if (c.closed || c.task != task ||
        c.cls != CaseClass::kTenantVisibleNetworkSilent) {
      continue;
    }
    if (quiet_for(c, now) > kCaseMergeWindow) continue;
    c.collective_evidence.push_back(v);
    c.last_event = std::max(c.last_event, now);
    c.timeline.add(now, "collective.verdict",
                   std::string(to_string(v.kind)) + " on container " +
                       std::to_string(v.root.container.value()),
                   v.severity);
    return;
  }
  FailureCase& c =
      open_case(task, CaseClass::kTenantVisibleNetworkSilent, now,
                "collective " + std::string(to_string(v.kind)) +
                    " on container " +
                    std::to_string(v.root.container.value()) +
                    " with zero probe-plane symptoms",
                v.severity);
  c.collective_evidence.push_back(v);
  emit_bundle(c);
}

void SkeletonHunter::suppress(FailureCase& c, const char* stage,
                              const char* detail) {
  c.suppressed = true;
  ins_.cases_suppressed.inc();
  c.timeline.add(c.closed_at, stage, detail);
}

void SkeletonHunter::close_collective_case(FailureCase& c) {
  // A probe-plane case on the same task that overlaps this one in time and
  // touches an implicated container means the incident was network-visible
  // after all; a second ticket would double-page. Absorb this case and move
  // its verdicts onto the probe case as cross-plane agreements — this is
  // the verdict-before-probe-window order (the collective plane detects a
  // dead RNIC's hang within one iteration; the anomaly detector needs a
  // full window), which route_collective_verdict cannot corroborate because
  // the probe case did not exist yet.
  for (auto& other : cases_) {
    if (&other == &c || other.task != c.task) continue;
    if (other.cls != CaseClass::kProbePlane) continue;
    if (c.first_event > other.last_event + kCaseMergeWindow ||
        other.first_event > c.last_event + kCaseMergeWindow) {
      continue;
    }
    std::size_t adopted = 0;
    for (const auto& v : c.collective_evidence) {
      if (std::none_of(other.pairs.begin(), other.pairs.end(),
                       [&v](const EndpointPair& p) { return touches(p, v); })) {
        continue;
      }
      other.collective_evidence.push_back(v);
      ++other.collective_agreements;
      ++adopted;
    }
    if (adopted == 0) continue;
    ins_.coll_agreements.add(adopted);
    other.timeline.add(c.closed_at, "collective.corroborate",
                       std::to_string(adopted) +
                           " verdict(s) adopted from absorbed "
                           "network-silent case",
                       static_cast<double>(adopted));
    if (other.closed) {
      // The probe case already closed without the bonus; apply it now and
      // refresh its bundle so the ticket reflects the confirmation.
      other.localization.confidence =
          corroborated(other.localization.confidence);
      emit_bundle(other);
    }
    ins_.coll_absorbed.inc();
    suppress(c, "case.absorb",
             "probe plane saw the same incident; evidence attached to its "
             "case");
    return;
  }
  // Transient filtering, same spirit as the probe plane: a single slow
  // verdict with no hang is one noisy host interval, not a ticket.
  if (c.collective_evidence.size() < 2 &&
      c.collective_evidence.front().kind == collective::VerdictKind::kSlow &&
      c.collective_evidence.front().severity < 8.0) {
    suppress(c, "case.suppress",
             "single mild slow verdict: transient host noise");
    return;
  }
  // Localization from the verdict chain: the stall root's container and
  // host are the culprits; the wait-for chain contributes weak votes (it
  // is implicated, not guilty — Mycroft's distinction).
  const auto& root_verdict = c.collective_evidence.front();
  Localization loc;
  loc.method = LocalizationMethod::kCollectiveChain;
  loc.confidence = 1.0;
  const sim::ComponentRef root_container{
      sim::ComponentKind::kContainer, root_verdict.root.container.value()};
  loc.culprits.push_back(root_container);
  loc.votes.push_back({root_container, 1.0, "collective-root"});
  const auto host = topo_.host_of(root_verdict.root.rnic);
  const sim::ComponentRef host_ref{sim::ComponentKind::kHost, host.value()};
  loc.culprits.push_back(host_ref);
  loc.votes.push_back({host_ref, 0.5, "collective-root-host"});
  std::set<std::uint32_t> chain_seen{root_verdict.root.container.value()};
  for (const auto& v : c.collective_evidence) {
    for (const auto& w : v.waiters) {
      if (!chain_seen.insert(w.container.value()).second) continue;
      loc.votes.push_back(
          {{sim::ComponentKind::kContainer, w.container.value()},
           0.25,
           "collective-wait-chain"});
    }
  }
  c.localization = std::move(loc);
  file_ticket(c);
}

void SkeletonHunter::close_case(FailureCase& c) {
  c.closed = true;
  c.closed_at = events_.now();
  ins_.cases_closed.inc();
  if (c.cls == CaseClass::kTenantVisibleNetworkSilent) {
    close_collective_case(c);
    return;
  }
  // Transient filtering (§5.2): a single short-term latency outlier on its
  // own is transient congestion, not a failure case worth a ticket.
  if (c.events.size() < 2 &&
      c.events.front().kind == AnomalyKind::kLatencyShortTerm) {
    suppress(c, "case.suppress",
             "single short-term outlier: transient congestion");
    return;
  }
  const std::vector<EndpointPair> pairs(c.pairs.begin(), c.pairs.end());
  // Path-scoped evidence: events the detector fired on one specific
  // equal-cost member (per-path sub-series under spray/adaptive routing)
  // become hints that scope their pair's tomography vote to that member's
  // components. Sorted + deduped so the hint set — like the event set it
  // derives from — is shard-count-invariant.
  std::vector<PathScopedAnomaly> hints;
  for (const auto& e : c.events) {
    if (e.path_id == AnomalyEvent::kAnyPath) continue;
    hints.push_back(PathScopedAnomaly{e.pair, e.path_id});
  }
  std::sort(hints.begin(), hints.end(),
            [](const PathScopedAnomaly& a, const PathScopedAnomaly& b) {
              if (a.pair != b.pair) return a.pair < b.pair;
              return a.path_id < b.path_id;
            });
  hints.erase(std::unique(hints.begin(), hints.end(),
                          [](const PathScopedAnomaly& a,
                             const PathScopedAnomaly& b) {
                            return a.pair == b.pair && a.path_id == b.path_id;
                          }),
              hints.end());
  // Localize against the state at the first event: diagnostics (switch
  // logs, config checks) are inspected while the incident is live.
  c.localization = localizer_.localize(pairs, c.first_event, hints);
  // Cross-plane agreement: collective verdicts that implicated this case's
  // containers were attached while it was open. Two independent signal
  // planes naming the same incident is stronger evidence than either
  // alone, so the bonus may push confidence past 1.0 — by design.
  if (c.collective_agreements > 0) {
    c.localization.confidence = corroborated(c.localization.confidence);
    c.timeline.add(c.closed_at, "collective.confirm",
                   std::to_string(c.collective_agreements) +
                       " collective verdict(s) corroborate the probe plane",
                   c.localization.confidence);
  }
  // Stage 3 of the latency plane: first event to verdict, and the
  // end-to-end ingest-to-verdict span measured from the *opening* of the
  // first anomalous window (detected_at stamps its close).
  ins_.localize_s.observe((c.closed_at - c.first_event).to_seconds());
  ins_.verdict_s.observe(
      (c.closed_at - (c.first_event - cfg_.detector.short_window))
          .to_seconds());
  file_ticket(c);
}

void SkeletonHunter::file_ticket(FailureCase& c) {
  const bool probe_plane = c.cls == CaseClass::kProbePlane;
  c.timeline.add(c.closed_at, "localize",
                 std::string(to_string(c.localization.method)),
                 static_cast<double>(c.localization.culprits.size()));
  if (probe_plane) {
    c.timeline.add(c.closed_at, "confidence",
                   "fraction of consulted evidence that answered",
                   c.localization.confidence);
  }
  c.timeline.add(c.closed_at, "case.close",
                 probe_plane
                     ? "quiet for case_quiet_period; ticket filed"
                     : "network-silent ticket routed to tenant/host owners");
  if (obs_ != nullptr) {
    obs_->tracer.instant("hunter", "case.close", c.closed_at, c.id,
                         c.localization.culprits.size());
  }
  // §8: culprit components are banned from new placements until repaired.
  // A re-ban within hysteresis of the component's repair is the same
  // incident flapping: the ban sticks but the alert is dampened. Not for a
  // network-silent ticket: a hung or slow host is a tenant/host-plane
  // problem, and banning network components on collective evidence alone
  // would let the second plane pollute the first plane's placement filter.
  if (probe_plane) {
    for (const auto& culprit : c.localization.culprits) {
      if (blacklist_.add(culprit, c.closed_at) == BanOutcome::kFlapReban) {
        ins_.flap_rebans.inc();
        c.timeline.add(c.closed_at, "blacklist.flap",
                       "re-ban within hysteresis of repair; alert dampened");
      }
    }
  }
  // The open-time bundle is replaced by one carrying the verdict, the full
  // timeline and the closing vote tally.
  emit_bundle(c);
}

void SkeletonHunter::drain_windows() {
  if (obs_ == nullptr) return;
  window_scratch_.clear();
  detector_.drain_window_log(window_scratch_);
  if (ins_.recorder == nullptr) return;
  for (const auto& w : window_scratch_) {
    const auto gid = detector_.find_handle(w.pair);
    if (gid != common::FlatPairTable::kNoSlot) {
      ins_.recorder->record_window(gid, w);
    }
  }
}

void SkeletonHunter::emit_bundle(const FailureCase& c) {
  // A recorder comes only with an attached context (Instruments(ctx)).
  if (ins_.recorder == nullptr) return;
  const obs::MetricsSnapshot snap = obs_->registry.scrape();
  ins_.recorder->store_bundle(
      c.id, forensic_bundle_json(c, detector_, ins_.recorder, &snap));
}

void SkeletonHunter::mark_repaired(sim::ComponentRef ref) {
  blacklist_.clear(ref, events_.now());
}

void SkeletonHunter::opt_out(TaskId task) {
  const auto mit = monitors_.find(task);
  if (mit == monitors_.end()) return;
  mit->second.active = false;
  mit->second.current_list.clear();
  distribute_list(task);
}

void SkeletonHunter::finalize() {
  // A campaign ending mid-blackout still warm-restarts first: the in-flight
  // cases must be localized from the checkpoint, not lost with the dead
  // process.
  if (in_blackout_) leave_blackout(events_.now());
  const auto tail_events = detector_.flush(events_.now());
  drain_windows();
  route_by_task(tail_events);
  for (auto& c : cases_) {
    if (!c.closed) close_case(c);
  }
  std::erase_if(cases_, [](const FailureCase& c) { return c.suppressed; });
}

std::size_t SkeletonHunter::current_targets(TaskId task) const {
  std::size_t total = 0;
  for (ContainerId cid : orch_.task(task).containers) {
    const auto it = agents_.find(cid);
    if (it != agents_.end()) total += it->second.total_targets();
  }
  return total;
}

}  // namespace skh::core
