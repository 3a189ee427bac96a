// fabric_24k: the full pipeline at rail-fabric scale through core::Experiment.
//
// shard_drill's 4096-host rail fabric (64 hosts per segment) carries three
// 32-container x 8-GPU tasks probing their rail-pruned basic lists (23,808
// directed pairs) every 5 s over static ECMP, through one analyzer shard
// with default observability (metrics plus flight recorder). After a
// healthy look-back, one seed-chosen fault hits each task: an RNIC port
// down, an uplink CRC error, and a ToR port flapping.
//
// An untraced run sets the seed's campaign up and times it again and again
// in one process for --seconds; a tick's time is the fastest of its
// repetitions, and every repetition must reproduce the first's counters and
// verdicts.
//
// The traced run also drives a replica after every hunter tick, outside the
// tick's span: its own ProbeEngine on the same topology, overlay and faults
// with the hunter's engine stream, the same container-ordered rounds and
// per-pair sequence numbers, an honest TelemetryChannel, and its own
// 1-shard ShardedDetector. Its counters and event fingerprint must equal
// the hunter's, or the per-layer numbers would describe another program.
#include <memory>
#include <optional>

#include "common.h"
#include "core/metrics.h"
#include "core/ping_list_gen.h"

namespace pb {
namespace {

constexpr std::uint32_t kTasks = 3;
constexpr std::uint32_t kContainers = 32;
constexpr std::uint32_t kGpus = 8;
const SimTime kInterval = SimTime::seconds(5);
/// Ticks before the timed phase: fills the 5-minute LOF look-back.
constexpr std::size_t kWarmupTicks = 60;
/// Repetitions of the campaign in an untraced run: at least this many, then
/// more while the next fits in --seconds (a traced run makes one). Each
/// sets the campaign up from scratch and times it; a tick's time is the
/// fastest of its repetitions, and setup_s the median of the set-ups.
constexpr std::size_t kMinRepetitions = 3;
/// Timed ticks per repetition (a tick takes ~50 ms on a 4-core x86 box);
/// they cover every fault's verdict.
constexpr std::size_t kTimedTicks = 168;
/// Ticks per throughput block: one 30 s window, so each block holds the
/// same mix of plain and closing ticks.
constexpr std::size_t kBlockTicks = 6;

core::ExperimentConfig fabric_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.topology.num_hosts = 4096;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 64;
  cfg.hunter.analyzer_shards = 1;
  cfg.hunter.probe_interval = kInterval;
  cfg.seed = seed;
  return cfg;
}

/// The hunter's probe rounds, replayed outside it: a second ProbeEngine
/// with the hunter's engine stream, container-ordered basic-list targets
/// with per-pair sequence numbers, an honest telemetry channel, and a
/// 1-shard detector with the hunter's DetectorConfig.
class Replica {
 public:
  Replica(core::Experiment& exp, const core::ExperimentConfig& cfg,
          const std::vector<TaskId>& tasks)
      : engine_(exp.topology(), exp.overlay(), exp.faults(),
                RngStream(cfg.seed).fork("hunter").fork("engine"),
                cfg.hunter.engine),
        detector_(cfg.hunter.detector, 1, nullptr),
        analyzer_(detector_) {
    // Like the hunter's detector: observed, so closed windows are logged
    // for drain_window_log.
    detector_.attach_obs(&obs_);
    // The hunter's agents live in a map keyed by container id, each holding
    // its slice of the task's basic list in list order.
    std::map<ContainerId, std::vector<EndpointPair>> by_container;
    for (const TaskId task : tasks) {
      const auto list = core::basic_ping_list(
          exp.orchestrator().endpoints_of_task(task),
          [&exp](const Endpoint& ep) { return exp.rank_of(ep); });
      for (const auto& p : list) by_container[p.src.container].push_back(p);
    }
    for (auto& [cid, pairs] : by_container) {
      targets_.insert(targets_.end(), pairs.begin(), pairs.end());
    }
    next_seq_.assign(targets_.size(), 1);
    detector_.reserve_pairs(targets_.size());
  }

  struct TickCost {
    double engine_s = 0.0;
    double telemetry_s = 0.0;
    std::size_t undelivered = 0;
    TimedAnalyzer::Round analyzer;
    [[nodiscard]] double total_s() const {
      return engine_s + telemetry_s + analyzer.total_s();
    }
  };

  TickCost round(SimTime now, Tracer& tracer, std::uint64_t tick) {
    TickCost cost;
    Tracer::Scope span(tracer, "replica.round", tick);
    results_.clear();
    double t0 = now_s();
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      results_.push_back(engine_.probe(targets_[i].src, targets_[i].dst, now));
      results_.back().seq = next_seq_[i]++;
    }
    double t1 = now_s();
    tracer.record("probe.engine", tick, t0, t1);
    cost.engine_s = t1 - t0;
    for (const auto& r : results_) cost.undelivered += r.delivered ? 0 : 1;

    t0 = now_s();
    telemetry_.transmit(results_, now);
    t1 = now_s();
    tracer.record("probe.telemetry", tick, t0, t1);
    cost.telemetry_s = t1 - t0;

    cost.analyzer = analyzer_.round(results_, tracer, tick);
    std::vector<obs::EventRecord> recs;
    for (const auto& e : analyzer_.events()) recs.push_back(to_record(e));
    fingerprint_ = fold_events(fingerprint_, std::move(recs));
    return cost;
  }

  /// End of campaign: the detector's flush, folded like a round.
  void flush(SimTime now) {
    std::vector<obs::EventRecord> recs;
    for (const auto& e : detector_.flush(now)) recs.push_back(to_record(e));
    fingerprint_ = fold_events(fingerprint_, std::move(recs));
  }

  [[nodiscard]] core::DetectorCounters counters() const {
    return detector_.counters();
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] const core::ShardedDetector& detector() const noexcept {
    return detector_;
  }

 private:
  probe::ProbeEngine engine_;
  probe::TelemetryChannel telemetry_;  // honest: a pass-through
  obs::Context obs_;  // outlives detector_, which holds a pointer to it
  core::ShardedDetector detector_;
  TimedAnalyzer analyzer_;
  std::vector<EndpointPair> targets_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<probe::ProbeResult> results_;
  std::uint64_t fingerprint_ = kFnvBasis;
};

/// Events the hunter routed since the last call, read back from the flight
/// recorder's event ring, folded like the replica's.
class HunterEventTap {
 public:
  explicit HunterEventTap(const obs::FlightRecorder& rec) : rec_(rec) {}

  /// Returns false when the ring wrapped within one tick (events lost).
  bool fold_new() {
    const auto events = rec_.events();
    const std::uint64_t total = events.size() + rec_.event_drops();
    const std::uint64_t fresh = total - seen_;
    seen_ = total;
    if (fresh == 0) return true;
    if (fresh > events.size()) return false;
    fingerprint_ = fold_events(
        fingerprint_,
        std::vector<obs::EventRecord>(events.end() - static_cast<std::ptrdiff_t>(fresh),
                                      events.end()));
    return true;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  const obs::FlightRecorder& rec_;
  std::uint64_t seen_ = 0;
  std::uint64_t fingerprint_ = kFnvBasis;
};

struct Fabric {
  core::ExperimentConfig cfg;
  std::unique_ptr<core::Experiment> exp;
  std::vector<TaskId> tasks;
  SimTime first_tick;
  SimTime last_tick;
  std::unique_ptr<TickMarkers> markers;
  std::unique_ptr<Replica> replica;
  std::unique_ptr<HunterEventTap> tap;
  std::vector<Replica::TickCost> replica_costs;  ///< one per marker tick
  bool tap_ok = true;
};

/// Build the deployment, inject the faults, and run the warm-up ticks.
std::unique_ptr<Fabric> set_up(const Args& args, Tracer& tracer) {
  auto f = std::make_unique<Fabric>();
  f->cfg = fabric_config(args.seed);
  f->exp = std::make_unique<core::Experiment>(f->cfg);
  core::Experiment& exp = *f->exp;
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    cluster::TaskRequest req;
    req.num_containers = kContainers;
    req.gpus_per_container = kGpus;
    req.lifetime = SimTime::hours(24);
    const auto task = exp.launch_task(req);
    if (!task) return nullptr;
    exp.run_to_running(*task);
    f->tasks.push_back(*task);
  }
  const SimTime t0 = exp.events().now();
  f->first_tick = t0 + kInterval;
  f->last_tick =
      f->first_tick +
      kInterval * static_cast<double>(kWarmupTicks + kTimedTicks - 1);

  // One seed-chosen fault per task, staggered through the timed phase and
  // starting mid-interval; each lasts five minutes. A case closes 90 s
  // after its last event, which for the last fault falls inside the timed
  // phase on the seeds measured; finalize() closes any case still open.
  RngStream pick = RngStream(args.seed).fork("pipebench.fabric.faults");
  const auto& topo = exp.topology();
  const auto endpoint = [&](std::size_t task) {
    const auto eps = exp.orchestrator().endpoints_of_task(f->tasks[task]);
    return eps[static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(eps.size()) - 1))];
  };
  const SimTime timed0 =
      f->first_tick + kInterval * static_cast<double>(kWarmupTicks);
  const auto at = [&](double minutes) {
    return timed0 + SimTime::minutes(minutes) + SimTime::seconds(2.5);
  };
  // Tasks 0 and 1 share a 64-host segment and task 2 has one of its own,
  // so the ToR fault goes to task 2: it then hits exactly one task.
  const auto ep0 = endpoint(0);
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, ep0.rnic.value()}, at(1),
                      at(6));
  const auto ep1 = endpoint(1);
  exp.faults().inject(sim::IssueType::kCrcError,
                      {sim::ComponentKind::kPhysicalLink,
                       topo.uplink_of(ep1.rnic).value()},
                      at(4), at(9));
  const auto ep2 = endpoint(2);
  exp.faults().inject(
      sim::IssueType::kSwitchPortFlapping,
      {sim::ComponentKind::kPhysicalSwitch,
       topo.tor_at(topo.segment_of(topo.host_of(ep2.rnic)),
                   topo.rail_of(ep2.rnic))
           .value()},
      at(7), at(12));

  Fabric* fp = f.get();
  TickMarkers::AfterTick after;
  if (tracer.enabled()) {
    f->replica = std::make_unique<Replica>(exp, f->cfg, f->tasks);
    f->tap = std::make_unique<HunterEventTap>(exp.obs().recorder);
    after = [fp, &tracer](const TickMarkers::Tick& k) {
      const std::uint64_t tick = fp->markers->ticks().size() - 1;
      tracer.record("hunter.tick", tick, k.open_s, k.close_s);
      fp->tap_ok = fp->tap->fold_new() && fp->tap_ok;
      fp->replica_costs.push_back(fp->replica->round(k.at, tracer, tick));
    };
  }
  f->markers = std::make_unique<TickMarkers>(exp, f->first_tick, kInterval,
                                             f->last_tick, std::move(after));
  f->markers->arm();
  exp.hunter().start(f->last_tick);
  exp.events().run_until(f->first_tick +
                         kInterval * static_cast<double>(kWarmupTicks - 1));
  return f;
}

}  // namespace

int run_fabric(const Args& args) {
  Report report;
  HostWatch host;
  Tracer tracer(args.trace);
  // A traced run needs one repetition only (its figures are per-layer).
  const std::size_t min_reps = args.trace ? 1 : kMinRepetitions;

  // Each repetition sets the same campaign up again and times it; the last
  // deployment stays for the checks and the per-layer table.
  std::vector<double> setup_s;
  std::vector<std::vector<TickSample>> rep_samples;
  std::unique_ptr<Fabric> fab;
  double rss_setup = 0.0;
  core::DetectorCounters counters{};
  std::uint64_t verdicts = 0;
  const double begin = now_s();
  double rep_s = 0.0;  // wall time of the longest repetition
  for (std::size_t rep = 0;
       another_repetition(rep, min_reps, now_s() - begin, rep_s,
                          args.trace ? 0.0 : args.seconds);
       ++rep) {
    fab.reset();
    const double t0 = now_s();
    fab = set_up(args, tracer);
    setup_s.push_back(now_s() - t0);
    if (!fab) {
      report.check(false, "fabric_24k: the cluster rejected a task");
      return report.finish();
    }
    if (rep == 0) rss_setup = rss_mb();
    core::Experiment& exp = *fab->exp;
    exp.events().run_until(fab->last_tick);
    rep_samples.push_back(
        tick_samples(fab->markers->ticks(), kWarmupTicks, now_s()));
    exp.hunter().finalize();
    const auto c = exp.hunter().detector_counters();
    const auto v = verdict_fingerprint(exp.hunter().failure_cases());
    if (rep == 0) {
      counters = c;
      verdicts = v;
    }
    report.check(c == counters && v == verdicts,
                 "fabric_24k: repetition " + std::to_string(rep) +
                     " reproduced the first's counters and verdicts");
    rep_s = std::max(rep_s, now_s() - t0);
  }
  core::Experiment& exp = *fab->exp;
  const auto& marks = fab->markers->ticks();
  note_repetitions(rep_samples, kBlockTicks);
  std::vector<TickSample> samples;
  report.check(fastest_per_tick(rep_samples, samples),
               "fabric_24k: every repetition did the same work, tick by tick");
  const TickSummary ts = summarize_ticks(samples, kBlockTicks);

  const auto& cases = exp.hunter().failure_cases();
  const auto outcomes = score_faults(cases, exp.faults(), exp.topology());
  const std::size_t false_cases =
      count_operations(report, outcomes, cases, exp.faults(), exp.topology());

  report.check(marks.size() == kWarmupTicks + kTimedTicks &&
                   samples.size() == kTimedTicks,
               "fabric_24k: every tick instant was timed");
  const auto snap = exp.obs().registry.scrape();
  report.check(counter_value(snap, "hunter.ticks") == marks.size(),
               "fabric_24k: one hunter tick per marker pair");
  report.check(std::all_of(samples.begin(), samples.end(),
                           [](const TickSample& s) { return s.probes > 0; }),
               "fabric_24k: every timed tick ingested probes");
  report.check(counters.lof_fast_path + counters.lof_fallback +
                       counters.lof_gate_skips >
                   0,
               "fabric_24k: LOF scored or gated at least one window");
  report.check(ts.closing > 0 && ts.closing < ts.ticks,
               "fabric_24k: both plain and closing ticks were timed");

  double detect_p50 = 0.0, verdict_p50 = 0.0;
  {
    std::vector<double> detect, verdict;
    for (const auto& o : outcomes) {
      detect.push_back(o.detect_s);
      verdict.push_back(o.verdict_s);
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& f = exp.faults().faults()[i];
      note("#   fault %zu %s on %s: detected=%d verdict=%d detect=%.1fs "
           "verdict=%.1fs",
           i, std::string(sim::to_string(f.type)).c_str(),
           sim::to_string(f.target).c_str(), outcomes[i].detected,
           outcomes[i].verdict_correct, outcomes[i].detect_s,
           outcomes[i].verdict_s);
    }
    detect_p50 = median_known(detect);
    verdict_p50 = median_known(verdict);
  }
  note("# fabric_24k seed=%llu: %zu timed ticks (%zu closing), %zu cases, "
       "%zu false, detect_p50=%.1fs verdict_p50=%.1fs",
       static_cast<unsigned long long>(args.seed), ts.ticks, ts.closing,
       cases.size(), false_cases, detect_p50, verdict_p50);

  if (!args.trace) {
    note_base_tick(rep_samples.front());
    note_setups(setup_s);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("probes_per_s", ts.probes_per_s, "1/s");
    report.metric("close_tick_ms_p50", ts.close_ms_p50, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    host.finish(report, false);
    return report.finish();
  }

  // --- traced run: replica identity and the per-layer table --------------
  fab->replica->flush(exp.events().now());
  fab->tap_ok = fab->tap->fold_new() && fab->tap_ok;
  report.check(fab->tap_ok, "fabric_24k: recorder event ring kept up");
  report.check(fab->replica->counters() == counters,
               "fabric_24k: replica DetectorCounters equal the hunter's");
  report.check(fab->replica->fingerprint() == fab->tap->fingerprint(),
               "fabric_24k: replica event fingerprint equals the hunter's");

  Layers L;
  std::vector<TimedAnalyzer::Round> rounds;
  double engine_s = 0, layers_s = 0, tick_s = 0, undelivered = 0;
  for (std::size_t i = kWarmupTicks; i < marks.size(); ++i) {
    const auto& c = fab->replica_costs[i];
    rounds.push_back(c.analyzer);
    engine_s += c.engine_s;
    undelivered += static_cast<double>(c.undelivered);
    layers_s += c.total_s();
    tick_s += marks[i].close_s - marks[i].open_s;
  }
  L.set_analyzer(rounds);
  const double n_timed = static_cast<double>(samples.size());
  const double calls = L.detector.items;
  L.engine.calls = calls;
  L.engine.ns_per_call = engine_s * 1e9 / calls;
  L.engine.tick_share = engine_s / tick_s;
  L.engine.undelivered_frac = undelivered / calls;
  const auto& table = fab->replica->detector().pair_table().stats();
  L.router.probe_steps = static_cast<double>(table.probe_steps);
  L.router.recycled_ids = static_cast<double>(table.recycled_ids);
  L.detector.shard_skew = 1.0;
  L.set_counters(marks[kWarmupTicks].before, marks.back().after);
  L.window_log.drops =
      static_cast<double>(fab->replica->detector().window_log_drops());
  L.hunter.ticks = n_timed;
  L.hunter.self_ms_per_tick = (tick_s - layers_s) * 1e3 / n_timed;
  L.hunter.cases = static_cast<double>(cases.size());
  L.hunter.cases_false = static_cast<double>(false_cases);
  L.latency.detect_s_p50 = detect_p50;
  L.latency.verdict_s_p50 = verdict_p50;
  L.obs.bundles = static_cast<double>(exp.obs().recorder.bundles().size() +
                                      exp.obs().recorder.bundle_drops());
  L.obs.scrape_ms = scrape_ms(exp.obs().registry, 5);
  L.mem.rss_setup_mb = rss_setup;
  L.mem.rss_growth_mb = peak_rss_mb() - rss_setup;
  L.set_overhead(args, ts.tick_ms_p50);
  L.emit(report);
  host.finish(report, true);
  if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    report.check(false, "fabric_24k: trace file written");
  }
  return report.finish();
}

}  // namespace pb
