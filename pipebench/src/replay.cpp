// replay_97k: the analyzer alone on shard_drill's pair population.
//
// Three 64-container x 8-GPU tasks on the 4096-host rail fabric give 96,768
// rail-pruned directed pairs. Seeded synthetic rounds of pair-keyed results
// (replay_gen.h) arrive every 5 s and pass through `handle_of` ->
// `ingest_batch` -> `drain_window_log` at 2 shards (the main thread plus 2
// pool workers); `Localizer::localize` runs on each episode's anomalous
// pairs once the episode has been quiet for the hunter's 90 s quiet period.
// Round generation stays outside the timed calls. The run spans two
// 30-minute long windows, so the long-term Z-test closes and scores.
//
// An untraced run replays the seed again and again in one process for
// --seconds; a round's time is the fastest of its repetitions, and every
// repetition must reproduce the first's event fingerprint.
#include <bit>
#include <memory>

#include "common.h"
#include "core/metrics.h"
#include "core/ping_list_gen.h"
#include "replay_gen.h"

namespace pb {
namespace {

constexpr std::uint32_t kTasks = 3;
constexpr std::uint32_t kContainers = 64;
constexpr std::uint32_t kGpus = 8;
constexpr std::size_t kShards = 2;
const SimTime kInterval = SimTime::seconds(5);
constexpr std::size_t kWarmupRounds = 60;  ///< the 5-minute LOF look-back
/// Repetitions of the replay in an untraced run: at least this many, then
/// more while the next fits in --seconds (a traced run makes one). Each
/// builds the deployment from scratch and replays the seed; a round's time
/// is the fastest of its repetitions, and setup_s the median of the
/// set-ups.
constexpr std::size_t kMinRepetitions = 3;
/// Rounds per repetition, warm-up included: 61 minutes, which close the
/// second 30-minute long window.
constexpr std::size_t kRounds = 736;
constexpr std::size_t kBlockRounds = 6;
/// Rounds an episode must stay quiet before its pairs are localized
/// (the hunter's 90 s case quiet period).
constexpr std::size_t kQuietRounds = 18;

struct Episode {
  std::uint32_t fault_id = 0;
  std::size_t first_round = 0;
  std::size_t last_round = 0;  ///< exclusive
  std::vector<std::uint32_t> pairs;  ///< affected pair indices
  // Outcome.
  std::vector<core::AnomalyEvent> events;
  std::size_t last_event_round = 0;
  bool localized = false;
  bool correct = false;
  double localize_ms = 0.0;
};

/// One replay deployment: placement, population, episodes, and analyzer.
class Replay {
 public:
  Replay(std::uint64_t seed, std::size_t shards, std::size_t rounds)
      : seed_(seed), rounds_(rounds) {
    core::ExperimentConfig cfg;
    cfg.topology.num_hosts = 4096;
    cfg.topology.rails_per_host = 8;
    cfg.topology.hosts_per_segment = 64;
    cfg.seed = seed;
    cfg.obs.metrics = false;
    exp_ = std::make_unique<core::Experiment>(cfg);
    for (std::uint32_t t = 0; t < kTasks; ++t) {
      cluster::TaskRequest req;
      req.num_containers = kContainers;
      req.gpus_per_container = kGpus;
      req.lifetime = SimTime::hours(24);
      const auto task = exp_->launch_task(req);
      if (!task) return;
      exp_->run_to_running(*task);
      const auto list = core::basic_ping_list(
          exp_->orchestrator().endpoints_of_task(*task),
          [this](const Endpoint& ep) { return exp_->rank_of(ep); });
      pairs_.insert(pairs_.end(), list.begin(), list.end());
      task_first_pair_.push_back(pairs_.size() - list.size());
    }
    t0_ = exp_->events().now();
    probe::ProbeEngine engine(exp_->topology(), exp_->overlay(),
                              exp_->faults(), RngStream(seed));
    base_rtt_.reserve(pairs_.size());
    for (const auto& p : pairs_) {
      base_rtt_.push_back(engine.baseline_rtt_us(p.src, p.dst));
    }
    plan_episodes();
    mask_.assign(pairs_.size(), 0);

    core::DetectorConfig dcfg;
    dcfg.expected_pairs = pairs_.size();
    if (shards > 1) pool_ = std::make_unique<common::ThreadPool>(shards);
    detector_ = std::make_unique<core::ShardedDetector>(dcfg, shards,
                                                        pool_.get());
    detector_->attach_obs(&obs_);
    detector_->reserve_pairs(pairs_.size());
    analyzer_ = std::make_unique<TimedAnalyzer>(*detector_);
    oracle_ = std::make_unique<core::DiagnosticsOracle>(
        exp_->faults(), RngStream(seed).fork("pipebench.replay.oracle"));
    localizer_ = std::make_unique<core::Localizer>(
        exp_->topology(), exp_->overlay(), *oracle_, exp_->faults());
    ok_ = true;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t pair_count() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] const std::vector<Episode>& episodes() const noexcept {
    return episodes_;
  }
  [[nodiscard]] const core::ShardedDetector& detector() const noexcept {
    return *detector_;
  }
  [[nodiscard]] core::Experiment& experiment() noexcept { return *exp_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }
  /// Events no episode was credited with (see attribute_event).
  [[nodiscard]] std::uint64_t unattributed() const noexcept {
    return unattributed_;
  }

  struct RoundCost {
    TimedAnalyzer::Round analyzer;
    double localize_s = 0.0;
    [[nodiscard]] double total_s() const {
      return analyzer.total_s() + localize_s;
    }
    std::vector<std::size_t> shard_items;  ///< traced runs only
  };

  /// Generate round `r` (untimed) and push it through the analyzer.
  RoundCost round(std::size_t r, Tracer& tracer) {
    generate(r);
    RoundCost cost;
    {
      Tracer::Scope span(tracer, "replay.round", r);
      cost.analyzer = analyzer_->round(results_, tracer, r);
      attribute(r);
      cost.localize_s = localize_due(r, tracer);
    }
    if (tracer.enabled()) {
      cost.shard_items.assign(detector_->shard_count(), 0);
      for (const auto& item : analyzer_->batch()) {
        ++cost.shard_items[detector_->shard_of(item.handle)];
      }
    }
    return cost;
  }

  /// End of replay: flush the detector and localize what is still open.
  void finish(Tracer& tracer) {
    const SimTime end = time_of(rounds_);
    const auto tail = detector_->flush(end);
    fp_ = fold_all(fp_, tail);
    for (const auto& e : tail) attribute_event(e, rounds_);
    localize_due(rounds_ + kQuietRounds, tracer);
  }

 private:
  [[nodiscard]] SimTime time_of(std::size_t r) const {
    return t0_ + kInterval * static_cast<double>(r + 1);
  }

  /// Seeded episodes, one component per task and kind, staggered so no
  /// two overlap in time except the long drift, which spans the whole
  /// second long window on a component no other episode touches.
  void plan_episodes() {
    RngStream pick = RngStream(seed_).fork("pipebench.replay.episodes");
    const auto& topo = exp_->topology();
    const auto endpoint = [&](std::size_t task) {
      const std::size_t lo = task_first_pair_[task];
      const std::size_t hi =
          task + 1 < task_first_pair_.size() ? task_first_pair_[task + 1]
                                             : pairs_.size();
      return pairs_[static_cast<std::size_t>(pick.uniform_int(
                        static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi) - 1))]
          .src;
    };
    auto& faults = exp_->faults();
    const auto add = [&](sim::IssueType type, sim::ComponentRef target,
                         std::size_t first, std::size_t last,
                         std::optional<sim::FaultEffect> effect = {}) {
      const auto id = faults.inject(type, target, time_of(first),
                                    time_of(last),
                                    effect.value_or(sim::default_effect(type)));
      Episode ep;
      ep.fault_id = id;
      ep.first_round = first;
      ep.last_round = last;
      for (std::uint32_t i = 0; i < pairs_.size(); ++i) {
        if (core::fault_affects_pair(faults.fault(id), pairs_[i], topo)) {
          ep.pairs.push_back(i);
        }
      }
      episodes_.push_back(std::move(ep));
    };
    const auto rnic = [](const Endpoint& e) {
      return sim::ComponentRef{sim::ComponentKind::kRnic, e.rnic.value()};
    };
    // Five short episodes of 5 minutes (60 rounds), then the long drift.
    const auto e0 = endpoint(0);
    add(sim::IssueType::kRnicPortDown, rnic(e0), 100, 160);
    const auto e1 = endpoint(1);
    add(sim::IssueType::kCrcError,
        {sim::ComponentKind::kPhysicalLink, topo.uplink_of(e1.rnic).value()},
        200, 260);
    const auto e2 = endpoint(2);
    add(sim::IssueType::kSwitchPortFlapping,
        {sim::ComponentKind::kPhysicalSwitch,
         topo.tor_at(topo.segment_of(topo.host_of(e2.rnic)),
                     topo.rail_of(e2.rnic))
             .value()},
        300, 360);
    const auto e3 = endpoint(0);
    add(sim::IssueType::kRnicFirmwareNotResponding, rnic(e3), 420, 480);
    const auto e4 = endpoint(2);
    add(sim::IssueType::kRnicPortFlapping, rnic(e4), 540, 600);
    // Gradual drift: ~10% on a ~14 us RTT — under the LOF gate's 15% shift,
    // over the long-term Z-test's 5% floor — for the second long window.
    Endpoint e5 = endpoint(1);
    while (e5.rnic == e1.rnic) e5 = endpoint(1);
    sim::FaultEffect drift;
    drift.extra_latency_us = 1.5;
    add(sim::IssueType::kRnicFirmwareNotResponding, rnic(e5), 360, 720,
        drift);
  }

  /// Build round `r`'s results: each pair's (seed, pair, round) sample
  /// under the episodes active at the round's instant.
  void generate(std::size_t r) {
    const SimTime at = time_of(r);
    const auto& faults = exp_->faults();
    for (std::size_t e = 0; e < episodes_.size(); ++e) {
      const auto bit = static_cast<std::uint8_t>(1u << e);
      if (r == episodes_[e].first_round) {
        for (auto i : episodes_[e].pairs) mask_[i] |= bit;
      } else if (r == episodes_[e].last_round) {
        for (auto i : episodes_[e].pairs) mask_[i] &= static_cast<std::uint8_t>(~bit);
      }
    }
    results_.resize(pairs_.size());
    for (std::uint32_t i = 0; i < pairs_.size(); ++i) {
      ReplayEffect effect;
      for (std::uint8_t m = mask_[i]; m != 0; m &= static_cast<std::uint8_t>(m - 1)) {
        const sim::Fault& f =
            faults.fault(episodes_[static_cast<std::size_t>(std::countr_zero(m))]
                             .fault_id);
        if (!f.degrading_at(at)) continue;
        effect.unreachable = effect.unreachable || f.effect.unreachable;
        effect.loss_probability =
            1.0 - (1.0 - effect.loss_probability) *
                      (1.0 - f.effect.loss_probability);
        effect.extra_latency_us += f.effect.extra_latency_us;
      }
      const ReplaySample s = replay_sample(seed_, i, r, base_rtt_[i], effect);
      probe::ProbeResult& p = results_[i];
      p.pair = pairs_[i];
      p.sent_at = at;
      p.delivered = s.delivered;
      p.rtt_us = s.rtt_us;
      p.seq = r + 1;
      p.path_id = 0;
    }
  }

  std::uint64_t fold_all(std::uint64_t h,
                         const std::vector<core::AnomalyEvent>& events) const {
    std::vector<obs::EventRecord> recs;
    recs.reserve(events.size());
    for (const auto& e : events) recs.push_back(to_record(e));
    return fold_events(h, std::move(recs), /*long_term=*/true);
  }

  /// Credit an event of round `r` to the first episode that affects its
  /// pair and was active at `r` or ended less than the quiet period before.
  void attribute_event(const core::AnomalyEvent& e, std::size_t r) {
    const auto& faults = exp_->faults();
    for (auto& ep : episodes_) {
      if (r < ep.first_round || r >= ep.last_round + kQuietRounds ||
          ep.localized) {
        continue;
      }
      if (!core::fault_affects_pair(faults.fault(ep.fault_id), e.pair,
                                    exp_->topology())) {
        continue;
      }
      ep.events.push_back(e);
      ep.last_event_round = r;
      return;
    }
    ++unattributed_;
  }

  void attribute(std::size_t r) {
    fp_ = fold_all(fp_, analyzer_->events());
    for (const auto& e : analyzer_->events()) attribute_event(e, r);
  }

  /// Localize every episode that ended and has been quiet for the quiet
  /// period. Returns the wall time spent in `localize`.
  double localize_due(std::size_t r, Tracer& tracer) {
    double spent = 0.0;
    for (auto& ep : episodes_) {
      if (ep.localized || r < ep.last_round ||
          r < ep.last_event_round + kQuietRounds || ep.events.empty()) {
        continue;
      }
      std::vector<EndpointPair> pairs;
      for (const auto& e : ep.events) pairs.push_back(e.pair);
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      const sim::Fault& f = exp_->faults().fault(ep.fault_id);
      const double t0 = now_s();
      const core::Localization loc = localizer_->localize(pairs, f.start);
      const double t1 = now_s();
      tracer.record("core.localize", r, t0, t1);
      spent += t1 - t0;
      ep.localize_ms = (t1 - t0) * 1e3;
      ep.localized = true;
      // Judge the verdict exactly as a campaign case would be judged.
      core::FailureCase c;
      c.first_event = ep.events.front().detected_at;
      c.last_event = ep.events.back().detected_at;
      c.pairs.insert(pairs.begin(), pairs.end());
      c.events = ep.events;
      c.localization = loc;
      sim::FaultInjector one;
      one.inject(f.type, f.target, f.start, f.end, f.effect);
      ep.correct =
          core::score_campaign({c}, one, exp_->topology()).localized_correct > 0;
    }
    return spent;
  }

  std::uint64_t seed_;
  std::size_t rounds_;
  bool ok_ = false;
  std::unique_ptr<core::Experiment> exp_;
  SimTime t0_;
  std::vector<EndpointPair> pairs_;
  std::vector<std::size_t> task_first_pair_;
  std::vector<double> base_rtt_;
  std::vector<Episode> episodes_;
  std::vector<std::uint8_t> mask_;  ///< active episodes per pair (bit e)
  std::vector<probe::ProbeResult> results_;
  obs::Context obs_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<core::ShardedDetector> detector_;
  std::unique_ptr<TimedAnalyzer> analyzer_;
  std::unique_ptr<core::DiagnosticsOracle> oracle_;
  std::unique_ptr<core::Localizer> localizer_;
  std::uint64_t fp_ = kFnvBasis;
  std::uint64_t unattributed_ = 0;
};

}  // namespace

int run_replay(const Args& args) {
  Report report;
  HostWatch host;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  const std::size_t min_reps = args.trace ? 1 : kMinRepetitions;

  // Each repetition builds the same replay again and times it; the last one
  // stays for the checks and the per-layer table.
  std::vector<double> setup_s;
  std::vector<std::vector<TickSample>> rep_samples;
  std::vector<Replay::RoundCost> costs;  ///< of the last repetition
  std::unique_ptr<Replay> rp;
  double rss_setup = 0.0;
  core::DetectorCounters c0{}, c1{};
  std::uint64_t fingerprint = 0;
  const double begin = now_s();
  double rep_s = 0.0;  // wall time of the longest repetition
  for (std::size_t rep = 0;
       another_repetition(rep, min_reps, now_s() - begin, rep_s,
                          args.trace ? 0.0 : args.seconds);
       ++rep) {
    rp.reset();
    const double t0 = now_s();
    rp = std::make_unique<Replay>(args.seed, kShards, kRounds);
    if (!rp->ok()) {
      report.check(false, "replay_97k: the cluster rejected a task");
      return report.finish();
    }
    for (std::size_t r = 0; r < kWarmupRounds; ++r) (void)rp->round(r, untraced);
    setup_s.push_back(now_s() - t0);
    if (rep == 0) rss_setup = rss_mb();

    c0 = rp->detector().counters();
    costs.clear();
    std::vector<TickSample> samples;
    for (std::size_t r = kWarmupRounds; r < kRounds; ++r) {
      auto cost = rp->round(r, tracer);
      TickSample s;
      s.ms = cost.total_s() * 1e3;
      s.wall_s = cost.total_s();
      s.probes = cost.analyzer.items;
      s.kind = cost.analyzer.kind;
      samples.push_back(s);
      costs.push_back(std::move(cost));
    }
    rep_samples.push_back(std::move(samples));
    rp->finish(tracer);
    c1 = rp->detector().counters();
    if (rep == 0) fingerprint = rp->fingerprint();
    report.check(rp->fingerprint() == fingerprint,
                 "replay_97k: repetition " + std::to_string(rep) +
                     " reproduced the first's event fingerprint");
    rep_s = std::max(rep_s, now_s() - t0);
  }
  note_repetitions(rep_samples, kBlockRounds);
  std::vector<TickSample> samples;
  report.check(fastest_per_tick(rep_samples, samples),
               "replay_97k: every repetition did the same work, round by round");
  const TickSummary ts = summarize_ticks(samples, kBlockRounds);

  std::size_t correct = 0, localized = 0;
  std::vector<double> detect, localize_ms;
  const auto& faults = rp->experiment().faults();
  for (const auto& ep : rp->episodes()) {
    const sim::Fault& f = faults.fault(ep.fault_id);
    const bool fired = !ep.events.empty();
    const std::string name = "replay_97k: episode " + std::to_string(ep.fault_id);
    report.check(fired, name + " fired on its affected pairs");
    report.check(ep.correct, name + " localized to its component");
    report.operation(ep.correct);
    correct += ep.correct ? 1 : 0;
    if (ep.localized) {
      ++localized;
      localize_ms.push_back(ep.localize_ms);
    }
    if (fired) {
      detect.push_back((ep.events.front().detected_at - f.start).to_seconds());
    }
    note("#   episode %u %s on %s: %zu pairs, %zu events, localized=%d "
         "correct=%d",
         ep.fault_id, std::string(sim::to_string(f.type)).c_str(),
         sim::to_string(f.target).c_str(), ep.pairs.size(), ep.events.size(),
         ep.localized, ep.correct);
  }
  report.check(c1.lof_fast_path + c1.lof_fallback + c1.lof_gate_skips > 0,
               "replay_97k: LOF scored or gated at least one window");
  report.check(c1.long_windows_closed > 0,
               "replay_97k: long (30-minute) windows closed");
  report.check(rp->pair_count() == 96768, "replay_97k: 96,768 pairs replayed");
  note("# replay_97k seed=%llu: %zu pairs, %zu timed rounds (%zu closing), "
       "%zu/%zu episodes localized correctly, %llu unattributed events",
       static_cast<unsigned long long>(args.seed), rp->pair_count(), ts.ticks,
       ts.closing, correct, rp->episodes().size(),
       static_cast<unsigned long long>(rp->unattributed()));

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

  // --- traced run: 1-shard identity and the per-layer table ---------------
  // Memory is read before the 1-shard replay builds a second deployment.
  const double rss_growth = peak_rss_mb() - rss_setup;
  {
    Replay one(args.seed, 1, kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) (void)one.round(r, untraced);
    one.finish(untraced);
    report.check(one.fingerprint() == rp->fingerprint(),
                 "replay_97k: 1-shard and 2-shard event fingerprints match");
  }
  Layers L;
  std::vector<TimedAnalyzer::Round> analyzer;
  std::vector<double> skew;
  for (const auto& c : costs) {
    analyzer.push_back(c.analyzer);
    double mx = 0, sum = 0;
    for (auto n : c.shard_items) {
      mx = std::max(mx, static_cast<double>(n));
      sum += static_cast<double>(n);
    }
    if (sum > 0) {
      skew.push_back(mx * static_cast<double>(c.shard_items.size()) / sum);
    }
  }
  L.set_analyzer(analyzer);
  const auto& table = rp->detector().pair_table().stats();
  L.router.probe_steps = static_cast<double>(table.probe_steps);
  L.router.recycled_ids = static_cast<double>(table.recycled_ids);
  L.detector.shard_skew = skew.empty() ? 0.0 : median(skew);
  L.set_counters(c0, c1);
  L.window_log.drops = static_cast<double>(rp->detector().window_log_drops());
  L.localize.calls = static_cast<double>(localized);
  L.localize.ms_p50 = localize_ms.empty() ? 0.0 : median(localize_ms);
  L.localize.correct_frac =
      localized > 0 ? static_cast<double>(correct) / static_cast<double>(localized) : 0.0;
  L.latency.detect_s_p50 = median_known(detect);
  L.mem.rss_setup_mb = rss_setup;
  L.mem.rss_growth_mb = rss_growth;
  L.set_overhead(args, ts.tick_ms_p50);
  L.emit(report);
  host.finish(report, true);
  if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    report.check(false, "replay_97k: trace file written");
  }
  return report.finish();
}

}  // namespace pb
