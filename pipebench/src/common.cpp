#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "core/metrics.h"

namespace pb {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", what.c_str());
}

int Report::finish() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::putchar('\n');
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double rss_mb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One pass of a fixed reference loop: a dependent pointer chase through a
/// 16 MiB single-cycle permutation, ns per step. Its working set is what
/// the shared last-level cache holds for this process when neighbours are
/// quiet, so like the workloads it slows when they are not; the same steps
/// on every run, so its time moves only with the host.
double reference_loop_ns() {
  constexpr std::size_t kSlots = (16u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kSteps = 1u << 20;
  // Visit order i -> (i * 2654435761) mod 2^22, an odd multiplier: a
  // permutation, chained into one cycle that defeats the prefetchers.
  std::vector<std::uint32_t> next(kSlots);
  const auto order = [](std::size_t i) {
    return static_cast<std::uint32_t>((i * 2654435761u) & (kSlots - 1));
  };
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[order(i)] = order((i + 1) & (kSlots - 1));
  }
  std::uint32_t p = 0;
  for (std::size_t k = 0; k < kSteps / 4; ++k) p = next[p];  // warm
  const double t0 = now_s();
  for (std::size_t k = 0; k < kSteps; ++k) p = next[p];
  const double t1 = now_s();
  // Keep the chain observable so the loop cannot be dropped.
  asm volatile("" : : "r"(p));
  return (t1 - t0) * 1e9 / static_cast<double>(kSteps);
}

}  // namespace

HostWatch::HostWatch()
    : wall0_(now_s()), cpu0_(process_cpu_s()),
      ref0_ns_(reference_loop_ns()) {}

void HostWatch::finish(Report& report, bool per_layer) {
  const double ref1_ns = reference_loop_ns();
  const double wall = now_s() - wall0_;
  const double cpu = process_cpu_s() - cpu0_;
  const double cpu_per_wall = wall > 0.0 ? cpu / wall : 0.0;
  const double ref_ns = 0.5 * (ref0_ns_ + ref1_ns);
  note("# host: cpu_per_wall=%.4f ref_loop_ns=%.1f (start %.1f, end %.1f)",
       cpu_per_wall, ref_ns, ref0_ns_, ref1_ns);
  if (per_layer) {
    report.metric("host.cpu_per_wall", cpu_per_wall, "ratio");
    report.metric("host.ref_loop_ns", ref_ns, "ns");
  }
}

TickMarkers::TickMarkers(core::Experiment& exp, SimTime first,
                         SimTime interval, SimTime last, AfterTick after)
    : exp_(exp), first_(first), interval_(interval), last_(last),
      after_(std::move(after)) {}

void TickMarkers::open_at(SimTime t) {
  exp_.events().schedule_at(t, [this, t] {
    // Queue the next instant's opener now: the hunter queues its next tick
    // only while running this one, so the opener stays ahead of it.
    if (t + interval_ <= last_) open_at(t + interval_);
    Tick k;
    k.at = t;
    k.before = exp_.hunter().detector_counters();
    ticks_.push_back(k);
    // The hunter's tick for `t` is already queued; this closer runs after.
    exp_.events().schedule_at(t, [this] { close(); });
    ticks_.back().open_s = now_s();
  });
}

void TickMarkers::close() {
  Tick& k = ticks_.back();
  k.close_s = now_s();
  k.after = exp_.hunter().detector_counters();
  k.blackout = exp_.hunter().analyzer_in_blackout();
  if (after_) after_(k);
}

void note_base_tick(const std::vector<TickSample>& first_rep) {
  std::vector<double> ms;
  for (const auto& t : first_rep) ms.push_back(t.ms);
  note("# base_tick_ms %.17g", ms.empty() ? 0.0 : median(ms));
}

void note_setups(const std::vector<double>& setup_s) {
  std::string line = "# set-ups (s):";
  char buf[32];
  for (double s : setup_s) {
    std::snprintf(buf, sizeof buf, " %.3f", s);
    line += buf;
  }
  note("%s", line.c_str());
}

void note_repetitions(const std::vector<std::vector<TickSample>>& reps,
                      std::size_t block) {
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const TickSummary one = summarize_ticks(reps[r], block);
    note("#   repetition %zu: probes_per_s %.0f, tick_ms_p50 %.3f, "
         "close_tick_ms_p50 %.3f",
         r, one.probes_per_s, one.tick_ms_p50, one.close_ms_p50);
  }
}

std::vector<TickSample> tick_samples(
    const std::vector<TickMarkers::Tick>& ticks, std::size_t from,
    double phase_end_s) {
  std::vector<TickSample> out;
  for (std::size_t i = from; i < ticks.size(); ++i) {
    const auto& k = ticks[i];
    TickSample s;
    s.ms = (k.close_s - k.open_s) * 1e3;
    const double next = i + 1 < ticks.size() ? ticks[i + 1].open_s : phase_end_s;
    s.wall_s = next - k.open_s;
    s.probes = k.after.probes_ingested - k.before.probes_ingested;
    s.kind = classify_tick(k.before.short_windows_closed,
                           k.after.short_windows_closed);
    out.push_back(s);
  }
  return out;
}

TimedAnalyzer::Round TimedAnalyzer::round(
    const std::vector<probe::ProbeResult>& results, Tracer& tracer,
    std::uint64_t tick) {
  Round r;
  r.items = results.size();
  const auto before = det_.counters().short_windows_closed;

  double t0 = now_s();
  batch_.clear();
  batch_.reserve(results.size());
  for (const auto& p : results) {
    batch_.push_back(core::ShardedDetector::BatchItem{
        det_.handle_of(p.pair), p.seq, p.sent_at, p.delivered, p.rtt_us,
        p.path_id});
  }
  double t1 = now_s();
  tracer.record("core.router", tick, t0, t1);
  r.router_s = t1 - t0;

  const double cpu0 = process_cpu_s();
  t0 = now_s();
  det_.ingest_batch(batch_, events_, fired_);
  t1 = now_s();
  r.detector_cpu_s = process_cpu_s() - cpu0;
  tracer.record("core.detector", tick, t0, t1);
  r.detector_s = t1 - t0;

  records_.clear();
  t0 = now_s();
  det_.drain_window_log(records_);
  t1 = now_s();
  tracer.record("core.window_log", tick, t0, t1);
  r.window_s = t1 - t0;
  r.records = records_.size();

  r.kind = classify_tick(before, det_.counters().short_windows_closed);
  return r;
}

obs::EventRecord to_record(const core::AnomalyEvent& e) {
  return obs::EventRecord{e.pair, e.detected_at, e.score,
                          static_cast<std::uint8_t>(e.kind)};
}

std::uint64_t fold_events(std::uint64_t h,
                          std::vector<obs::EventRecord> events,
                          bool long_term) {
  if (!long_term) {
    std::erase_if(events, [](const obs::EventRecord& e) {
      return e.kind ==
             static_cast<std::uint8_t>(core::AnomalyKind::kLatencyLongTerm);
    });
  }
  std::sort(events.begin(), events.end(),
            [](const obs::EventRecord& a, const obs::EventRecord& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.pair != b.pair) return a.pair < b.pair;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.score < b.score;
            });
  for (const auto& e : events) {
    h = fnv_fold(h, static_cast<std::uint64_t>(e.at.raw_nanos()));
    h = fnv_fold(h, (static_cast<std::uint64_t>(e.pair.src.rnic.value()) << 32) |
                        e.pair.dst.rnic.value());
    h = fnv_fold(h, (static_cast<std::uint64_t>(e.pair.src.container.value())
                     << 32) |
                        e.pair.dst.container.value());
    h = fnv_fold(h, e.kind);
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(e.score));
  }
  return h;
}

std::vector<FaultOutcome> score_faults(
    const std::vector<core::FailureCase>& cases,
    const sim::FaultInjector& faults, const topo::Topology& topo) {
  std::vector<FaultOutcome> out;
  for (const sim::Fault& f : faults.faults()) {
    FaultOutcome o;
    if (!sim::issue_info(f.type).probe_visible || !f.ground_truth) {
      out.push_back(o);
      continue;
    }
    // A one-fault injector lets score_campaign judge this fault alone.
    sim::FaultInjector one;
    one.inject(f.type, f.target, f.start, f.end, f.effect);
    double first_close = -1.0;
    for (const core::FailureCase& c : cases) {
      if (c.cls != core::CaseClass::kProbePlane) continue;
      const auto s = core::score_campaign({c}, one, topo);
      if (s.detected_true == 0) continue;
      o.detected = true;
      if (s.localized_correct > 0) {
        o.verdict_correct = true;
        const double at = (c.closed_at - f.start).to_seconds();
        if (first_close < 0.0 || at < first_close) first_close = at;
      }
      for (const core::AnomalyEvent& e : c.events) {
        if (e.detected_at < f.start ||
            !core::fault_affects_pair(f, e.pair, topo)) {
          continue;
        }
        const double d = (e.detected_at - f.start).to_seconds();
        if (o.detect_s < 0.0 || d < o.detect_s) o.detect_s = d;
      }
    }
    o.verdict_s = first_close;
    out.push_back(o);
  }
  return out;
}

std::size_t count_operations(Report& report,
                             const std::vector<FaultOutcome>& outcomes,
                             const std::vector<core::FailureCase>& cases,
                             const sim::FaultInjector& faults,
                             const topo::Topology& topo) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const sim::Fault& f = faults.faults()[i];
    if (!sim::issue_info(f.type).probe_visible || !f.ground_truth) continue;
    report.operation(outcomes[i].verdict_correct);
  }
  const auto score = core::score_campaign(cases, faults, topo);
  for (std::size_t i = 0; i < score.cases_false; ++i) report.operation(false);
  return score.cases_false;
}

double median_known(const std::vector<double>& v) {
  std::vector<double> known;
  for (double x : v) {
    if (x >= 0.0) known.push_back(x);
  }
  return known.empty() ? 0.0 : median(known);
}

std::uint64_t verdict_fingerprint(const std::vector<core::FailureCase>& cases) {
  std::uint64_t h = kFnvBasis;
  for (const core::FailureCase& c : cases) {
    h = fnv_fold(h, c.id);
    h = fnv_fold(h, c.task.value());
    h = fnv_fold(h, static_cast<std::uint64_t>(c.cls));
    h = fnv_fold(h, static_cast<std::uint64_t>(c.first_event.raw_nanos()));
    h = fnv_fold(h, static_cast<std::uint64_t>(c.last_event.raw_nanos()));
    h = fnv_fold(h, static_cast<std::uint64_t>(c.closed_at.raw_nanos()));
    for (const core::AnomalyEvent& e : c.events) {
      h = fnv_fold(h, static_cast<std::uint64_t>(e.detected_at.raw_nanos()));
      h = fnv_fold(h, static_cast<std::uint64_t>(e.kind));
      h = fnv_fold(h, e.pair.src.rnic.value());
      h = fnv_fold(h, e.pair.dst.rnic.value());
      h = fnv_fold(h, e.path_id);
      h = fnv_fold(h, std::bit_cast<std::uint64_t>(e.score));
    }
    h = fnv_fold(h, static_cast<std::uint64_t>(c.localization.method));
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(c.localization.confidence));
    for (const auto& ref : c.localization.culprits) {
      h = fnv_fold(h, (static_cast<std::uint64_t>(ref.kind) << 32) | ref.index);
    }
    h = fnv_fold(h, c.collective_evidence.size());
  }
  return h;
}

void Layers::set_counters(const core::DetectorCounters& from,
                          const core::DetectorCounters& to) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  detector.short_windows_closed =
      d(from.short_windows_closed, to.short_windows_closed);
  detector.long_windows_closed =
      d(from.long_windows_closed, to.long_windows_closed);
  const double scored =
      d(from.lof_fast_path + from.lof_fallback, to.lof_fast_path + to.lof_fallback);
  detector.lof_scored = scored;
  detector.lof_gate_skips = d(from.lof_gate_skips, to.lof_gate_skips);
  detector.lof_fallback_frac =
      scored > 0 ? d(from.lof_fallback, to.lof_fallback) / scored : 0.0;
  detector.events = d(from.events_emitted, to.events_emitted);
  detector.rejected =
      d(from.duplicates_rejected + from.stale_rejected,
        to.duplicates_rejected + to.stale_rejected);
  detector.windows_insufficient =
      d(from.windows_insufficient, to.windows_insufficient);
}

void Layers::emit(Report& r) const {
  r.metric("probe.engine.calls", engine.calls, "count");
  r.metric("probe.engine.ns_per_call", engine.ns_per_call, "ns");
  r.metric("probe.engine.tick_share", engine.tick_share, "ratio");
  r.metric("probe.engine.undelivered_frac", engine.undelivered_frac, "ratio");
  r.metric("probe.telemetry.dropped", telemetry.dropped, "count");
  r.metric("probe.telemetry.duplicated", telemetry.duplicated, "count");
  r.metric("probe.telemetry.delayed", telemetry.delayed, "count");
  r.metric("core.router.lookups", router.lookups, "count");
  r.metric("core.router.ns_per_lookup", router.ns_per_lookup, "ns");
  r.metric("core.router.probe_steps", router.probe_steps, "count");
  r.metric("core.router.recycled_ids", router.recycled_ids, "count");
  r.metric("core.detector.items", detector.items, "count");
  r.metric("core.detector.ns_per_item", detector.ns_per_item, "ns");
  r.metric("core.detector.close_extra_ms", detector.close_extra_ms, "ms");
  r.metric("core.detector.cpu_per_wall", detector.cpu_per_wall, "ratio");
  r.metric("core.detector.shard_skew", detector.shard_skew, "ratio");
  r.metric("core.detector.short_windows_closed", detector.short_windows_closed,
           "count");
  r.metric("core.detector.long_windows_closed", detector.long_windows_closed,
           "count");
  r.metric("core.detector.lof_scored", detector.lof_scored, "count");
  r.metric("core.detector.lof_gate_skips", detector.lof_gate_skips, "count");
  r.metric("core.detector.lof_fallback_frac", detector.lof_fallback_frac,
           "ratio");
  r.metric("core.detector.events", detector.events, "count");
  r.metric("core.detector.rejected", detector.rejected, "count");
  r.metric("core.detector.windows_insufficient", detector.windows_insufficient,
           "count");
  r.metric("core.window_log.records", window_log.records, "count");
  r.metric("core.window_log.ms_per_close_tick", window_log.ms_per_close_tick,
           "ms");
  r.metric("core.window_log.drops", window_log.drops, "count");
  r.metric("core.localize.calls", localize.calls, "count");
  r.metric("core.localize.ms_p50", localize.ms_p50, "ms");
  r.metric("core.localize.correct_frac", localize.correct_frac, "ratio");
  r.metric("core.hunter.ticks", hunter.ticks, "count");
  r.metric("core.hunter.self_ms_per_tick", hunter.self_ms_per_tick, "ms");
  r.metric("core.hunter.blackout_tick_ms", hunter.blackout_tick_ms, "ms");
  r.metric("core.hunter.cases", hunter.cases, "count");
  r.metric("core.hunter.cases_false", hunter.cases_false, "count");
  r.metric("latency.detect_s_p50", latency.detect_s_p50, "sim_s");
  r.metric("latency.verdict_s_p50", latency.verdict_s_p50, "sim_s");
  r.metric("core.inference.calls", inference.calls, "count");
  r.metric("core.inference.ms_p50", inference.ms_p50, "ms");
  r.metric("cluster.churn.calls", churn.calls, "count");
  r.metric("cluster.churn.ms_p50", churn.ms_p50, "ms");
  r.metric("cluster.churn.replans", churn.replans, "count");
  r.metric("collective.steps", collective.steps, "count");
  r.metric("collective.verdicts", collective.verdicts, "count");
  r.metric("obs.bundles", obs.bundles, "count");
  r.metric("obs.scrape_ms", obs.scrape_ms, "ms");
  r.metric("mem.rss_setup_mb", mem.rss_setup_mb, "MB");
  r.metric("mem.rss_growth_mb", mem.rss_growth_mb, "MB");
  r.metric("trace.overhead_frac", trace.overhead_frac, "ratio");
}

void Layers::set_analyzer(const std::vector<TimedAnalyzer::Round>& rounds) {
  double router_s = 0, det_s = 0, det_cpu_s = 0, window_s = 0,
         plain_det_s = 0, items = 0, plain_items = 0, records = 0,
         closing = 0;
  std::vector<double> plain_ms, close_ms;
  for (const auto& r : rounds) {
    router_s += r.router_s;
    det_s += r.detector_s;
    det_cpu_s += r.detector_cpu_s;
    window_s += r.window_s;
    items += static_cast<double>(r.items);
    records += static_cast<double>(r.records);
    if (r.kind == TickKind::kPlain) {
      plain_det_s += r.detector_s;
      plain_items += static_cast<double>(r.items);
      plain_ms.push_back(r.detector_s * 1e3);
    } else {
      closing += 1;
      close_ms.push_back(r.detector_s * 1e3);
    }
  }
  router.lookups = items;
  router.ns_per_lookup = items > 0 ? router_s * 1e9 / items : 0.0;
  detector.items = items;
  detector.ns_per_item = plain_items > 0 ? plain_det_s * 1e9 / plain_items : 0.0;
  detector.close_extra_ms = plain_ms.empty() || close_ms.empty()
                                ? 0.0
                                : median(close_ms) - median(plain_ms);
  detector.cpu_per_wall = det_s > 0 ? det_cpu_s / det_s : 0.0;
  window_log.records = records;
  window_log.ms_per_close_tick = closing > 0 ? window_s * 1e3 / closing : 0.0;
}

void Layers::set_overhead(const Args& args, double traced_tick_ms) {
  trace.overhead_frac =
      args.base_tick_ms > 0.0 ? traced_tick_ms / args.base_tick_ms - 1.0 : 0.0;
}

double scrape_ms(const obs::MetricsRegistry& registry, int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    const auto snap = registry.scrape();
    ms.push_back((now_s() - t0) * 1e3);
    if (snap.counters.empty() && snap.gauges.empty()) break;
  }
  return median(ms);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace pb
