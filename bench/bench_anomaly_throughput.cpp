// The streaming anomaly detector vs the batch reference at fleet scale.
//
// Part 1 replays pre-generated probe streams through the production
// detector and through the batch reference (tests/support/
// reference_detector.h), at 10k pairs (the paper's single-task fleet) and
// at 100k pairs (ten concurrent tasks sharing one analyzer). The reference
// pays a pair hash per probe, copies and sorts retained sample vectors at
// every window close, and refits the LOF look-back from scratch each time.
// The detector uses pre-resolved pair handles (dense slots from add_pair),
// one-cache-line PairHot rows, strip-arena window samples, and resident
// look-back blocks scored in place by one StreamingLof workspace. The bar: >= 10x probe ingest throughput at
// 10k pairs, with verdicts that match event-for-event (pair, kind,
// timestamp). The 100k row is reported (and verdict-checked) but not
// throughput-gated: at that scale the working set outgrows cache on
// purpose, and the number documents how the hot path degrades, not a
// promise.
//
// Part 2 snapshots the detector mid-stream, restores into a fresh
// instance, and replays the remaining rounds through both: events must be
// identical to the bit (scores compared as doubles, not within a
// tolerance), with the live detector's pair handles driving both.
//
// Part 3 re-runs fault-injection campaigns across 1/4/16 runner threads
// and requires bit-identical CampaignScores.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/anomaly.h"
#include "core/metrics.h"
#include "runner/campaign_runner.h"
#include "support/reference_detector.h"

using namespace skh;
using namespace skh::core;

namespace {

constexpr double kIntervalS = 5.0;  // the campaign probe interval

EndpointPair pair_of(std::size_t p, std::size_t pairs) {
  const auto i = static_cast<std::uint32_t>(p);
  const auto j = static_cast<std::uint32_t>(p + pairs);
  return {{ContainerId{i}, RnicId{i}}, {ContainerId{j}, RnicId{j}}};
}

/// rtt in microseconds, negative = probe lost. Round-major (every pair is
/// probed each round), with a latency-spike cohort and a loss cohort (each
/// active for a quarter of the run) so both window rules actually fire.
std::vector<float> make_stream(std::size_t pairs, std::size_t rounds) {
  std::vector<float> s(rounds * pairs);
  RngStream rng{99};
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < pairs; ++p) {
      double rtt = 16.0 * std::exp(rng.normal(0.0, 0.05));
      if (p % 977 == 3 && r >= rounds / 2 && r < 3 * rounds / 4) rtt *= 2.5;
      const bool lost = p % 1013 == 7 && r >= rounds / 4 && r < rounds / 2 &&
                        rng.uniform() < 0.3;
      s[r * pairs + p] = lost ? -1.0F : static_cast<float>(rtt);
    }
  }
  return s;
}

/// Unsequenced observation of one stream cell (negative rtt = lost).
Observation observation(SimTime t, float v) {
  return {0, t, v >= 0.0F, v >= 0.0F ? static_cast<double>(v) : 0.0};
}

double run_streaming(const std::vector<float>& stream, std::size_t pairs,
                     std::size_t rounds, std::vector<AnomalyEvent>& events,
                     DetectorCounters& counters) {
  DetectorConfig cfg;
  // Plan-time sizing, exactly as the hunter does it after list distribution:
  // the hot/cold/strip arenas are laid out once, and the timed region
  // below performs zero arena growth.
  cfg.expected_pairs = pairs;
  AnomalyDetector det(cfg);
  std::vector<AnomalyDetector::PairHandle> handles(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    handles[p] = det.add_pair(pair_of(p, pairs));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime t = SimTime::seconds(static_cast<double>(r) * kIntervalS);
    const float* row = stream.data() + r * pairs;
    for (std::size_t p = 0; p < pairs; ++p) {
      (void)det.ingest(handles[p], observation(t, row[p]), events);
    }
  }
  const auto tail =
      det.flush(SimTime::seconds(static_cast<double>(rounds) * kIntervalS));
  const auto t1 = std::chrono::steady_clock::now();
  events.insert(events.end(), tail.begin(), tail.end());
  counters = det.counters();
  return std::chrono::duration<double>(t1 - t0).count();
}

double run_reference(const std::vector<float>& stream, std::size_t pairs,
                     std::size_t rounds, std::vector<AnomalyEvent>& events,
                     DetectorCounters& counters) {
  DetectorConfig cfg;
  cfg.expected_pairs = pairs;
  testutil::ReferenceDetector det(cfg);
  std::vector<EndpointPair> ps(pairs);
  for (std::size_t p = 0; p < pairs; ++p) ps[p] = pair_of(p, pairs);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime t = SimTime::seconds(static_cast<double>(r) * kIntervalS);
    const float* row = stream.data() + r * pairs;
    for (std::size_t p = 0; p < pairs; ++p) {
      (void)det.ingest(ps[p], observation(t, row[p]), events);
    }
  }
  const auto tail =
      det.flush(SimTime::seconds(static_cast<double>(rounds) * kIntervalS));
  const auto t1 = std::chrono::steady_clock::now();
  events.insert(events.end(), tail.begin(), tail.end());
  counters = det.counters();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool same_verdicts(const std::vector<AnomalyEvent>& a,
                   const std::vector<AnomalyEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pair == b[i].pair) || a[i].kind != b[i].kind ||
        a[i].detected_at.raw_nanos() != b[i].detected_at.raw_nanos()) {
      return false;
    }
    const double tol = 1e-6 * std::max(1.0, std::abs(b[i].score));
    if (std::abs(a[i].score - b[i].score) > tol) return false;
  }
  return true;
}

/// Exact event identity: scores must match as bit patterns, not within a
/// tolerance. This is the snapshot/restore contract.
bool identical_events(const std::vector<AnomalyEvent>& a,
                      const std::vector<AnomalyEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pair == b[i].pair) || a[i].kind != b[i].kind ||
        a[i].detected_at.raw_nanos() != b[i].detected_at.raw_nanos() ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

struct ScaleResult {
  double t_reference = 0.0;
  double t_streaming = 0.0;
  bool ok = false;
};

/// One Part-1 scale point: interleaved min-of-N for both detectors plus the
/// verdict- and accounting-identity checks. Interleaving the reps (r, s,
/// r, s, ...) keeps a time-varying background load from biasing one side.
ScaleResult run_scale(std::size_t pairs, std::size_t rounds, int reps,
                      TablePrinter& table) {
  const auto stream = make_stream(pairs, rounds);
  const auto probes = static_cast<double>(stream.size());
  ScaleResult res;
  std::vector<AnomalyEvent> reference_events, streaming_events;
  DetectorCounters rc, sc;
  res.t_reference = run_reference(stream, pairs, rounds, reference_events, rc);
  res.t_streaming = run_streaming(stream, pairs, rounds, streaming_events, sc);
  for (int rep = 1; rep < reps; ++rep) {
    std::vector<AnomalyEvent> ev;
    DetectorCounters c;
    res.t_reference =
        std::min(res.t_reference, run_reference(stream, pairs, rounds, ev, c));
    ev.clear();
    res.t_streaming =
        std::min(res.t_streaming, run_streaming(stream, pairs, rounds, ev, c));
  }
  const double speedup = res.t_reference / res.t_streaming;
  const std::string scale = std::to_string(pairs / 1000) + "k pairs";
  table.add_row({scale, "batch reference",
                 TablePrinter::num(res.t_reference, 3),
                 TablePrinter::num(probes / res.t_reference / 1e6, 2) + "M",
                 std::to_string(reference_events.size()), ""});
  table.add_row({scale, "streaming", TablePrinter::num(res.t_streaming, 3),
                 TablePrinter::num(probes / res.t_streaming / 1e6, 2) + "M",
                 std::to_string(streaming_events.size()),
                 TablePrinter::num(speedup, 2) + "x"});
  if (!same_verdicts(streaming_events, reference_events)) {
    std::printf("FATAL: streaming and reference verdicts differ at %zu "
                "pairs\n", pairs);
    return res;
  }
  if (rc.short_windows_closed != sc.short_windows_closed ||
      rc.samples_delivered != sc.samples_delivered) {
    std::printf("FATAL: window accounting differs from the reference at %zu "
                "pairs\n", pairs);
    return res;
  }
  std::printf("%zu pairs x %zu rounds: verdicts identical (%zu events), "
              "%llu lof scores\n",
              pairs, rounds, streaming_events.size(),
              static_cast<unsigned long long>(sc.lof_fast_path));
  res.ok = true;
  return res;
}

}  // namespace

int main() {
  print_banner(
      "Anomaly-detector ingest throughput: streaming vs batch reference");
  std::printf("interleaved min-of-N wall time per detector; verdicts must "
              "match event-for-event\n\n");

  TablePrinter table({"scale", "detector", "wall s", "probes/s", "events",
                      "speedup"});
  // 9 interleaved reps on the gated row: the host this runs on shares its
  // cores, and min-of-N only converges on the true (noise-free) wall time
  // for both detectors once N spans a few scheduler interference periods.
  const ScaleResult r10k = run_scale(10000, 120, 9, table);
  if (!r10k.ok) return 1;
  const ScaleResult r100k = run_scale(100000, 60, 3, table);
  if (!r100k.ok) return 1;
  std::printf("\n");
  table.print();

  const double speedup = r10k.t_reference / r10k.t_streaming;
  std::printf("\n10k-pair speedup: %.2fx (gate: >= 10x)\n", speedup);
  if (speedup < 10.0) {
    std::printf("FATAL: speedup %.2fx below the 10x requirement\n", speedup);
    return 1;
  }

  // Part 2: mid-stream snapshot/restore must continue bit-identically,
  // with pair handles surviving the round-trip.
  print_banner("Snapshot round-trip identity (streaming, 10k pairs)");
  {
    constexpr std::size_t kPairs = 10000, kRounds = 120, kCut = kRounds / 2;
    const auto stream = make_stream(kPairs, kRounds);
    DetectorConfig cfg;
    cfg.expected_pairs = kPairs;
    AnomalyDetector det(cfg);
    std::vector<AnomalyDetector::PairHandle> handles(kPairs);
    for (std::size_t p = 0; p < kPairs; ++p) {
      handles[p] = det.add_pair(pair_of(p, kPairs));
    }
    std::vector<AnomalyEvent> pre;
    auto feed = [&](AnomalyDetector& d,
                    const std::vector<AnomalyDetector::PairHandle>& hs,
                    std::size_t from, std::size_t to,
                    std::vector<AnomalyEvent>& ev) {
      for (std::size_t r = from; r < to; ++r) {
        const SimTime t =
            SimTime::seconds(static_cast<double>(r) * kIntervalS);
        const float* row = stream.data() + r * kPairs;
        for (std::size_t p = 0; p < kPairs; ++p) {
          (void)d.ingest(hs[p], observation(t, row[p]), ev);
        }
      }
    };
    feed(det, handles, 0, kCut, pre);
    const auto snap = det.snapshot();

    // The restored detector is driven by the live detector's handles: a
    // slot names the same pair on both sides of the round-trip.
    AnomalyDetector restored(cfg);
    restored.restore(snap);
    std::vector<AnomalyEvent> tail_live, tail_restored;
    feed(det, handles, kCut, kRounds, tail_live);
    feed(restored, handles, kCut, kRounds, tail_restored);
    const auto end =
        SimTime::seconds(static_cast<double>(kRounds) * kIntervalS);
    const auto fl = det.flush(end);
    const auto fr = restored.flush(end);
    tail_live.insert(tail_live.end(), fl.begin(), fl.end());
    tail_restored.insert(tail_restored.end(), fr.begin(), fr.end());
    if (!identical_events(tail_live, tail_restored)) {
      std::printf("FATAL: restored detector diverged from the live one\n");
      return 1;
    }
    std::printf("restored at round %zu: %zu post-cut events bit-identical, "
                "handles stable\n", kCut, tail_live.size());
  }

  // Part 3: end-to-end campaign verdicts must be bit-identical across
  // runner thread counts.
  print_banner("Campaign verdict identity across runner threads");
  runner::CampaignConfig cc;
  cc.topology.num_hosts = 16;
  cc.topology.rails_per_host = 4;
  cc.topology.hosts_per_segment = 8;
  cc.hunter.probe_interval = SimTime::seconds(5);
  cc.hunter.inference.candidate_dp = {2};
  cc.tasks = {{4, 4, 2, 2}, {4, 4, 4, 1}};
  cc.visible_faults = 4;
  cc.invisible_faults = 1;
  cc.phantom_agents = 0;
  cc.fault_gap = SimTime::minutes(8);
  cc.fault_duration = SimTime::minutes(4);
  cc.drain = SimTime::minutes(10);

  const std::vector<std::uint64_t> seeds{0x5eedULL, 0xbeefULL, 0xf00dULL};
  const auto one = runner::run_many(cc, seeds, 1);
  const auto four = runner::run_many(cc, seeds, 4);
  const auto sixteen = runner::run_many(cc, seeds, 16);
  const auto same = [](const runner::RunResult& a, const runner::RunResult& b) {
    return a.score == b.score && a.failure_cases == b.failure_cases &&
           a.probes_sent == b.probes_sent;
  };
  TablePrinter ct({"seed", "cases", "precision", "recall",
                   "identical at 4/16 threads"});
  bool all_same = true;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto& s = one.runs[i];
    const bool ok = same(s, four.runs[i]) && same(s, sixteen.runs[i]);
    all_same = all_same && ok;
    ct.add_row({std::to_string(seeds[i]), std::to_string(s.failure_cases),
                TablePrinter::num(100 * s.score.precision(), 1) + "%",
                TablePrinter::num(100 * s.score.recall(), 1) + "%",
                ok ? "yes" : "NO (BUG)"});
  }
  ct.print();
  if (!all_same) {
    std::printf("FATAL: campaign verdicts differ across runner threads\n");
    return 1;
  }
  std::printf("\ncampaigns bit-identical across 1/4/16 runner threads\n");
  return 0;
}
