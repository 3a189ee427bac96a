#include "core/anomaly.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "support/alloc_counter.h"
#include "support/reference_detector.h"

namespace skh::core {
namespace {

using testutil::AllocationCounter;
using testutil::ReferenceDetector;

EndpointPair pair() {
  return {{ContainerId{0}, RnicId{0}}, {ContainerId{1}, RnicId{8}}};
}

EndpointPair pair_n(std::uint32_t i) {
  return {{ContainerId{2 * i}, RnicId{16 * i}},
          {ContainerId{2 * i + 1}, RnicId{16 * i + 8}}};
}

/// Unsequenced observation at `t_seconds`.
Observation obs(double t_seconds, bool delivered, double rtt = 16.0) {
  return {0, SimTime::seconds(t_seconds), delivered, rtt};
}

/// The detector keeps no pair index: in production its owner, the sharded
/// facade, keeps the slot `add_pair` hands out for each pair. Tests that
/// feed by pair keep that index here, adding a pair on first sight.
class Detector : public AnomalyDetector {
 public:
  using AnomalyDetector::AnomalyDetector;

  PairHandle handle_of(const EndpointPair& p) {
    const auto [it, fresh] = slots_.try_emplace(p);
    if (fresh) it->second = add_pair(p);
    return it->second;
  }

 private:
  std::map<EndpointPair, PairHandle> slots_;
};

/// Feed one observation of pair `p`; fired events are appended to `out`.
/// The production detector resolves a handle first, the batch reference
/// takes the pair itself.
std::size_t feed(Detector& det, const EndpointPair& p, const Observation& o,
                 std::vector<AnomalyEvent>& out) {
  return det.ingest(det.handle_of(p), o, out);
}
std::size_t feed(ReferenceDetector& ref, const EndpointPair& p,
                 const Observation& o, std::vector<AnomalyEvent>& out) {
  return ref.ingest(p, o, out);
}

/// Feed one observation of pair(); returns the events it fired.
template <typename Det>
std::vector<AnomalyEvent> feed(Det& det, const Observation& o) {
  std::vector<AnomalyEvent> out;
  (void)feed(det, pair(), o, out);
  return out;
}

/// Feed `seconds` of healthy 1 Hz probes starting at t0; returns events.
template <typename Det>
std::vector<AnomalyEvent> feed_healthy(Det& det, double t0, double seconds,
                                       RngStream& rng) {
  std::vector<AnomalyEvent> all;
  for (double t = t0; t < t0 + seconds; t += 1.0) {
    const double rtt = 16.0 * std::exp(rng.normal(0.0, 0.05));
    (void)feed(det, pair(), obs(t, true, rtt), all);
  }
  return all;
}

TEST(Anomaly, HealthyTrafficRaisesNothing) {
  Detector det;
  RngStream rng{1};
  const auto events = feed_healthy(det, 0, 1200, rng);
  EXPECT_TRUE(events.empty());
}

TEST(Anomaly, UnreachableStreakFiresOnce) {
  Detector det;
  std::vector<AnomalyEvent> all;
  for (int i = 0; i < 10; ++i) {
    (void)feed(det, pair(), obs(i, false), all);
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].kind, AnomalyKind::kUnreachable);
  EXPECT_DOUBLE_EQ(all[0].detected_at.to_seconds(), 2.0);  // third failure
}

TEST(Anomaly, RecoveryRearmsUnreachable) {
  Detector det;
  for (int i = 0; i < 5; ++i) (void)feed(det, obs(i, false));
  (void)feed(det, obs(5, true));
  std::vector<AnomalyEvent> all;
  for (int i = 6; i < 10; ++i) {
    (void)feed(det, pair(), obs(i, false), all);
  }
  EXPECT_EQ(all.size(), 1u);  // fires again after recovery
}

TEST(Anomaly, WindowLossRateFires) {
  Detector det;
  RngStream rng{2};
  std::vector<AnomalyEvent> all;
  // 30s window with 20% loss; losses spread out so no streak of 3 forms.
  for (int i = 0; i < 35; ++i) {
    const bool lost = (i % 5 == 0);
    (void)feed(det, pair(), obs(i, !lost, 16.0), all);
  }
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].kind, AnomalyKind::kPacketLoss);
  EXPECT_NEAR(all[0].score, 0.2, 0.06);
}

TEST(Anomaly, ShortTermLatencyShiftFires) {
  Detector det;
  RngStream rng{3};
  // Build a healthy look-back (>= k+1 windows), then the Fig. 18 jump.
  auto events = feed_healthy(det, 0, 400, rng);
  ASSERT_TRUE(events.empty());
  std::vector<AnomalyEvent> all;
  for (double t = 400; t < 480; t += 1.0) {
    const double rtt = 120.0 * std::exp(rng.normal(0.0, 0.05));
    (void)feed(det, pair(), obs(t, true, rtt), all);
  }
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].kind, AnomalyKind::kLatencyShortTerm);
  EXPECT_GT(all[0].score, det.config().lof.outlier_threshold);
}

TEST(Anomaly, TransientSpikeInOneWindowOnly) {
  // A single 30s congestion episode fires at most briefly and then the
  // detector re-converges — no alarm storm.
  Detector det;
  RngStream rng{4};
  (void)feed_healthy(det, 0, 400, rng);
  std::size_t events_during = 0;
  for (double t = 400; t < 430; t += 1.0) {
    events_during += feed(det, obs(t, true, 40.0)).size();
  }
  // Back to healthy for 10 minutes: no further short-term alarms.
  const auto after = feed_healthy(det, 430, 600, rng);
  std::size_t later_short = 0;
  for (const auto& e : after) {
    if (e.kind == AnomalyKind::kLatencyShortTerm) ++later_short;
  }
  EXPECT_LE(later_short, 1u);
}

TEST(Anomaly, LongTermGradualDriftFires) {
  // Latency creeps up 1% per minute — each 30s step is invisible to LOF
  // (windows absorb into the look-back), but the 30-minute Z-test catches
  // the accumulated shift (Figure 14).
  DetectorConfig cfg;
  cfg.lof.outlier_threshold = 1e9;  // isolate the long-term detector
  Detector det(cfg);
  RngStream rng{5};
  std::vector<AnomalyEvent> all;
  for (double t = 0; t < 5400; t += 1.0) {
    const double drift = 1.0 + 0.01 * (t / 60.0);
    const double rtt = 16.0 * drift * std::exp(rng.normal(0.0, 0.05));
    (void)feed(det, pair(), obs(t, true, rtt), all);
  }
  bool long_term = false;
  for (const auto& e : all) {
    if (e.kind == AnomalyKind::kLatencyLongTerm) long_term = true;
  }
  EXPECT_TRUE(long_term);
}

TEST(Anomaly, StableLongTermPassesZTest) {
  DetectorConfig cfg;
  cfg.lof.outlier_threshold = 1e9;
  Detector det(cfg);
  RngStream rng{6};
  std::vector<AnomalyEvent> all;
  for (double t = 0; t < 7200; t += 1.0) {
    const double rtt = 16.0 * std::exp(rng.normal(0.0, 0.08));
    (void)feed(det, pair(), obs(t, true, rtt), all);
  }
  for (const auto& e : all) {
    EXPECT_NE(e.kind, AnomalyKind::kLatencyLongTerm);
  }
}

TEST(Anomaly, FlushClosesOpenWindows) {
  Detector det;
  for (int i = 0; i < 20; ++i) {
    // 50% loss in a window that never closes on its own.
    (void)feed(det, obs(i, i % 2 == 0, 16.0));
  }
  const auto events = det.flush(SimTime::seconds(30));
  bool loss = false;
  for (const auto& e : events) {
    if (e.kind == AnomalyKind::kPacketLoss) loss = true;
  }
  EXPECT_TRUE(loss);
}

TEST(Anomaly, SparseSamplesSkipAnalysis) {
  // Fewer than min_samples_per_window: the window is not judged.
  Detector det;
  std::vector<AnomalyEvent> all;
  for (int w = 0; w < 10; ++w) {
    // 2 probes per 30s window, one lost (50% loss but too few samples).
    auto e1 = feed(det, obs(w * 30.0, true, 16.0));
    auto e2 = feed(det, obs(w * 30.0 + 10, false));
    all.insert(all.end(), e1.begin(), e1.end());
    all.insert(all.end(), e2.begin(), e2.end());
  }
  for (const auto& e : all) {
    EXPECT_NE(e.kind, AnomalyKind::kPacketLoss);
  }
}

TEST(Anomaly, PairsAreIndependent) {
  Detector det;
  // Pair A fails; pair B stays healthy and must not alarm.
  const EndpointPair healthy{{ContainerId{2}, RnicId{16}},
                             {ContainerId{3}, RnicId{24}}};
  std::vector<AnomalyEvent> b_events;
  for (int i = 0; i < 10; ++i) {
    (void)feed(det, obs(i, false));
    (void)feed(det, healthy, obs(i, true), b_events);
  }
  EXPECT_TRUE(b_events.empty());
}

TEST(Anomaly, RolloverStampsNominalBoundary) {
  // Regression (S1): the close fired by a late probe used to be stamped at
  // the probe's sent_at, dating a [0, 30) window's verdict at t=100.
  Detector det;
  for (int i = 0; i < 20; ++i) {
    // 20% loss spread out so no unreachable streak forms.
    (void)feed(det, obs(i, i % 5 != 0, 16.0));
  }
  const auto events = feed(det, obs(100.0, true, 16.0));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, AnomalyKind::kPacketLoss);
  EXPECT_DOUBLE_EQ(events[0].detected_at.to_seconds(), 30.0);
}

TEST(Anomaly, GapSpanningWindowsRealignsGrid) {
  // Regression (S1): after a gap spanning several windows the next window
  // must reopen on the nominal grid ([90, 120) here), not at the late
  // sample, so its close is stamped 120 rather than 130.
  Detector det;
  std::vector<AnomalyEvent> all;
  for (int i = 0; i < 20; ++i) {
    (void)feed(det, pair(), obs(i, i % 5 != 0, 16.0), all);
  }
  for (int i = 0; i < 20; ++i) {
    (void)feed(det, pair(), obs(100.0 + i, i % 5 != 0, 16.0), all);
  }
  (void)feed(det, pair(), obs(121.0, true, 16.0), all);
  std::vector<double> loss_times;
  for (const auto& e : all) {
    if (e.kind == AnomalyKind::kPacketLoss) {
      loss_times.push_back(e.detected_at.to_seconds());
    }
  }
  ASSERT_EQ(loss_times.size(), 2u);
  EXPECT_DOUBLE_EQ(loss_times[0], 30.0);
  EXPECT_DOUBLE_EQ(loss_times[1], 120.0);
}

TEST(Anomaly, FlushSkipsPartialLongWindow) {
  // Regression (S2): flush used to evaluate still-open windows regardless
  // of elapsed time, so a few seconds of post-rollover samples could fire
  // a 30-minute Z-test alarm on a 10-second window. Checked on the
  // detector and on the batch reference alike.
  DetectorConfig cfg;
  cfg.lof.outlier_threshold = 1e9;  // isolate the long-term detector
  const auto check = [](auto&& det) {
    RngStream rng{7};
    (void)feed_healthy(det, 0, 1800, rng);
    std::vector<AnomalyEvent> all;
    // The t=1800 rollover fits the baseline; then 8 s of 2.5x latency —
    // loud enough that the old flush would reject the Z-test on it.
    for (double t = 1800; t < 1808; t += 1.0) {
      const double rtt = 40.0 * std::exp(rng.normal(0.0, 0.05));
      (void)feed(det, pair(), obs(t, true, rtt), all);
    }
    const auto flushed = det.flush(SimTime::seconds(1810));
    all.insert(all.end(), flushed.begin(), flushed.end());
    for (const auto& e : all) {
      EXPECT_NE(e.kind, AnomalyKind::kLatencyLongTerm);
    }
  };
  check(Detector(cfg));
  check(ReferenceDetector(cfg));
}

TEST(Anomaly, StreamingMatchesBatchVerdicts) {
  // The streaming detector and the batch reference must emit identical
  // verdicts — same events, kinds, pairs, and timestamps — on one shared
  // multi-pair stream covering all three window verdict kinds.
  struct Sample {
    std::uint32_t pair;
    double t;
    bool delivered;
    double rtt;
  };
  RngStream rng{17};
  std::vector<Sample> stream;
  for (double t = 0; t < 7200; t += 2.0) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      Sample s{p, t, true, 16.0 * std::exp(rng.normal(0.0, 0.05))};
      if (p == 1 && t >= 1200 && t < 1500) s.rtt *= 2.5;  // hard spike
      if (p == 2 && t >= 3000 && t < 3300 && rng.uniform() < 0.3) {
        s.delivered = false;  // loss burst
      }
      if (p == 3) s.rtt *= 1.0 + 0.01 * (t / 60.0);  // gradual drift
      stream.push_back(s);
    }
  }

  const auto run = [&stream](auto&& det) {
    std::vector<AnomalyEvent> events;
    for (const auto& s : stream) {
      (void)feed(det, pair_n(s.pair), obs(s.t, s.delivered, s.rtt), events);
    }
    const auto tail = det.flush(SimTime::seconds(7200));
    events.insert(events.end(), tail.begin(), tail.end());
    return std::pair{events, det.counters()};
  };

  const auto [streaming_events, sc] = run(Detector{});
  const auto [batch_events, bc] = run(ReferenceDetector{});

  ASSERT_FALSE(streaming_events.empty());
  ASSERT_EQ(streaming_events.size(), batch_events.size());
  bool saw_loss = false, saw_short = false, saw_long = false;
  for (std::size_t i = 0; i < streaming_events.size(); ++i) {
    const auto& s = streaming_events[i];
    const auto& b = batch_events[i];
    EXPECT_TRUE(s.pair == b.pair);
    EXPECT_EQ(s.kind, b.kind);
    EXPECT_EQ(s.detected_at.raw_nanos(), b.detected_at.raw_nanos());
    EXPECT_NEAR(s.score, b.score, 1e-6 * std::max(1.0, std::abs(b.score)));
    saw_loss |= s.kind == AnomalyKind::kPacketLoss;
    saw_short |= s.kind == AnomalyKind::kLatencyShortTerm;
    saw_long |= s.kind == AnomalyKind::kLatencyLongTerm;
  }
  // The stream must actually exercise every window verdict kind for the
  // equivalence to mean anything.
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_short);
  EXPECT_TRUE(saw_long);

  // Window accounting is identical; only the LOF path split is
  // streaming-specific.
  EXPECT_EQ(sc.probes_ingested, stream.size());
  EXPECT_EQ(sc.probes_ingested, bc.probes_ingested);
  EXPECT_EQ(sc.samples_delivered, bc.samples_delivered);
  EXPECT_EQ(sc.short_windows_closed, bc.short_windows_closed);
  EXPECT_EQ(sc.long_windows_closed, bc.long_windows_closed);
  EXPECT_EQ(sc.events_emitted, streaming_events.size());
  EXPECT_EQ(bc.events_emitted, batch_events.size());
  EXPECT_GT(sc.lof_fast_path + sc.lof_fallback, 0u);
}

TEST(AnomalyDefenses, DuplicatesAndStaleReplaysDoNotChangeVerdicts) {
  // A gray measurement plane duplicating every delivery and replaying
  // stale rounds must leave the verdict stream bit-identical to the clean
  // run: rejected results may not touch window state at all.
  const auto run = [](bool inject_junk) {
    AnomalyDetector det;
    const auto h = det.add_pair(pair());
    std::vector<AnomalyEvent> events;
    RngStream rng{5};
    std::uint64_t seq = 0;
    for (double t = 0; t < 600; t += 1.0) {
      const bool lost = t >= 300 && t < 360 && rng.uniform() < 0.5;
      const double rtt = lost ? 0.0 : 16.0 * std::exp(rng.normal(0.0, 0.05));
      ++seq;
      const Observation o{seq, SimTime::seconds(t), !lost, rtt};
      (void)det.ingest(h, o, events);
      if (inject_junk) {
        // An exact duplicate of what was just delivered...
        (void)det.ingest(h, o, events);
        // ...and a straggler from ten rounds ago with an absurd RTT.
        if (seq > 10) {
          (void)det.ingest(h, {seq - 10, SimTime::seconds(t - 10), true, 123.0},
                           events);
        }
      }
    }
    const auto tail = det.flush(SimTime::seconds(600));
    events.insert(events.end(), tail.begin(), tail.end());
    return std::pair{events, det.counters()};
  };
  const auto [clean, cc] = run(false);
  const auto [noisy, nc] = run(true);
  ASSERT_FALSE(clean.empty());  // the loss burst must produce real events
  ASSERT_EQ(clean.size(), noisy.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(clean[i].pair == noisy[i].pair);
    EXPECT_EQ(clean[i].kind, noisy[i].kind);
    EXPECT_EQ(clean[i].detected_at.raw_nanos(),
              noisy[i].detected_at.raw_nanos());
    EXPECT_EQ(clean[i].score, noisy[i].score);
  }
  EXPECT_EQ(cc.duplicates_rejected, 0u);
  EXPECT_EQ(cc.stale_rejected, 0u);
  EXPECT_EQ(nc.duplicates_rejected, 600u);
  EXPECT_EQ(nc.stale_rejected, 590u);
  EXPECT_EQ(nc.samples_delivered, cc.samples_delivered);
  EXPECT_EQ(nc.short_windows_closed, cc.short_windows_closed);
}

TEST(AnomalyDefenses, QuorumSkipsStarvedWindows) {
  // 3 samples per 30 s window, 2 of them lost: 67% loss — screams
  // packet-loss unless the quorum recognizes the window as starved by the
  // measurement plane and refuses to analyze it.
  const auto config = [](std::size_t quorum) {
    DetectorConfig cfg;
    cfg.window_quorum = quorum;
    cfg.min_samples_per_window = 2;
    return cfg;
  };
  const auto run = [](auto&& det) {
    std::vector<AnomalyEvent> events;
    std::uint64_t seq = 0;
    for (int w = 0; w < 20; ++w) {
      const double base = w * 30.0;
      (void)feed(det, pair(), {++seq, SimTime::seconds(base), true, 16.0},
                 events);
      (void)feed(det, pair(), {++seq, SimTime::seconds(base + 1), false, 0.0},
                 events);
      (void)feed(det, pair(), {++seq, SimTime::seconds(base + 2), false, 0.0},
                 events);
    }
    const auto tail = det.flush(SimTime::seconds(620));
    events.insert(events.end(), tail.begin(), tail.end());
    return std::pair{events, det.counters()};
  };
  for (const bool reference : {false, true}) {
    const auto [gated, gc] = reference ? run(ReferenceDetector(config(5)))
                                       : run(Detector(config(5)));
    EXPECT_TRUE(gated.empty()) << "reference=" << reference;
    EXPECT_GE(gc.windows_insufficient, 19u);
    const auto [open, oc] = reference ? run(ReferenceDetector(config(0)))
                                      : run(Detector(config(0)));
    EXPECT_FALSE(open.empty()) << "reference=" << reference;
    EXPECT_EQ(oc.windows_insufficient, 0u);
  }
}

TEST(AnomalyDefenses, CorruptedRttsRaiseNothingOnAHealthyPath) {
  // 10% of samples multiplied 50x (bit-flipped RTTs): the robust-scale
  // clamp winsorizes the moment features, so neither the short-term LOF
  // nor the long-term Z-test may page anyone for a healthy path.
  const auto run = [](bool corrupt, auto&& det) {
    std::vector<AnomalyEvent> events;
    RngStream rng{11};
    std::uint64_t seq = 0;
    for (double t = 0; t < 2400; t += 1.0) {
      double rtt = 16.0 * std::exp(rng.normal(0.0, 0.05));
      if (rng.uniform() < 0.1 && corrupt) rtt *= 50.0;
      (void)feed(det, pair(), {++seq, SimTime::seconds(t), true, rtt}, events);
    }
    const auto tail = det.flush(SimTime::seconds(2400));
    events.insert(events.end(), tail.begin(), tail.end());
    return events;
  };
  for (const bool corrupt : {false, true}) {
    EXPECT_TRUE(run(corrupt, Detector{}).empty())
        << "corrupt=" << corrupt;
    EXPECT_TRUE(run(corrupt, ReferenceDetector{}).empty())
        << "reference, corrupt=" << corrupt;
  }
}

TEST(AnomalyDefenses, RttClampShapesTheShortTermScore) {
  // Every look-back window carries one 50x RTT outlier, then the path
  // shifts up 50%. The shifted window must fire, with the LOF score the
  // reference computes over clamped features: without the clamp the
  // outliers inflate the look-back's mean/std/max coordinates and the same
  // window scores differently.
  const auto run = [](auto&& det) {
    std::vector<AnomalyEvent> events;
    RngStream rng{29};
    std::uint64_t seq = 0;
    for (double t = 0; t < 480; t += 1.0) {
      const bool shifted = t >= 420;
      double rtt = (shifted ? 24.0 : 16.0) * std::exp(rng.normal(0.0, 0.05));
      if (!shifted && static_cast<int>(t) % 30 == 7) rtt *= 50.0;
      (void)feed(det, pair(), {++seq, SimTime::seconds(t), true, rtt}, events);
    }
    return events;
  };
  const auto got = run(Detector{});
  const auto want = run(ReferenceDetector{});
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want[0].kind, AnomalyKind::kLatencyShortTerm);
  EXPECT_EQ(want[0].detected_at.raw_nanos(), SimTime::seconds(450).raw_nanos());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].detected_at.raw_nanos(), want[i].detected_at.raw_nanos());
    EXPECT_NEAR(got[i].score, want[i].score,
                1e-6 * std::max(1.0, std::abs(want[i].score)));
  }
}

TEST(AnomalyDefenses, StreamingMatchesBatchUnderGrayTelemetry) {
  // The detector/reference verdict identity must survive with every defense
  // engaged: quorum-starved windows, duplicated and stale deliveries, and
  // corrupted RTTs, on top of a real loss burst that fires events.
  struct Sample {
    std::uint32_t pair;
    std::uint64_t seq;
    double t;
    bool delivered;
    double rtt;
  };
  RngStream rng{23};
  std::vector<Sample> stream;
  std::uint64_t seqs[2] = {0, 0};
  for (double t = 0; t < 1800; t += 1.0) {
    for (std::uint32_t p = 0; p < 2; ++p) {
      // A sparse stretch for pair 1: the plane drops most of its samples.
      if (p == 1 && t >= 600 && t < 900 &&
          static_cast<int>(t) % 10 != 0) {
        continue;
      }
      Sample s{p, ++seqs[p], t, true, 16.0 * std::exp(rng.normal(0.0, 0.05))};
      if (p == 0 && t >= 300 && t < 420 && rng.uniform() < 0.4) {
        s.delivered = false;  // the real incident
        s.rtt = 0.0;
      }
      if (p == 1 && rng.uniform() < 0.05) s.rtt *= 50.0;  // corruption
      stream.push_back(s);
      if (s.seq % 7 == 0) stream.push_back(s);  // duplicate delivery
      if (s.seq % 13 == 0 && s.seq > 20) {      // stale replay
        Sample stale = s;
        stale.seq -= 15;
        stale.t -= 15.0;
        stream.push_back(stale);
      }
    }
  }

  const auto run = [&stream](auto&& det) {
    std::vector<AnomalyEvent> events;
    for (const auto& s : stream) {
      (void)feed(det, pair_n(s.pair),
                 {s.seq, SimTime::seconds(s.t), s.delivered, s.rtt}, events);
    }
    const auto tail = det.flush(SimTime::seconds(1800));
    events.insert(events.end(), tail.begin(), tail.end());
    return std::pair{events, det.counters()};
  };
  DetectorConfig cfg;
  cfg.window_quorum = 5;
  const auto [se, sc] = run(Detector(cfg));
  const auto [be, bc] = run(ReferenceDetector(cfg));
  ASSERT_FALSE(se.empty());
  ASSERT_EQ(se.size(), be.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    EXPECT_TRUE(se[i].pair == be[i].pair);
    EXPECT_EQ(se[i].kind, be[i].kind);
    EXPECT_EQ(se[i].detected_at.raw_nanos(), be[i].detected_at.raw_nanos());
    EXPECT_NEAR(se[i].score, be[i].score,
                1e-6 * std::max(1.0, std::abs(be[i].score)));
  }
  EXPECT_GT(sc.windows_insufficient, 0u);
  EXPECT_GT(sc.duplicates_rejected, 0u);
  EXPECT_GT(sc.stale_rejected, 0u);
  EXPECT_EQ(sc.windows_insufficient, bc.windows_insufficient);
  EXPECT_EQ(sc.duplicates_rejected, bc.duplicates_rejected);
  EXPECT_EQ(sc.stale_rejected, bc.stale_rejected);
  EXPECT_EQ(sc.samples_delivered, bc.samples_delivered);
  EXPECT_EQ(sc.short_windows_closed, bc.short_windows_closed);
  EXPECT_EQ(sc.long_windows_closed, bc.long_windows_closed);
}

TEST(AnomalyDefenses, SnapshotRestoreResumesBitIdentically) {
  // Checkpoint mid-stream, keep feeding the original, restore a second
  // detector from the snapshot and feed it the same tail: every verdict
  // and counter that depends on pair state must match bit-for-bit.
  RngStream rng{31};
  std::vector<std::tuple<std::uint64_t, double, bool, double>> head, tail;
  std::uint64_t seq = 0;
  for (double t = 0; t < 1200; t += 1.0) {
    const bool lost = t >= 700 && t < 760 && rng.uniform() < 0.5;
    const double rtt = lost ? 0.0 : 16.0 * std::exp(rng.normal(0.0, 0.05));
    (t >= 600 ? tail : head).push_back({++seq, t, !lost, rtt});
  }

  AnomalyDetector live;
  const auto h = live.add_pair(pair());
  std::vector<AnomalyEvent> live_events;
  for (const auto& [s, t, d, r] : head) {
    (void)live.ingest(h, {s, SimTime::seconds(t), d, r}, live_events);
  }
  const auto snap = live.snapshot();

  // The live detector continues...
  for (const auto& [s, t, d, r] : tail) {
    (void)live.ingest(h, {s, SimTime::seconds(t), d, r}, live_events);
  }
  const auto live_tail = live.flush(SimTime::seconds(1200));
  live_events.insert(live_events.end(), live_tail.begin(), live_tail.end());

  // ...while a cold replacement restores the checkpoint and takes over,
  // under the slot the live detector handed out.
  AnomalyDetector restored;
  restored.restore(snap);
  EXPECT_EQ(restored.pair_count(), 1U);
  std::vector<AnomalyEvent> restored_events;
  for (const auto& [s, t, d, r] : tail) {
    (void)restored.ingest(h, {s, SimTime::seconds(t), d, r},
                          restored_events);
  }
  const auto rest_tail = restored.flush(SimTime::seconds(1200));
  restored_events.insert(restored_events.end(), rest_tail.begin(),
                         rest_tail.end());

  // live_events includes pre-checkpoint events; the restored run must
  // reproduce exactly the post-checkpoint suffix.
  ASSERT_FALSE(restored_events.empty());
  ASSERT_GE(live_events.size(), restored_events.size());
  const std::size_t offset = live_events.size() - restored_events.size();
  for (std::size_t i = 0; i < restored_events.size(); ++i) {
    const auto& a = live_events[offset + i];
    const auto& b = restored_events[i];
    EXPECT_TRUE(a.pair == b.pair);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.detected_at.raw_nanos(), b.detected_at.raw_nanos());
    EXPECT_EQ(a.score, b.score);
  }
}

TEST(AnomalyDefenses, RestoreLeavesLofCountersMonotonic) {
  // Counters are process telemetry, not analysis state: restoring an
  // older snapshot rolls the pairs back, never the count of LOF scores
  // already computed.
  AnomalyDetector det;
  const auto h = det.add_pair(pair());
  std::vector<AnomalyEvent> out;
  RngStream rng{17};
  // Every third window runs 50% slow, past the magnitude gate, so those
  // closes score.
  const auto feed_windows = [&](int from, int to) {
    for (int w = from; w < to; ++w) {
      const double base = w % 3 == 2 ? 24.0 : 16.0;
      for (int s = 0; s < 6; ++s) {
        const double rtt = base * std::exp(rng.normal(0.0, 0.05));
        (void)det.ingest(h, obs(30.0 * w + 5.0 * s, true, rtt), out);
      }
    }
  };
  feed_windows(0, 20);
  const DetectorCounters at_snapshot = det.counters();
  ASSERT_GT(at_snapshot.lof_fast_path, 0U);
  const auto snap = det.snapshot();
  feed_windows(20, 40);
  const DetectorCounters scored = det.counters();
  ASSERT_GT(scored.lof_fast_path, at_snapshot.lof_fast_path);
  ASSERT_GT(scored.lof_kdist_rebuilds, at_snapshot.lof_kdist_rebuilds);
  det.restore(snap);
  const DetectorCounters restored = det.counters();
  EXPECT_GE(restored.lof_fast_path, scored.lof_fast_path);
  EXPECT_GE(restored.lof_kdist_rebuilds, scored.lof_kdist_rebuilds);
}

TEST(Anomaly, RejectsALookbackTheRingCannotIndex) {
  DetectorConfig cfg;
  cfg.lookback_windows = ml::StreamingLof::kMaxSlots;
  EXPECT_THROW(AnomalyDetector{cfg}, std::invalid_argument);
}

TEST(AnomalyChurn, ReservePairsMakesIngestAllocationFree) {
  // The plan-time contract end to end: after reserve_pairs(N), adding N
  // pairs and feeding them through more windows than the look-back holds
  // — closes that fill the ring and evict from it, then a shifted window
  // that scores and fires — performs zero heap allocations.
  constexpr std::uint32_t kPairs = 256;
  AnomalyDetector det;
  det.reserve_pairs(kPairs);
  std::vector<AnomalyDetector::PairHandle> hs(kPairs);
  const std::size_t healthy = det.config().lookback_windows + 2;
  std::vector<AnomalyEvent> out;
  out.reserve(2 * kPairs);
  RngStream rng{3};
  std::uint64_t allocs = 0;
  {
    const AllocationCounter counter;
    // Windows 0..healthy-1 at the baseline, one 50% slow window, and one
    // sample of the next window to close it.
    for (std::size_t w = 0; w <= healthy + 1; ++w) {
      const double base = w == healthy ? 24.0 : 16.0;
      const int samples = w == healthy + 1 ? 1 : 6;
      for (int s = 0; s < samples; ++s) {
        const double t = 30.0 * static_cast<double>(w) + 5.0 * s;
        for (std::uint32_t i = 0; i < kPairs; ++i) {
          if (w == 0 && s == 0) hs[i] = det.add_pair(pair_n(i));
          const double rtt = base * std::exp(rng.normal(0.0, 0.05));
          (void)det.ingest(hs[i], obs(t, true, rtt), out);
        }
      }
    }
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0U);
  EXPECT_EQ(det.pair_count(), kPairs);
  // The shifted window really went through scoring, and fired.
  EXPECT_EQ(det.counters().lof_fast_path, kPairs);
  EXPECT_FALSE(out.empty());
  for (const auto& e : out) EXPECT_EQ(e.kind, AnomalyKind::kLatencyShortTerm);
}

TEST(AnomalyChurn, RecycledIdStartsWithAnEmptyLookback) {
  // A recycled id keeps its look-back block's stale doubles; only the
  // reset ring keeps them out of reach. So the next tenant of the id must
  // judge its windows exactly as the same pair on a fresh detector does.
  RngStream rng{19};
  // The tenant: five healthy windows (more than k, so the next close
  // scores), one 50% slow window, and one sample to close it — too few
  // windows to overwrite the predecessor's slots.
  std::vector<std::pair<double, double>> tenant;  // (t, rtt)
  for (int w = 0; w < 7; ++w) {
    const double base = w == 5 ? 24.0 : 16.0;
    for (int s = 0; s < (w == 6 ? 1 : 6); ++s) {
      tenant.emplace_back(1000.0 + 30.0 * w + 5.0 * s,
                          base * std::exp(rng.normal(0.0, 0.05)));
    }
  }
  const auto run_tenant = [&tenant](AnomalyDetector& det,
                                    AnomalyDetector::PairHandle h) {
    std::vector<AnomalyEvent> events;
    for (const auto& [t, rtt] : tenant) {
      (void)det.ingest(h, obs(t, true, rtt), events);
    }
    std::vector<obs::WindowRecord> windows;
    for (const auto& r : det.window_log()) {
      if (r.pair == pair_n(1)) windows.push_back(r);
    }
    return std::pair{events, windows};
  };

  // The predecessor fills its whole ring with windows at 1.25x the
  // tenant's healthy latency — medians that would move the tenant's gate,
  // points close enough to join its neighborhoods — then migrates away,
  // which recycles its slot.
  AnomalyDetector det;
  det.set_window_logging(true);
  const auto h0 = det.add_pair(pair_n(0));
  std::vector<AnomalyEvent> out;
  for (int w = 0; w < 12; ++w) {
    for (int s = 0; s < 6; ++s) {
      const double rtt = 20.0 * std::exp(rng.normal(0.0, 0.05));
      (void)det.ingest(h0, obs(30.0 * w + 5.0 * s, true, rtt), out);
    }
  }
  (void)det.extract_pair(h0);
  ASSERT_EQ(det.pair_count(), 0U);
  const auto h1 = det.add_pair(pair_n(1));
  EXPECT_EQ(h1, h0);  // the tenant gets the slot

  AnomalyDetector fresh;
  fresh.set_window_logging(true);
  const auto [got, got_windows] = run_tenant(det, h1);
  const auto [want, want_windows] =
      run_tenant(fresh, fresh.add_pair(pair_n(1)));
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want[0].kind, AnomalyKind::kLatencyShortTerm);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].detected_at.raw_nanos(), want[i].detected_at.raw_nanos());
    EXPECT_EQ(got[i].score, want[i].score);
  }
  ASSERT_EQ(got_windows.size(), want_windows.size());
  for (std::size_t i = 0; i < got_windows.size(); ++i) {
    EXPECT_EQ(got_windows[i].end.raw_nanos(), want_windows[i].end.raw_nanos());
    EXPECT_EQ(got_windows[i].p50_us, want_windows[i].p50_us);
    EXPECT_EQ(got_windows[i].score, want_windows[i].score);
    EXPECT_EQ(got_windows[i].flags, want_windows[i].flags);
  }
}

TEST(AnomalyChurn, SnapshotCarriesParkedStateBitIdentically) {
  // The slot free list is analysis state: a warm restart after a
  // migration must hand the next pair the same slot and fire the same
  // windows as the uninterrupted run.
  RngStream rng{13};
  AnomalyDetector live;
  std::vector<AnomalyEvent> live_events;
  std::vector<AnomalyDetector::PairHandle> hs;
  for (std::uint32_t i = 0; i < 4; ++i) hs.push_back(live.add_pair(pair_n(i)));
  for (double t = 0; t < 300; t += 1.0) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      const double rtt = 16.0 * std::exp(rng.normal(0.0, 0.05));
      (void)live.ingest(hs[i], obs(t, true, rtt), live_events);
    }
  }
  (void)live.extract_pair(hs[1]);
  (void)live.extract_pair(hs[2]);
  const auto snap = live.snapshot();
  const std::size_t at_snap = live_events.size();

  AnomalyDetector restored;
  restored.restore(snap);
  EXPECT_EQ(restored.pair_count(), 2U);
  // The restored free list serves the same slot, last freed first.
  const auto fresh = live.add_pair(pair_n(4));
  EXPECT_EQ(fresh, hs[2]);
  EXPECT_EQ(restored.add_pair(pair_n(4)), fresh);
  std::vector<AnomalyEvent> rest_events;
  for (double t = 300; t < 400; t += 1.0) {
    for (const auto h : {hs[0], hs[3], fresh}) {
      const double rtt = 16.0 * std::exp(rng.normal(0.0, 0.05));
      (void)live.ingest(h, obs(t, true, rtt), live_events);
      (void)restored.ingest(h, obs(t, true, rtt), rest_events);
    }
  }
  ASSERT_EQ(live_events.size() - at_snap, rest_events.size());
  for (std::size_t i = 0; i < rest_events.size(); ++i) {
    EXPECT_TRUE(live_events[at_snap + i].pair == rest_events[i].pair);
    EXPECT_EQ(live_events[at_snap + i].score, rest_events[i].score);
  }

  const auto live_tail = live.flush(SimTime::seconds(400.0));
  const auto rest_tail = restored.flush(SimTime::seconds(400.0));
  ASSERT_EQ(live_tail.size(), rest_tail.size());
  for (std::size_t i = 0; i < live_tail.size(); ++i) {
    EXPECT_TRUE(live_tail[i].pair == rest_tail[i].pair);
    EXPECT_EQ(live_tail[i].kind, rest_tail[i].kind);
    EXPECT_EQ(live_tail[i].score, rest_tail[i].score);
  }
  EXPECT_EQ(live.pair_count(), 3U);
  EXPECT_EQ(restored.pair_count(), 3U);
}

TEST(AnomalyPaths, OffByDefaultAndPairEventsStayPathAgnostic) {
  // track_paths defaults off: path ids fed through ingest are ignored, no
  // path-scoped events appear, and whole-pair verdicts carry kAnyPath.
  AnomalyDetector det;
  EXPECT_FALSE(det.config().track_paths);
  const auto h = det.add_pair(pair());
  std::vector<AnomalyEvent> all;
  std::uint64_t seq = 0;
  for (int i = 0; i < 35; ++i) {
    // 20% loss, round-robin over 4 "members" the detector must not track.
    (void)det.ingest(h,
                     {++seq, SimTime::seconds(i), i % 5 != 0, 16.0,
                      static_cast<std::uint32_t>(i % 4)},
                     all);
  }
  ASSERT_FALSE(all.empty());
  for (const auto& e : all) {
    EXPECT_EQ(e.path_id, AnomalyEvent::kAnyPath);
  }
}

TEST(AnomalyPaths, GrayMemberFiresPathScopedLossOnly) {
  // The SprayCheck regime: one of 8 sprayed members drops 25% while the
  // pair-level rate (~3%) stays under kLossRateThreshold. Only the
  // differential per-member rule may fire, and it must name the member.
  DetectorConfig cfg;
  cfg.track_paths = true;
  AnomalyDetector det(cfg);
  const auto h = det.add_pair(pair());
  std::vector<AnomalyEvent> all;
  std::uint64_t seq = 0;
  int member2_count = 0;
  for (int i = 0; i < 480; ++i) {
    const std::uint32_t member = static_cast<std::uint32_t>(i % 8);
    bool delivered = true;
    if (member == 2 && (member2_count++ % 4) == 0) delivered = false;
    (void)det.ingest(h, {++seq, SimTime::seconds(i), delivered, 16.0, member},
                     all);
  }
  const auto tail = det.flush(SimTime::seconds(480));
  all.insert(all.end(), tail.begin(), tail.end());
  ASSERT_FALSE(all.empty());
  bool member_loss = false;
  for (const auto& e : all) {
    // No pair-level alarm: the whole point of the gray member is that the
    // aggregate stays under every whole-pair threshold.
    EXPECT_NE(e.path_id, AnomalyEvent::kAnyPath);
    if (e.kind == AnomalyKind::kPacketLoss) {
      EXPECT_EQ(e.path_id, 2u);
      EXPECT_GE(e.score, kLossRateThreshold);
      member_loss = true;
    }
  }
  EXPECT_TRUE(member_loss);
}

TEST(AnomalyPaths, SlowMemberFiresPathScopedLatencyShift) {
  DetectorConfig cfg;
  cfg.track_paths = true;
  AnomalyDetector det(cfg);
  const auto h = det.add_pair(pair());
  std::vector<AnomalyEvent> all;
  std::uint64_t seq = 0;
  for (int i = 0; i < 240; ++i) {
    const std::uint32_t member = static_cast<std::uint32_t>(i % 4);
    const double rtt = member == 1 ? 24.0 : 16.0;  // one member 1.5x slower
    (void)det.ingest(h, {++seq, SimTime::seconds(i), true, rtt, member}, all);
  }
  bool member_latency = false;
  for (const auto& e : all) {
    if (e.kind == AnomalyKind::kLatencyShortTerm &&
        e.path_id != AnomalyEvent::kAnyPath) {
      EXPECT_EQ(e.path_id, 1u);
      EXPECT_NEAR(e.score, 1.5, 0.05);  // mean vs pooled-sibling mean
      member_latency = true;
    }
  }
  EXPECT_TRUE(member_latency);
}

TEST(AnomalyPaths, SnapshotAndMigrationCarryPathAccumulators) {
  // Path accumulators are analysis state: a restore (or an extract/adopt
  // shard rebalance) mid-evidence must reproduce the exact path-scoped
  // verdicts of the uninterrupted run.
  DetectorConfig cfg;
  cfg.track_paths = true;
  const auto feed = [](AnomalyDetector& det, AnomalyDetector::PairHandle h,
                       int from, int to, std::uint64_t& seq,
                       std::vector<AnomalyEvent>& out) {
    int m2 = from / 8;  // member-2 probes already seen (one per 8 steps)
    for (int i = from; i < to; ++i) {
      const std::uint32_t member = static_cast<std::uint32_t>(i % 8);
      bool delivered = true;
      if (member == 2 && (m2++ % 4) == 0) delivered = false;
      (void)det.ingest(h, {++seq, SimTime::seconds(i), delivered, 16.0, member},
                       out);
    }
  };

  AnomalyDetector live(cfg);
  const auto h = live.add_pair(pair());
  std::vector<AnomalyEvent> live_events;
  std::uint64_t seq = 0;
  feed(live, h, 0, 200, seq, live_events);
  const auto snap = live.snapshot();

  AnomalyDetector restored(cfg);
  restored.restore(snap);
  AnomalyDetector adopted(cfg);
  AnomalyDetector::PairHandle adopted_h;
  {
    AnomalyDetector from_snap(cfg);
    from_snap.restore(snap);
    adopted_h = adopted.adopt_pair(from_snap.extract_pair(h));
    EXPECT_EQ(from_snap.pair_count(), 0U);
  }

  std::uint64_t seq_r = seq, seq_a = seq;
  std::vector<AnomalyEvent> restored_events, adopted_events;
  feed(live, h, 200, 480, seq, live_events);
  feed(restored, h, 200, 480, seq_r, restored_events);
  feed(adopted, adopted_h, 200, 480, seq_a, adopted_events);

  ASSERT_FALSE(restored_events.empty());
  ASSERT_GE(live_events.size(), restored_events.size());
  const std::size_t offset = live_events.size() - restored_events.size();
  ASSERT_EQ(restored_events.size(), adopted_events.size());
  for (std::size_t i = 0; i < restored_events.size(); ++i) {
    const auto& a = live_events[offset + i];
    EXPECT_TRUE(a.pair == restored_events[i].pair);
    EXPECT_EQ(a.kind, restored_events[i].kind);
    EXPECT_EQ(a.path_id, restored_events[i].path_id);
    EXPECT_EQ(a.score, restored_events[i].score);
    EXPECT_EQ(a.detected_at.raw_nanos(),
              restored_events[i].detected_at.raw_nanos());
    EXPECT_EQ(restored_events[i].path_id, adopted_events[i].path_id);
    EXPECT_EQ(restored_events[i].score, adopted_events[i].score);
  }
}

TEST(AnomalyKindStrings, Printable) {
  EXPECT_EQ(to_string(AnomalyKind::kUnreachable), "unreachable");
  EXPECT_EQ(to_string(AnomalyKind::kLatencyLongTerm), "latency-long-term");
}

}  // namespace
}  // namespace skh::core
