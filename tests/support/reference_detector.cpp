#include "support/reference_detector.h"

#include <algorithm>
#include <cmath>

#include "ml/lof.h"

namespace skh::testutil {

using core::AnomalyEvent;
using core::AnomalyKind;

namespace {

/// Start of the window on the nominal grid anchored at `boundary` that
/// contains `t` (windows without samples are skipped, not stretched).
SimTime aligned_restart(SimTime boundary, SimTime t, SimTime window) {
  const std::int64_t w = window.raw_nanos();
  if (w <= 0) return t;
  const std::int64_t missed = (t - boundary).raw_nanos() / w;
  return SimTime::nanos(boundary.raw_nanos() + missed * w);
}

}  // namespace

ReferenceDetector::ReferenceDetector(core::DetectorConfig cfg)
    : cfg_(cfg),
      index_(common::FlatTableConfig{.capacity = cfg.expected_pairs}) {
  pairs_.reserve(cfg.expected_pairs);
}

std::size_t ReferenceDetector::ingest(const EndpointPair& pair,
                                      const core::Observation& o,
                                      std::vector<AnomalyEvent>& out) {
  const auto [id, inserted] = index_.insert(pair);
  if (inserted) {
    pairs_.resize(id + 1);  // ids are dense: nothing is ever erased
    pairs_[id].pair = pair;
  }
  PairState& p = pairs_[id];
  const std::size_t before = out.size();
  ++counters_.probes_ingested;

  if (o.seq != 0) {
    if (o.seq == p.last_seq && o.sent_at == p.last_sent) {
      ++counters_.duplicates_rejected;
      return 0;
    }
    if (o.seq < p.last_seq && o.sent_at <= p.last_sent) {
      ++counters_.stale_rejected;
      return 0;
    }
  }
  if (p.short_open && o.sent_at < p.short_start) {
    ++counters_.stale_rejected;
    return 0;
  }
  if (o.seq != 0) {
    p.last_seq = o.seq;
    p.last_sent = o.sent_at;
  }

  if (p.short_open) {
    const SimTime boundary = p.short_start + cfg_.short_window;
    if (o.sent_at >= boundary) {
      close_short_window(p, boundary, out);
      p.short_open = true;
      p.short_start = aligned_restart(boundary, o.sent_at, cfg_.short_window);
    }
  } else {
    p.short_open = true;
    p.short_start = o.sent_at;
  }
  if (p.long_open) {
    const SimTime boundary = p.long_start + cfg_.long_window;
    if (o.sent_at >= boundary) {
      close_long_window(p, boundary, out);
      p.long_open = true;
      p.long_start = aligned_restart(boundary, o.sent_at, cfg_.long_window);
    }
  } else {
    p.long_open = true;
    p.long_start = o.sent_at;
  }

  ++p.short_sent;
  if (o.delivered) {
    ++counters_.samples_delivered;
    p.short_rtts.push_back(o.rtt_us);
    p.long_rtts.push_back(o.rtt_us);
    p.fail_streak = 0;
    p.unreachable_alarmed = false;
  } else {
    ++p.short_lost;
    ++p.fail_streak;
    if (p.fail_streak >= core::kUnreachableStreak && !p.unreachable_alarmed) {
      p.unreachable_alarmed = true;
      out.push_back(AnomalyEvent{p.pair, o.sent_at, AnomalyKind::kUnreachable,
                                 static_cast<double>(p.fail_streak)});
    }
  }
  const std::size_t fired = out.size() - before;
  counters_.events_emitted += fired;
  return fired;
}

void ReferenceDetector::close_short_window(PairState& p, SimTime at,
                                           std::vector<AnomalyEvent>& out) {
  ++counters_.short_windows_closed;
  if (cfg_.window_quorum > 0 && p.short_sent < cfg_.window_quorum) {
    // A starved window gets no verdict, and its samples (folded into the
    // long window at ingest) leave the long window again.
    ++counters_.windows_insufficient;
    p.long_rtts.resize(p.long_rtts.size() - p.short_rtts.size());
  } else if (p.short_sent >= cfg_.min_samples_per_window) {
    const double loss_rate = static_cast<double>(p.short_lost) /
                             static_cast<double>(p.short_sent);
    if (loss_rate >= core::kLossRateThreshold &&
        p.short_lost >= core::kMinLostPerWindow) {
      out.push_back(AnomalyEvent{p.pair, at, AnomalyKind::kPacketLoss,
                                 loss_rate});
    }
    if (p.short_rtts.size() >= cfg_.min_samples_per_window) {
      std::vector<double> sorted = p.short_rtts;
      std::sort(sorted.begin(), sorted.end());
      const WindowSummary summary = core::robust_summary(
          sorted, core::kRttClampIqrMult, core::kRttClampBandFrac);
      const std::vector<double> feature = summary.as_feature_vector();
      if (p.lookback.size() >= cfg_.lof.k_neighbors + 1) {
        const std::vector<std::vector<double>> reference(p.lookback.begin(),
                                                         p.lookback.end());
        const double score = ml::lof_score_of(feature, reference, cfg_.lof);
        // Magnitude gate: index 1 of a feature vector is the median.
        std::vector<double> medians;
        medians.reserve(reference.size());
        for (const auto& w : reference) medians.push_back(w[1]);
        std::sort(medians.begin(), medians.end());
        const double ref_median = medians[medians.size() / 2];
        const double shift =
            ref_median > 0.0 ? (summary.p50 - ref_median) / ref_median : 0.0;
        if (score > cfg_.lof.outlier_threshold &&
            shift >= core::kMinRelativeShift) {
          out.push_back(AnomalyEvent{p.pair, at,
                                     AnomalyKind::kLatencyShortTerm, score});
        }
      }
      p.lookback.push_back(feature);
      while (p.lookback.size() > cfg_.lookback_windows) p.lookback.pop_front();
    }
  }
  p.short_open = false;
  p.short_rtts.clear();
  p.short_sent = 0;
  p.short_lost = 0;
}

void ReferenceDetector::close_long_window(PairState& p, SimTime at,
                                          std::vector<AnomalyEvent>& out) {
  ++counters_.long_windows_closed;
  if (p.long_rtts.size() >= cfg_.min_samples_per_window) {
    if (!p.baseline) {
      p.baseline = ml::fit_lognormal(p.long_rtts);
    } else {
      const auto result = ml::z_test(*p.baseline, p.long_rtts, core::kZAlpha);
      const auto window_fit = ml::fit_lognormal(p.long_rtts);
      const double shift = std::exp(window_fit.mu - p.baseline->mu) - 1.0;
      if (result.reject && shift >= core::kLongTermMinShift) {
        out.push_back(AnomalyEvent{p.pair, at, AnomalyKind::kLatencyLongTerm,
                                   std::abs(result.z)});
      }
      p.baseline = window_fit;
    }
  }
  p.long_open = false;
  p.long_rtts.clear();
}

std::vector<AnomalyEvent> ReferenceDetector::flush(SimTime now) {
  std::vector<AnomalyEvent> events;
  for (PairState& p : pairs_) {
    if (p.short_open && now - p.short_start >= cfg_.short_window) {
      close_short_window(p, p.short_start + cfg_.short_window, events);
    }
    if (p.long_open && now - p.long_start >= cfg_.long_window) {
      close_long_window(p, p.long_start + cfg_.long_window, events);
    }
  }
  counters_.events_emitted += events.size();
  return events;
}

}  // namespace skh::testutil
