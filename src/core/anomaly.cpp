#include "core/anomaly.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

namespace skh::core {

void canonicalize_events(std::vector<AnomalyEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const AnomalyEvent& a, const AnomalyEvent& b) {
              if (a.detected_at != b.detected_at) {
                return a.detected_at < b.detected_at;
              }
              if (a.pair != b.pair) return a.pair < b.pair;
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.path_id != b.path_id) return a.path_id < b.path_id;
              return a.score < b.score;
            });
}

std::string_view to_string(AnomalyKind k) noexcept {
  switch (k) {
    case AnomalyKind::kUnreachable: return "unreachable";
    case AnomalyKind::kPacketLoss: return "packet-loss";
    case AnomalyKind::kLatencyShortTerm: return "latency-short-term";
    case AnomalyKind::kLatencyLongTerm: return "latency-long-term";
  }
  return "unknown";
}

namespace {

/// Start of the window (on the nominal grid anchored at `boundary`) that
/// contains `t`. A probe gap spanning several windows skips the sample-less
/// windows entirely instead of dragging every later boundary to the late
/// sample.
SimTime aligned_restart(SimTime boundary, SimTime t, SimTime window) {
  const std::int64_t w = window.raw_nanos();
  if (w <= 0) return t;
  const std::int64_t missed = (t - boundary).raw_nanos() / w;
  return SimTime::nanos(boundary.raw_nanos() + missed * w);
}

}  // namespace

// With iqr_mult == 0 (or no sample above the cap) the moments are exactly
// mean_of / stddev_of over the sorted samples.
WindowSummary robust_summary(std::span<const double> sorted, double iqr_mult,
                             double band_frac) {
  WindowSummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.min = sorted.front();
  s.p25 = percentile_sorted(sorted, 25.0);
  s.p50 = percentile_sorted(sorted, 50.0);
  s.p75 = percentile_sorted(sorted, 75.0);
  double cap = std::numeric_limits<double>::infinity();
  if (iqr_mult > 0.0) {
    cap = s.p75 +
          std::max(iqr_mult * (s.p75 - s.p25), band_frac * s.p50);
  }
  double sum = 0.0;
  for (const double v : sorted) sum += std::min(v, cap);
  s.mean = sum / static_cast<double>(sorted.size());
  if (sorted.size() >= 2) {
    double s2 = 0.0;
    for (const double v : sorted) {
      const double d = std::min(v, cap) - s.mean;
      s2 += d * d;
    }
    s.stddev = std::sqrt(s2 / static_cast<double>(sorted.size() - 1));
  }
  s.max = std::min(sorted.back(), cap);
  return s;
}

AnomalyDetector::AnomalyDetector(DetectorConfig cfg)
    : cfg_(cfg),
      // A close pushes the new window before evicting the oldest, so the
      // ring holds up to lookback + 1 points (the constructor rejects
      // depths a LofRing cannot index). A slot's feature plus its sorted
      // median make 8 doubles, so every block is a whole number of lines.
      lof_(cfg.lof, cfg.lookback_windows + 1, kFeatureDim),
      lookback_stride_(lof_.slots() * (kFeatureDim + 1)) {
  if (cfg_.expected_pairs > 0) {
    hot_.reserve(cfg_.expected_pairs);
    cold_.reserve(cfg_.expected_pairs);
    samples_.reserve(cfg_.expected_pairs * kStride);
    lookback_.reserve(cfg_.expected_pairs * lookback_stride_);
    if (cfg_.track_paths) paths_.reserve(cfg_.expected_pairs * kPathSlots);
  }
}

AnomalyDetector::PairHandle AnomalyDetector::add_pair(
    const EndpointPair& pair) {
  const auto id = static_cast<PairHandle>(hot_.size());
  const std::size_t n = static_cast<std::size_t>(id) + 1;
  hot_.resize(n);
  cold_.resize(n);
  samples_.resize(n * kStride, 0.0);
  lookback_.resize(n * lookback_stride_, 0.0);
  if (cfg_.track_paths) paths_.resize(n * kPathSlots);
  cold_[id].pair = pair;
  return id;
}

void AnomalyDetector::reserve_pairs(std::size_t pairs) {
  if (pairs > hot_.capacity()) {
    hot_.reserve(pairs);
    cold_.reserve(pairs);
    samples_.reserve(pairs * kStride);
    lookback_.reserve(pairs * lookback_stride_);
    if (cfg_.track_paths) paths_.reserve(pairs * kPathSlots);
  }
  // A campaign-end flush closes at most a short and a long window per pair;
  // sizing the window log to that worst case means a drained log never
  // drops, at any fleet scale.
  window_log_cap_ = std::max(window_log_cap_, 2 * pairs);
  if (log_windows_) window_log_.reserve(window_log_cap_);
}

void AnomalyDetector::set_window_logging(bool on) {
  log_windows_ = on;
  if (on) window_log_.reserve(window_log_cap_);
}

void AnomalyDetector::log_window(const EndpointPair& pair, SimTime start,
                                 SimTime end, std::uint32_t sent,
                                 std::uint32_t lost, float p50_us, float score,
                                 std::uint32_t flags) {
  if (!log_windows_) return;
  if (window_log_.size() >= window_log_cap_) {
    ++window_log_drops_;
    return;
  }
  obs::WindowRecord rec;
  rec.pair = pair;
  rec.start = start;
  rec.end = end;
  rec.sent = sent;
  rec.lost = lost;
  rec.p50_us = p50_us;
  rec.score = score;
  rec.flags = flags;
  window_log_.push_back(rec);
}

std::size_t AnomalyDetector::ingest(PairHandle h, const Observation& o,
                                    std::vector<AnomalyEvent>& out) {
  const std::size_t before = out.size();
  const SimTime sent_at = o.sent_at;
  PairHot& st = hot_[h];
  ++counters_.probes_ingested;

  // Gray-telemetry rejection, before any window state is touched: a lying
  // delivery must not close windows, drag the grid, or double-count.
  if (o.seq != 0) {
    if (o.seq == st.last_seq && sent_at == st.last_sent) {
      ++counters_.duplicates_rejected;  // duplicated delivery, counted once
      return 0;
    }
    if (o.seq < st.last_seq && sent_at <= st.last_sent) {
      ++counters_.stale_rejected;  // reordered straggler from an earlier round
      return 0;
    }
  }
  if (st.short_open && sent_at < st.short_start) {
    // Timestamped before the window it would land in: a skewed clock or a
    // delivery delayed across a close. Window attribution would be wrong
    // whatever we did, so drop it (a legitimate sequence reset after a
    // replan always carries a fresh timestamp and is unaffected).
    ++counters_.stale_rejected;
    return 0;
  }
  if (o.seq != 0) {
    st.last_seq = o.seq;
    st.last_sent = sent_at;
  }
  // Window rollover checks happen before the sample is added, so a sample
  // after the boundary closes the previous window first. Closes are stamped
  // at the nominal boundary (start + window), not at the triggering
  // sample's timestamp, and the next window reopens on the nominal grid.
  if (st.short_open) {
    const SimTime boundary = st.short_start + cfg_.short_window;
    if (sent_at >= boundary) {
      close_short_window(h, boundary, out);
      st.short_open = true;
      st.short_start = aligned_restart(boundary, sent_at, cfg_.short_window);
    }
  } else {
    st.short_open = true;
    st.short_start = sent_at;
  }
  if (st.long_open) {
    const SimTime boundary = st.long_start + cfg_.long_window;
    if (sent_at >= boundary) {
      close_long_window(h, boundary, out);
      st.long_open = true;
      st.long_start = aligned_restart(boundary, sent_at, cfg_.long_window);
    }
  } else {
    st.long_open = true;
    st.long_start = sent_at;
  }

  ++st.short_sent;
  if (o.delivered) {
    ++counters_.samples_delivered;
    // Long-window accumulation is folded into the short-window close: the
    // long window is a short-window multiple on the same grid, so every
    // long close is preceded by the short close covering its tail.
    const std::uint32_t c = st.short_count;
    if (c < kStride) {
      samples_[static_cast<std::size_t>(h) * kStride + c] = o.rtt_us;
    } else {
      cold_[h].spill.push_back(o.rtt_us);
    }
    st.short_count = c + 1;
    st.fail_streak = 0;
    st.unreachable_alarmed = false;
  } else {
    ++st.short_lost;
    ++st.fail_streak;
    if (st.fail_streak >= kUnreachableStreak &&
        !st.unreachable_alarmed) {
      st.unreachable_alarmed = true;
      out.push_back(AnomalyEvent{cold_[h].pair, sent_at,
                                 AnomalyKind::kUnreachable,
                                 static_cast<double>(st.fail_streak)});
    }
  }
  // Per-path sub-series (sprayed/adaptive pairs): one predictable branch
  // when off, a bounded slot update when on. Accumulated across windows —
  // a sprayed pair spreads each window's samples over up to spray_ways
  // members, so per-window member counts are too thin to judge alone.
  if (cfg_.track_paths) note_path(h, o.path_id, o.delivered, o.rtt_us);
  const std::size_t fired = out.size() - before;
  counters_.events_emitted += fired;
  return fired;
}

void AnomalyDetector::note_path(PairHandle h, std::uint32_t path_id,
                                bool delivered, double rtt_us) {
  PathSlot* const slots =
      paths_.data() + static_cast<std::size_t>(h) * kPathSlots;
  const std::uint32_t key = path_id + 1;
  PathSlot* slot = nullptr;
  for (std::uint32_t i = 0; i < kPathSlots; ++i) {
    if (slots[i].key == key) {
      slot = &slots[i];
      break;
    }
    if (slot == nullptr && slots[i].key == 0) slot = &slots[i];
  }
  if (slot == nullptr) {
    // A 9th distinct member: steal the least-sampled slot (lowest index on
    // ties) — deterministic, bounded, and it forgets the member with the
    // least evidence.
    slot = &slots[0];
    for (std::uint32_t i = 1; i < kPathSlots; ++i) {
      if (slots[i].sent < slot->sent) slot = &slots[i];
    }
    *slot = PathSlot{};
  }
  if (slot->key != key) {
    *slot = PathSlot{};
    slot->key = key;
  }
  ++slot->sent;
  if (delivered) {
    slot->rtt_sum += static_cast<float>(rtt_us);
  } else {
    ++slot->lost;
  }
}

void AnomalyDetector::evaluate_paths(PairHandle h, SimTime at,
                                     std::vector<AnomalyEvent>& events) {
  PathSlot* const slots =
      paths_.data() + static_cast<std::size_t>(h) * kPathSlots;
  std::uint32_t occupied = 0;
  std::uint64_t tot_sent = 0;
  std::uint64_t tot_lost = 0;
  double tot_rtt = 0.0;
  for (std::uint32_t i = 0; i < kPathSlots; ++i) {
    if (slots[i].key == 0) continue;
    ++occupied;
    tot_sent += slots[i].sent;
    tot_lost += slots[i].lost;
    tot_rtt += slots[i].rtt_sum;
  }
  // Differential detection needs siblings as the control group: with one
  // member there is nothing to compare against (the whole-pair rules own
  // that regime).
  if (occupied < 2) return;
  const PairCold& cold = cold_[h];
  for (std::uint32_t i = 0; i < kPathSlots; ++i) {
    PathSlot& s = slots[i];
    if (s.key == 0 || s.sent < cfg_.min_samples_per_window) continue;
    const std::uint64_t rest_sent = tot_sent - s.sent;
    if (rest_sent < cfg_.min_samples_per_window) continue;
    const std::uint64_t rest_lost = tot_lost - s.lost;
    const double loss =
        static_cast<double>(s.lost) / static_cast<double>(s.sent);
    const double rest_loss = static_cast<double>(rest_lost) /
                             static_cast<double>(rest_sent);
    // Member loss rule: over threshold in absolute terms AND clearly worse
    // than the pooled siblings (4x guards against fleet-wide loss being
    // re-reported once per member).
    if (s.lost >= kMinLostPerWindow &&
        loss >= kLossRateThreshold && loss >= 4.0 * rest_loss) {
      events.push_back(AnomalyEvent{cold.pair, at, AnomalyKind::kPacketLoss,
                                    loss, s.key - 1});
      s = PathSlot{s.key, 0, 0, 0.0f};  // re-arm: keep the member, drop
                                        // the consumed evidence
      continue;
    }
    // Member latency rule: mean RTT relatively shifted against the pooled
    // siblings' mean (same kMinRelativeShift gate as the LOF gate).
    const std::uint32_t del = s.sent - s.lost;
    const std::uint64_t rest_del = rest_sent - rest_lost;
    if (del >= cfg_.min_samples_per_window &&
        rest_del >= cfg_.min_samples_per_window) {
      const double mean = static_cast<double>(s.rtt_sum) / del;
      const double rest_mean =
          (tot_rtt - static_cast<double>(s.rtt_sum)) /
          static_cast<double>(rest_del);
      if (rest_mean > 0.0 && mean / rest_mean - 1.0 >= kMinRelativeShift) {
        events.push_back(AnomalyEvent{cold.pair, at,
                                      AnomalyKind::kLatencyShortTerm,
                                      mean / rest_mean, s.key - 1});
        s = PathSlot{s.key, 0, 0, 0.0f};
      }
    }
  }
}

std::span<const double> AnomalyDetector::window_sorted(PairHandle h) {
  PairHot& hot = hot_[h];
  double* strip = samples_.data() + static_cast<std::size_t>(h) * kStride;
  if (hot.short_count <= kStride) {
    // The common case: the whole window fits its strip; sort in place,
    // no copies, no allocation, branchlessly (a strip holds at most 8
    // samples by default). Same multiset as the arrival-order accumulator
    // it replaced, so summaries are bit-identical.
    sort_small(strip, hot.short_count);
    return {strip, hot.short_count};
  }
  const auto& spill = cold_[h].spill;
  sort_scratch_.assign(strip, strip + kStride);
  sort_scratch_.insert(sort_scratch_.end(), spill.begin(), spill.end());
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  return {sort_scratch_.data(), sort_scratch_.size()};
}

void AnomalyDetector::close_short_window(PairHandle h, SimTime at,
                                         std::vector<AnomalyEvent>& events) {
  PairHot& hot = hot_[h];
  PairCold& cold = cold_[h];
  const SimTime w_start = hot.short_start;
  // At fleet scale a close misses on every line it touches, serially:
  // nothing keeps 10k+ pairs' cold state cached between 30 s window
  // boundaries. Every address below is computable from the hot line
  // alone, so start the fetches now and let the strip sort and summary
  // (which need none of them) overlap them.
  const auto* cold_bytes = reinterpret_cast<const unsigned char*>(&cold);
  for (std::size_t off = 0; off < sizeof(PairCold); off += 64) {
    __builtin_prefetch(cold_bytes + off, 1);
  }
  // The look-back lines a close touches: the sorted medians, the slot the
  // push writes, and the head slot's median an eviction reads. Each range
  // spans at most two lines, so its first and last double cover it.
  double* const pts =
      lookback_.data() + static_cast<std::size_t>(h) * lookback_stride_;
  double* const p50s = pts + lof_.slots() * kFeatureDim;
  ml::LofRing& ring = hot.lookback;
  const double* const push_at =
      pts + lof_.slot(ring, ring.size) * kFeatureDim;
  __builtin_prefetch(p50s, 1);
  __builtin_prefetch(p50s + lof_.slots() - 1, 1);
  __builtin_prefetch(push_at, 1);
  __builtin_prefetch(push_at + kFeatureDim - 1, 1);
  __builtin_prefetch(pts + lof_.slot(ring, 0) * kFeatureDim + kFeatureP50);
  ++counters_.short_windows_closed;
  if (cfg_.window_quorum > 0 && hot.short_sent < cfg_.window_quorum) {
    // Below quorum the window is kInsufficient: no verdict of any kind,
    // and its samples never reach the long-term accumulators either — a
    // response-dropping measurement plane starves the detector instead of
    // feeding it windows whose statistics are noise.
    ++counters_.windows_insufficient;
    log_window(cold.pair, w_start, at, hot.short_sent, hot.short_lost, 0.0f,
               0.0f, obs::kWindowInsufficient);
    hot.short_open = false;
    hot.short_count = 0;
    cold.spill.clear();
    hot.short_sent = 0;
    hot.short_lost = 0;
    return;
  }
  // Sorted once, shared by the feature summary and the long-term fold.
  // Empty (and cheap) when nothing was delivered.
  const std::span<const double> sorted = window_sorted(h);
  std::uint32_t log_flags = 0;
  float log_p50 = 0.0f;
  float log_score = 0.0f;
  if (hot.short_sent >= cfg_.min_samples_per_window) {
    const double loss_rate = static_cast<double>(hot.short_lost) /
                             static_cast<double>(hot.short_sent);
    if (loss_rate >= kLossRateThreshold &&
        hot.short_lost >= kMinLostPerWindow) {
      events.push_back(
          AnomalyEvent{cold.pair, at, AnomalyKind::kPacketLoss, loss_rate});
      log_flags |= obs::kWindowLossFired;
    }
    if (sorted.size() >= cfg_.min_samples_per_window) {
      const WindowSummary summary =
          robust_summary(sorted, kRttClampIqrMult, kRttClampBandFrac);
      const std::array<double, kFeatureDim> feature{
          summary.p25,  summary.p50,    summary.p75, summary.min,
          summary.mean, summary.stddev, summary.max};
      log_p50 = static_cast<float>(summary.p50);
      // The sorted medians hold one entry per ring point — both are pushed
      // and evicted in lock-step below.
      std::size_t p50n = ring.size;
      const bool scoreable = p50n >= cfg_.lof.k_neighbors + 1;
      // Magnitude gate against the look-back median-of-medians; the
      // sorted medians make it O(1) instead of a copy + sort per close.
      // (Read before the push below so the new window's own median
      // cannot dilute its reference.)
      const double ref_median = scoreable ? p50s[p50n / 2] : 0.0;
      // Push first, then score the newest point in-ring: the batch
      // scorer (`ml::lof_score_of`) appends its query to the reference
      // before scoring, so `last_score` is the same number without a
      // second distance pass.
      lof_.push(ring, pts, feature);
      if (scoreable) {
        // Only an upward shift is a failure symptom; a drop back toward
        // normal (e.g. recovery against a fault-contaminated look-back)
        // must not alarm. The event needs the shift gate AND the LOF
        // gate, so test the O(1) magnitude gate first: on the healthy
        // steady state (almost every close) it fails and the scoring
        // pass is skipped outright — the look-back stays current either
        // way, because the push above and the eviction below run
        // regardless.
        const double shift =
            ref_median > 0.0 ? (summary.p50 - ref_median) / ref_median : 0.0;
        if (shift >= kMinRelativeShift) {
          const double score = lof_.last_score(ring, pts);
          ++counters_.lof_fast_path;
          counters_.lof_kdist_rebuilds += ring.size;
          log_score = static_cast<float>(score);
          log_flags |= obs::kWindowScored;
          if (score > cfg_.lof.outlier_threshold) {
            events.push_back(AnomalyEvent{cold.pair, at,
                                          AnomalyKind::kLatencyShortTerm,
                                          score});
            log_flags |= obs::kWindowLofFired;
          }
        } else {
          ++counters_.lof_gate_skips;
        }
      }
      double* const ins = std::upper_bound(p50s, p50s + p50n, summary.p50);
      std::copy_backward(ins, p50s + p50n, p50s + p50n + 1);
      *ins = summary.p50;
      ++p50n;
      if (ring.size > cfg_.lookback_windows) {
        // The evicted window's median is its ring point's p50 coordinate.
        const double evicted =
            pts[lof_.slot(ring, 0) * kFeatureDim + kFeatureP50];
        lof_.pop_front(ring);
        double* const del = std::lower_bound(p50s, p50s + p50n, evicted);
        std::copy(del + 1, p50s + p50n, del);
      }
    }
  }
  // Fold this window's delivered samples into the long-window accumulators
  // exactly once, at close. Sorted rather than arrival order: Welford
  // moments differ only in FP rounding.
  cold.long_seen += sorted.size();
  for (const double v : sorted) {
    if (v > 0.0) cold.long_log.add(std::log(v));
  }
  // Per-path differential pass piggybacks on the close cadence: the slots
  // accumulate across windows, so this is when enough members have enough
  // evidence to compare.
  if (cfg_.track_paths) evaluate_paths(h, at, events);
  log_window(cold.pair, w_start, at, hot.short_sent, hot.short_lost, log_p50,
             log_score, log_flags);
  hot.short_open = false;
  hot.short_count = 0;
  cold.spill.clear();
  hot.short_sent = 0;
  hot.short_lost = 0;
}

void AnomalyDetector::close_long_window(PairHandle h, SimTime at,
                                        std::vector<AnomalyEvent>& events) {
  PairHot& hot = hot_[h];
  PairCold& cold = cold_[h];
  ++counters_.long_windows_closed;
  const std::size_t n = cold.long_seen;
  std::uint32_t log_flags = obs::kWindowLong;
  float log_score = 0.0f;
  if (n >= cfg_.min_samples_per_window) {
    if (!cold.baseline) {
      // First complete window: fit the log-normal baseline (time T of
      // Figure 14).
      cold.baseline = ml::fit_lognormal(cold.long_log);
    } else {
      const auto result =
          ml::z_test(*cold.baseline, cold.long_log, kZAlpha);
      const auto window_fit = ml::fit_lognormal(cold.long_log);
      // Signed: only degradation (upward drift) is a failure; the recovery
      // window after a fault shifts downward and must not re-alarm.
      const double shift = std::exp(window_fit.mu - cold.baseline->mu) - 1.0;
      log_score = static_cast<float>(std::abs(result.z));
      log_flags |= obs::kWindowScored;
      if (result.reject && shift >= kLongTermMinShift) {
        events.push_back(AnomalyEvent{cold.pair, at,
                                      AnomalyKind::kLatencyLongTerm,
                                      std::abs(result.z)});
        log_flags |= obs::kWindowZFired;
      }
      // Always re-baseline on the freshest window: a pass tracks legitimate
      // slow change, and after an alarm the detector must adopt the new
      // regime instead of re-alarming every 30 minutes against a stale (or
      // fault-contaminated) fit. Continued drift still re-alarms because
      // each window shifts against its predecessor.
      cold.baseline = window_fit;
    }
  }
  log_window(cold.pair, hot.long_start, at,
             static_cast<std::uint32_t>(
                 std::min<std::size_t>(n, UINT32_MAX)),
             0, 0.0f, log_score, log_flags);
  hot.long_open = false;
  cold.long_log = RunningStats{};
  cold.long_seen = 0;
}

std::vector<AnomalyEvent> AnomalyDetector::flush(SimTime now) {
  std::vector<AnomalyEvent> events;
  for (std::size_t h = 0; h < hot_.size(); ++h) {
    PairHot& hot = hot_[h];
    // A still-open window is only judged when it actually reached its span:
    // a few-second partial window must not fire (say) a 30-minute Z-test.
    if (hot.short_open && now - hot.short_start >= cfg_.short_window) {
      close_short_window(static_cast<PairHandle>(h),
                         hot.short_start + cfg_.short_window, events);
    }
    if (hot.long_open && now - hot.long_start >= cfg_.long_window) {
      close_long_window(static_cast<PairHandle>(h),
                        hot.long_start + cfg_.long_window, events);
    }
  }
  counters_.events_emitted += events.size();
  return events;
}

AnomalyDetector::Snapshot AnomalyDetector::snapshot() const {
  Snapshot s;
  s.hot_ = hot_;
  s.cold_ = cold_;
  s.samples_ = samples_;
  s.lookback_ = lookback_;
  s.paths_ = paths_;
  return s;
}

void AnomalyDetector::restore(const Snapshot& snap) {
  hot_ = snap.hot_;
  cold_ = snap.cold_;
  samples_ = snap.samples_;
  lookback_ = snap.lookback_;
  paths_ = snap.paths_;
}

}  // namespace skh::core
