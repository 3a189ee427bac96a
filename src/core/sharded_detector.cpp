#include "core/sharded_detector.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace skh::core {
namespace {

// Canonical window-log order, same rationale as canonicalize_events:
// (end, start, pair, flags) is a total order over a drain — a pair closes
// at most one window of each kind per boundary — so any shard count yields
// the same sequence. A lambda, so std::sort and std::is_sorted inline it.
constexpr auto window_before = [](const obs::WindowRecord& a,
                                  const obs::WindowRecord& b) {
  if (a.end != b.end) return a.end < b.end;
  if (a.start != b.start) return a.start < b.start;
  if (a.pair != b.pair) return a.pair < b.pair;
  // A flush can close a pair's short and long window at the same boundary
  // with the same start; the long flag breaks the tie.
  return a.flags < b.flags;
};

/// The published DetectorCounters fields and their series names.
constexpr std::pair<const char*, std::uint64_t DetectorCounters::*>
    kPublishedSeries[] = {
        {"detector.probes_ingested", &DetectorCounters::probes_ingested},
        {"detector.samples_delivered", &DetectorCounters::samples_delivered},
        {"detector.short_windows_closed",
         &DetectorCounters::short_windows_closed},
        {"detector.long_windows_closed",
         &DetectorCounters::long_windows_closed},
        {"detector.lof_gate_skips", &DetectorCounters::lof_gate_skips},
        {"detector.events_emitted", &DetectorCounters::events_emitted},
        {"detector.windows_insufficient",
         &DetectorCounters::windows_insufficient},
        {"detector.duplicates_rejected",
         &DetectorCounters::duplicates_rejected},
        {"detector.stale_rejected", &DetectorCounters::stale_rejected},
};

}  // namespace

ShardedDetector::ShardedDetector(DetectorConfig cfg, std::size_t n_shards,
                                 common::ThreadPool* pool)
    : cfg_(cfg),
      pool_(pool),
      router_(common::FlatTableConfig{.capacity = cfg.expected_pairs}) {
  static_assert(std::size(kPublishedSeries) == kPublished);
  const std::size_t n = std::max<std::size_t>(1, n_shards);
  // Ids split evenly (`id % n`), so each shard plans for its share.
  DetectorConfig shard_cfg = cfg;
  shard_cfg.expected_pairs = (cfg.expected_pairs + n - 1) / n;
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<AnomalyDetector>(shard_cfg));
  }
  batch_items_.resize(n);
  batch_events_.resize(n);
  batch_fired_.resize(n);
  cursor_.resize(n);
  runs_.reserve(n);
  m_pairs_owned_.resize(n);
  m_items_routed_.resize(n);
}

void ShardedDetector::attach_obs(obs::Context* ctx) {
  obs_ = ctx;
  // Window logging follows the metrics posture: each shard appends its
  // closed windows to its own bounded log (no shared state, pool-safe) and
  // the hunter drains through drain_window_log.
  for (auto& shard : shards_) shard->set_window_logging(ctx != nullptr);
  m_detector_ = {};
  m_pairs_owned_.assign(shards_.size(), {});
  m_items_routed_.assign(shards_.size(), {});
  m_merge_stall_ = {};
  if (ctx == nullptr) return;
  auto& r = ctx->registry;
  for (std::size_t i = 0; i < kPublished; ++i) {
    m_detector_[i] = r.bind_counter(r.counter_id(kPublishedSeries[i].first));
  }
  char name[64];
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::snprintf(name, sizeof name, "detector.shard%zu.pairs_owned", s);
    m_pairs_owned_[s] = r.bind_gauge(r.gauge_id(name));
    std::snprintf(name, sizeof name, "detector.shard%zu.items_routed", s);
    m_items_routed_[s] = r.bind_counter(r.counter_id(name));
  }
  m_merge_stall_ =
      r.bind_counter(r.counter_id("detector.shard.merge_stall_items"));
  published_ = counters();
}

void ShardedDetector::publish() {
  if (obs_ == nullptr) return;
  const DetectorCounters cur = counters();
  for (std::size_t i = 0; i < kPublished; ++i) {
    const auto field = kPublishedSeries[i].second;
    m_detector_[i].add(cur.*field - published_.*field);
  }
  published_ = cur;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    m_pairs_owned_[s].set(static_cast<double>(shards_[s]->pair_count()));
  }
}

ShardedDetector::GlobalHandle ShardedDetector::handle_of(
    const EndpointPair& pair) {
  // Rounds list their pairs in the order of the round before, so the id
  // that followed the last one returned is usually the answer. A mapped id
  // whose pair matches is exactly what the router would return.
  if (last_ < next_of_.size()) {
    const GlobalHandle next = next_of_[last_];
    if (next < pair_of_.size() && pair_of_[next] == pair) return last_ = next;
  }
  const auto [gid, inserted] = router_.insert(pair);
  if (inserted) {
    // Ids are issued in order, so a new id is the next index of every
    // per-id array, and the shard it lands on appends it in slot
    // `gid / N`.
    (void)shards_[shard_of(gid)]->add_pair(pair);
    pair_of_.push_back(pair);
    next_of_.push_back(common::FlatPairTable::kNoSlot);
  }
  if (last_ < next_of_.size()) next_of_[last_] = gid;
  return last_ = gid;
}

void ShardedDetector::reserve_pairs(std::size_t pairs) {
  router_.reserve(pairs);
  if (pairs > pair_of_.capacity()) {
    pair_of_.reserve(pairs);
    next_of_.reserve(pairs);
  }
  const std::size_t n = shards_.size();
  for (auto& shard : shards_) shard->reserve_pairs((pairs + n - 1) / n);
}

std::size_t ShardedDetector::ingest_batch(
    std::span<const BatchItem> items, std::vector<AnomalyEvent>& events,
    std::vector<std::uint32_t>& fired_per_item) {
  events.clear();
  fired_per_item.assign(items.size(), 0);
  const std::size_t n = shards_.size();
  // Ids are 32-bit, so the placement arithmetic is too.
  const auto n32 = static_cast<std::uint32_t>(n);
  for (std::size_t s = 0; s < n; ++s) {
    batch_items_[s].clear();
    batch_events_[s].clear();
    batch_fired_[s].clear();
    cursor_[s] = 0;
  }
  // Partition by owning shard (`handle % N`), preserving round order
  // within each shard — same-pair results share a shard, so per-pair
  // ingest order (the only order verdicts depend on) is exactly the
  // sequential one.
  for (std::size_t i = 0; i < items.size(); ++i) {
    batch_items_[items[i].handle % n32].push_back(i);
  }
  // Load/skew accounting: items routed per shard, and how many item-slots
  // the merge barrier wasted waiting for the most-loaded shard this batch.
  std::size_t max_items = 0;
  for (std::size_t s = 0; s < n; ++s) {
    m_items_routed_[s].add(batch_items_[s].size());
    max_items = std::max(max_items, batch_items_[s].size());
  }
  m_merge_stall_.add(max_items * n - items.size());
  const auto run_shard = [this, items, n32](std::size_t s) {
    AnomalyDetector& det = *shards_[s];
    auto& fired = batch_fired_[s];
    auto& out = batch_events_[s];
    for (const std::size_t i : batch_items_[s]) {
      const BatchItem& it = items[i];
      const auto first = static_cast<std::uint32_t>(out.size());
      const auto count = static_cast<std::uint32_t>(
          det.ingest(it.handle / n32, it.obs, out));
      if (count > 0) fired.push_back(Fired{i, first, count});
    }
  };
  for (std::size_t s = 0; s < n; ++s) {
    if (batch_items_[s].empty()) continue;
    if (pool_ != nullptr) {
      pool_->submit([&run_shard, s] { run_shard(s); });
    } else {
      run_shard(s);
    }
  }
  if (pool_ != nullptr) pool_->wait();
  // Merge by original item index: each shard's fired items are in round
  // order, so a k-way merge of them interleaves the shard streams back into
  // the exact event sequence sequential ingest would have produced.
  for (;;) {
    std::size_t best = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (cursor_[s] == batch_fired_[s].size()) continue;
      if (best == n || batch_fired_[s][cursor_[s]].item <
                           batch_fired_[best][cursor_[best]].item) {
        best = s;
      }
    }
    if (best == n) break;
    const Fired& f = batch_fired_[best][cursor_[best]++];
    const auto begin = batch_events_[best].begin() + f.first;
    events.insert(events.end(), begin, begin + f.count);
    fired_per_item[f.item] = f.count;
  }
  publish();
  return events.size();
}

void ShardedDetector::drain_window_log(std::vector<obs::WindowRecord>& out) {
  // A shard logs in close order, which is already canonical when its
  // rounds listed their pairs in canonical order and closed one kind of
  // window; otherwise sort that shard's log in place.
  runs_.clear();
  for (auto& shard : shards_) {
    const auto log = shard->window_log();
    if (!std::is_sorted(log.begin(), log.end(), window_before)) {
      std::sort(log.begin(), log.end(), window_before);
    }
    if (!log.empty()) runs_.push_back({log.data(), log.data() + log.size()});
  }
  // K-way merge of the sorted logs straight into `out`, through a binary
  // heap of run heads with the earliest on top. The comparator is a total
  // order, so this is the sequence a sort of the union yields.
  const auto later = [](const Run& a, const Run& b) {
    return window_before(*b.head, *a.head);
  };
  std::make_heap(runs_.begin(), runs_.end(), later);
  while (runs_.size() > 1) {
    Run& top = runs_.front();
    out.push_back(*top.head++);
    if (top.head == top.end) {
      top = runs_.back();
      runs_.pop_back();
    }
    // Sift the new top down to its place.
    for (std::size_t i = 0, c = 1; c < runs_.size(); i = c, c = 2 * i + 1) {
      if (c + 1 < runs_.size() && later(runs_[c], runs_[c + 1])) ++c;
      if (!later(runs_[i], runs_[c])) break;
      std::swap(runs_[i], runs_[c]);
    }
  }
  if (!runs_.empty()) out.insert(out.end(), runs_[0].head, runs_[0].end);
  for (auto& shard : shards_) shard->clear_window_log();
}

std::uint64_t ShardedDetector::window_log_drops() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->window_log_drops();
  return n;
}

std::vector<AnomalyEvent> ShardedDetector::flush(SimTime now) {
  std::vector<AnomalyEvent> events;
  for (auto& shard : shards_) {
    const auto tail = shard->flush(now);
    events.insert(events.end(), tail.begin(), tail.end());
  }
  canonicalize_events(events);
  publish();
  return events;
}

DetectorCounters ShardedDetector::counters() const {
  DetectorCounters total;
  for (const auto& shard : shards_) total += shard->counters();
  return total;
}

ShardedDetector::Snapshot ShardedDetector::snapshot() const {
  Snapshot s;
  s.shards_.reserve(shards_.size());
  for (const auto& shard : shards_) s.shards_.push_back(shard->snapshot());
  s.router_ = router_;
  s.pair_of_ = pair_of_;
  return s;
}

void ShardedDetector::restore(const Snapshot& snap) {
  if (snap.shards_.size() != shards_.size()) {
    throw std::logic_error(
        "ShardedDetector::restore: shard count mismatch (shard count is "
        "config, not state)");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->restore(snap.shards_[s]);
  }
  router_ = snap.router_;
  pair_of_ = snap.pair_of_;
  // The routing hints survive as they are: handle_of checks every guess
  // against the restored router/pair_of_ pair.
  next_of_.resize(pair_of_.size(), common::FlatPairTable::kNoSlot);
}

}  // namespace skh::core
