#include "core/sharded_detector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "common/pool.h"
#include "common/rng.h"

namespace skh::core {
namespace {

EndpointPair pair_n(std::uint32_t i) {
  return {{ContainerId{2 * i}, RnicId{16 * i}},
          {ContainerId{2 * i + 1}, RnicId{16 * i + 8}}};
}

/// Comparable projection of an event (AnomalyEvent has no operator==).
using EventKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t, std::int64_t, int, double>;

EventKey key_of(const AnomalyEvent& e) {
  return {e.pair.src.container.value(), e.pair.src.rnic.value(),
          e.pair.dst.container.value(), e.pair.dst.rnic.value(),
          e.detected_at.raw_nanos(),    static_cast<int>(e.kind),
          e.score};
}

std::vector<EventKey> keys_of(const std::vector<AnomalyEvent>& events) {
  std::vector<EventKey> out;
  out.reserve(events.size());
  for (const auto& e : events) out.push_back(key_of(e));
  return out;
}

/// One probe observation of the synthetic campaign: `n_pairs` pairs probed
/// once per second for `seconds`, with pair i%7==0 suffering a loss burst
/// and pair i%5==0 a latency regime shift mid-run — enough to exercise all
/// four anomaly rules.
struct Obs {
  std::uint32_t pair;
  std::uint64_t seq;
  double t;
  bool delivered;
  double rtt;

  [[nodiscard]] Observation observation() const {
    return {seq, SimTime::seconds(t), delivered, rtt};
  }
};

std::vector<Obs> synthetic_campaign(std::uint32_t n_pairs, double seconds) {
  RngStream rng{0xC0FFEE};
  std::vector<Obs> obs;
  obs.reserve(static_cast<std::size_t>(seconds) * n_pairs);
  std::uint64_t seq = 0;
  for (double t = 0.0; t < seconds; t += 1.0) {
    for (std::uint32_t i = 0; i < n_pairs; ++i) {
      ++seq;
      const bool lossy =
          (i % 7 == 0) && t >= seconds * 0.4 && t < seconds * 0.55;
      const bool shifted = (i % 5 == 0) && t >= seconds * 0.7;
      const bool delivered = !(lossy && rng.uniform() < 0.6);
      const double rtt =
          (shifted ? 28.0 : 16.0) * std::exp(rng.normal(0.0, 0.05));
      obs.push_back(Obs{i, seq, t, delivered, rtt});
    }
  }
  return obs;
}

/// Replay the campaign through a sharded detector round by round (one
/// batch per second, as the hunter ticks), returning every ingest event in
/// emission order followed by the canonical flush tail.
std::vector<AnomalyEvent> replay(ShardedDetector& det,
                                 const std::vector<Obs>& obs,
                                 std::uint32_t n_pairs, double seconds) {
  std::vector<AnomalyEvent> all;
  std::vector<ShardedDetector::BatchItem> batch;
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  det.reserve_pairs(n_pairs);
  std::size_t next = 0;
  for (double t = 0.0; t < seconds; t += 1.0) {
    batch.clear();
    while (next < obs.size() && obs[next].t <= t) {
      const Obs& o = obs[next++];
      batch.push_back(ShardedDetector::BatchItem{det.handle_of(pair_n(o.pair)),
                                                 o.observation()});
    }
    det.ingest_batch(batch, events, fired);
    all.insert(all.end(), events.begin(), events.end());
  }
  const auto tail = det.flush(SimTime::seconds(seconds));
  all.insert(all.end(), tail.begin(), tail.end());
  return all;
}

TEST(ShardRing, DeterministicAndCovering) {
  const ShardRing a(4), b(4);
  std::set<std::size_t> hit;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::size_t s = a.shard_of(key);
    EXPECT_EQ(s, b.shard_of(key));  // pure function of (key, shard count)
    ASSERT_LT(s, 4u);
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u);  // vnodes spread keys over every shard
  const ShardRing one(1);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(one.shard_of(key), 0u);
  }
}

// The tentpole invariant: the verdict stream is bit-identical at 1, 4, and
// 16 shards, and identical to a plain single AnomalyDetector ingesting the
// same observations sequentially (modulo the canonical flush-tail order,
// which the sharded facade pins for all shard counts).
TEST(ShardedDetector, EventStreamInvariantAcrossShardCounts) {
  constexpr std::uint32_t kPairs = 96;
  constexpr double kSeconds = 400.0;
  const auto obs = synthetic_campaign(kPairs, kSeconds);

  // Reference: plain detector, sequential, canonicalized flush tail.
  AnomalyDetector ref;
  std::vector<AnomalyEvent> ref_events;
  for (const Obs& o : obs) {
    (void)ref.ingest(ref.handle_of(pair_n(o.pair)), o.observation(),
                     ref_events);
  }
  auto ref_tail = ref.flush(SimTime::seconds(kSeconds));
  canonicalize_events(ref_tail);
  ref_events.insert(ref_events.end(), ref_tail.begin(), ref_tail.end());
  const auto want = keys_of(ref_events);
  ASSERT_FALSE(want.empty()) << "synthetic campaign fired no anomalies";

  // With a pool the shard jobs run concurrently; without one they run
  // inline, through the same partition and merge.
  common::ThreadPool pool(4);
  common::ThreadPool* const pools[] = {&pool, nullptr};
  for (common::ThreadPool* p : pools) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
      ShardedDetector det({}, shards, p);
      const auto events = replay(det, obs, kPairs, kSeconds);
      EXPECT_EQ(keys_of(events), want)
          << "at " << shards << " shards, pool " << (p != nullptr);
    }
  }
}

// Rebalance mid-campaign: moving half the pair-id space onto one shard
// must not perturb a single verdict, and the summed counters must carry
// over with the moved state.
TEST(ShardedDetector, MigrationPreservesVerdictsAndCounters) {
  constexpr std::uint32_t kPairs = 64;
  constexpr double kSeconds = 400.0;
  const auto obs = synthetic_campaign(kPairs, kSeconds);
  common::ThreadPool pool(4);

  ShardedDetector plain({}, 4, &pool);
  const auto want = keys_of(replay(plain, obs, kPairs, kSeconds));
  const auto want_counters = plain.counters();

  ShardedDetector det({}, 4, &pool);
  std::vector<AnomalyEvent> all;
  std::vector<ShardedDetector::BatchItem> batch;
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  det.reserve_pairs(kPairs);
  std::size_t next = 0;
  bool migrated = false;
  for (double t = 0.0; t < kSeconds; t += 1.0) {
    if (!migrated && t >= kSeconds / 2) {
      // Drain half the id space onto shard 3 (a failover/rebalance).
      EXPECT_GT(det.migrate_range(0, kPairs / 2, 3), 0u);
      for (std::uint32_t gid = 0; gid < kPairs / 2; ++gid) {
        EXPECT_EQ(det.shard_of(gid), 3u);
      }
      migrated = true;
    }
    batch.clear();
    while (next < obs.size() && obs[next].t <= t) {
      const Obs& o = obs[next++];
      batch.push_back(ShardedDetector::BatchItem{det.handle_of(pair_n(o.pair)),
                                                 o.observation()});
    }
    det.ingest_batch(batch, events, fired);
    all.insert(all.end(), events.begin(), events.end());
  }
  const auto tail = det.flush(SimTime::seconds(kSeconds));
  all.insert(all.end(), tail.begin(), tail.end());
  EXPECT_EQ(keys_of(all), want);

  const auto got = det.counters();
  EXPECT_EQ(got.probes_ingested, want_counters.probes_ingested);
  EXPECT_EQ(got.samples_delivered, want_counters.samples_delivered);
  EXPECT_EQ(got.short_windows_closed, want_counters.short_windows_closed);
  EXPECT_EQ(got.long_windows_closed, want_counters.long_windows_closed);
  EXPECT_EQ(got.events_emitted, want_counters.events_emitted);
  // The LOF path counters live inside the per-pair models and must have
  // travelled with them.
  EXPECT_EQ(got.lof_fast_path + got.lof_fallback,
            want_counters.lof_fast_path + want_counters.lof_fallback);
}

// Snapshot/restore across shards: resuming from a mid-campaign checkpoint
// replays the identical remainder (the PR-5 contract, now sharded).
TEST(ShardedDetector, SnapshotRestoreResumesBitIdentically) {
  constexpr std::uint32_t kPairs = 48;
  constexpr double kSeconds = 300.0;
  const double kCut = 150.0;
  const auto obs = synthetic_campaign(kPairs, kSeconds);
  common::ThreadPool pool(4);

  ShardedDetector det({}, 4, &pool);
  det.reserve_pairs(kPairs);
  std::vector<ShardedDetector::BatchItem> batch;
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  std::size_t next = 0;
  for (double t = 0.0; t < kCut; t += 1.0) {
    batch.clear();
    while (next < obs.size() && obs[next].t <= t) {
      const Obs& o = obs[next++];
      batch.push_back(ShardedDetector::BatchItem{det.handle_of(pair_n(o.pair)),
                                                 o.observation()});
    }
    det.ingest_batch(batch, events, fired);
  }
  const auto snap = det.snapshot();
  const std::size_t mark = next;

  const auto run_tail = [&](ShardedDetector& d, std::size_t from) {
    std::vector<AnomalyEvent> all;
    std::size_t cursor = from;
    for (double t = kCut; t < kSeconds; t += 1.0) {
      batch.clear();
      while (cursor < obs.size() && obs[cursor].t <= t) {
        const Obs& o = obs[cursor++];
        batch.push_back(ShardedDetector::BatchItem{d.handle_of(pair_n(o.pair)),
                                                   o.observation()});
      }
      d.ingest_batch(batch, events, fired);
      all.insert(all.end(), events.begin(), events.end());
    }
    const auto tail = d.flush(SimTime::seconds(kSeconds));
    all.insert(all.end(), tail.begin(), tail.end());
    return all;
  };

  const auto first = run_tail(det, mark);
  det.restore(snap);
  const auto second = run_tail(det, mark);
  EXPECT_EQ(keys_of(first), keys_of(second));
  ASSERT_FALSE(first.empty());

  ShardedDetector wrong({}, 2, &pool);
  EXPECT_THROW(wrong.restore(snap), std::logic_error);
}

TEST(ShardedDetector, RetireAndFlushRecycleGlobalIds) {
  common::ThreadPool pool(2);
  ShardedDetector det({}, 4, &pool);
  std::vector<ShardedDetector::BatchItem> batch;
  for (std::uint32_t i = 0; i < 8; ++i) {
    batch.push_back({det.handle_of(pair_n(i)),
                     {1 + i, SimTime::seconds(0), true, 16.0}});
  }
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  det.ingest_batch(batch, events, fired);
  EXPECT_EQ(det.pair_count(), 8u);
  det.retire_pair(pair_n(3));
  det.retire_pair(pair_n(5));
  EXPECT_EQ(det.retired_count(), 2u);
  (void)det.flush(SimTime::seconds(120));
  EXPECT_EQ(det.pair_count(), 6u);
  EXPECT_EQ(det.pair_table().find(pair_n(3)), common::FlatPairTable::kNoSlot);
  EXPECT_EQ(det.retired_count(), 0u);
  // Recycled global ids are reissued to newly discovered pairs.
  const auto gid = det.handle_of(pair_n(100));
  EXPECT_LT(gid, 8u);
  EXPECT_EQ(det.pair_count(), 7u);
}

// for_each_pair iterates the router, so retirement sweeps (the hunter's
// churn path) see the same pair order at any shard count.
TEST(ShardedDetector, ForEachPairOrderIsShardCountInvariant) {
  std::vector<std::uint32_t> order1, order4;
  for (auto* order : {&order1, &order4}) {
    ShardedDetector det({}, order == &order1 ? 1 : 4);
    for (std::uint32_t i = 0; i < 32; ++i) (void)det.handle_of(pair_n(i));
    det.for_each_pair([order](const EndpointPair& p) {
      order->push_back(p.src.container.value());
    });
  }
  EXPECT_EQ(order1, order4);
}

}  // namespace
}  // namespace skh::core
