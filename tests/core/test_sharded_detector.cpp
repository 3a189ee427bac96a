#include "core/sharded_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "common/rng.h"
#include "obs/context.h"

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

/// The order a probe round lists its pairs in.
enum class RoundOrder { kCanonical, kReversed, kShuffled };

/// Reorder one round's observations (pair-ascending, as generated) in
/// place; a shuffled round draws its own permutation from `round_no`.
void reorder(std::vector<Obs>& round, RoundOrder order,
             std::uint64_t round_no) {
  if (order == RoundOrder::kReversed) {
    std::reverse(round.begin(), round.end());
  } else if (order == RoundOrder::kShuffled) {
    RngStream rng{seed_mix(round_no, 0x53485546)};
    std::shuffle(round.begin(), round.end(), rng.engine());
  }
}

/// Comparable projection of a closed-window record (WindowRecord has no
/// operator==), every field included.
using WindowKey = std::tuple<std::int64_t, std::int64_t, EndpointPair,
                             std::uint32_t, std::uint32_t, std::uint32_t,
                             float, float>;

WindowKey key_of(const obs::WindowRecord& w) {
  return {w.end.raw_nanos(), w.start.raw_nanos(), w.pair, w.flags,
          w.sent,            w.lost,              w.p50_us, w.score};
}

/// The drain contract's order, stated independently of the facade:
/// (end, start, pair, flags).
bool canonical_before(const obs::WindowRecord& a, const obs::WindowRecord& b) {
  return std::tuple{a.end, a.start, a.pair, a.flags} <
         std::tuple{b.end, b.start, b.pair, b.flags};
}

// Placement: a new id lands on shard id % N, so fresh ids split as evenly
// as they can at any shard count, and a migrated id stays where it was
// moved — through a flush and through a restore of a snapshot taken after
// the move.
TEST(ShardedDetector, FreshIdsSplitEvenlyAndMigratedIdsKeepTheirShard) {
  constexpr std::uint32_t kPairs = 1001;
  for (const std::size_t shards : {1u, 2u, 4u, 16u}) {
    ShardedDetector det({}, shards);
    std::vector<std::size_t> owned(shards, 0);
    for (std::uint32_t i = 0; i < kPairs; ++i) {
      const auto gid = det.handle_of(pair_n(i));
      ASSERT_LT(det.shard_of(gid), shards);
      ++owned[det.shard_of(gid)];
    }
    for (const std::size_t n : owned) {
      EXPECT_GE(n, kPairs / shards) << shards << " shards";
      EXPECT_LE(n, (kPairs + shards - 1) / shards) << shards << " shards";
    }

    const std::size_t to = shards - 1;
    (void)det.migrate_range(0, 40, to);
    const auto snap = det.snapshot();
    const auto on_target = [&det, to] {
      for (ShardedDetector::GlobalHandle gid = 0; gid < 40; ++gid) {
        if (det.shard_of(gid) != to) return false;
      }
      return true;
    };
    EXPECT_TRUE(on_target()) << shards << " shards";
    (void)det.flush(SimTime::seconds(1));
    EXPECT_TRUE(on_target()) << shards << " shards, after flush";
    det.restore(snap);
    EXPECT_TRUE(on_target()) << shards << " shards, after restore";
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
  std::vector<AnomalyDetector::PairHandle> slot(kPairs);
  for (std::uint32_t i = 0; i < kPairs; ++i) slot[i] = ref.add_pair(pair_n(i));
  std::vector<AnomalyEvent> ref_events;
  for (const Obs& o : obs) {
    (void)ref.ingest(slot[o.pair], o.observation(), ref_events);
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
  // The LOF scoring counts stay with the shard that scored each close, so
  // the summed totals cannot tell where a pair lived.
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

TEST(ShardedDetector, FlushKeepsEveryPairOnItsId) {
  common::ThreadPool pool(2);
  ShardedDetector det({}, 4, &pool);
  std::vector<ShardedDetector::BatchItem> batch;
  std::vector<ShardedDetector::GlobalHandle> gid;
  for (std::uint32_t i = 0; i < 8; ++i) {
    gid.push_back(det.handle_of(pair_n(i)));
    batch.push_back({gid.back(), {1 + i, SimTime::seconds(0), true, 16.0}});
  }
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  det.ingest_batch(batch, events, fired);
  (void)det.flush(SimTime::seconds(120));
  EXPECT_EQ(det.pair_count(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(det.find_handle(pair_n(i)), gid[i]) << "pair " << i;
    EXPECT_EQ(det.handle_of(pair_n(i)), gid[i]) << "pair " << i;
  }
  // A newly discovered pair takes the next id; none is reused.
  EXPECT_EQ(det.handle_of(pair_n(100)), 8u);
  EXPECT_EQ(det.pair_count(), 9u);
}

// The window-log drain is one canonical sequence whatever produced it:
// every drain equals a sort of the same records, and the drained stream is
// the same at 1, 4 and 16 shards, pooled or inline, whether the rounds list
// their pairs in canonical order (each shard's log arrives sorted),
// reversed, or shuffled (each shard sorts its own log). Every fourth short
// close also closes the long window, and the flush tail is drained too.
TEST(ShardedDetector, WindowLogDrainIsCanonicalAtAnyShardCount) {
  constexpr std::uint32_t kPairs = 40;
  constexpr double kSeconds = 420.0;
  DetectorConfig cfg;
  cfg.long_window = SimTime::seconds(120);
  const auto obs = synthetic_campaign(kPairs, kSeconds);

  // Drains of one run, one entry per round plus the flush tail.
  const auto run = [&](std::size_t shards, common::ThreadPool* pool,
                       RoundOrder order) {
    obs::Context ctx;
    ShardedDetector det(cfg, shards, pool);
    det.attach_obs(&ctx);
    det.reserve_pairs(kPairs);
    std::vector<std::vector<WindowKey>> drains;
    std::vector<Obs> round;
    std::vector<ShardedDetector::BatchItem> batch;
    std::vector<AnomalyEvent> events;
    std::vector<std::uint32_t> fired;
    std::vector<obs::WindowRecord> records;
    const auto drain = [&] {
      records.clear();
      det.drain_window_log(records);
      auto sorted = records;
      std::sort(sorted.begin(), sorted.end(), canonical_before);
      std::vector<WindowKey> got, want;
      for (const auto& w : records) got.push_back(key_of(w));
      for (const auto& w : sorted) want.push_back(key_of(w));
      EXPECT_EQ(got, want) << "drain " << drains.size() << " at " << shards
                           << " shards, pool " << (pool != nullptr)
                           << ", order " << static_cast<int>(order);
      drains.push_back(std::move(got));
    };
    std::size_t next = 0;
    for (double t = 0.0; t < kSeconds; t += 1.0) {
      round.clear();
      while (next < obs.size() && obs[next].t <= t) {
        round.push_back(obs[next++]);
      }
      reorder(round, order, static_cast<std::uint64_t>(t));
      batch.clear();
      for (const Obs& o : round) {
        batch.push_back({det.handle_of(pair_n(o.pair)), o.observation()});
      }
      det.ingest_batch(batch, events, fired);
      drain();
    }
    // Flush late enough that the tail holds the last short window and the
    // last long one.
    (void)det.flush(SimTime::seconds(kSeconds + 60.0));
    drain();
    EXPECT_EQ(det.window_log_drops(), 0u);
    return drains;
  };

  const auto want = run(1, nullptr, RoundOrder::kCanonical);
  std::size_t records = 0, long_rounds = 0;
  for (const auto& d : want) {
    records += d.size();
    bool any_long = false, any_short = false;
    for (const auto& w : d) {
      const bool is_long = (std::get<3>(w) & obs::kWindowLong) != 0;
      any_long |= is_long;
      any_short |= !is_long;
    }
    long_rounds += any_long && any_short ? 1 : 0;
  }
  ASSERT_GT(records, 0u);
  EXPECT_GE(long_rounds, 3u) << "no round closed short and long windows";
  EXPECT_FALSE(want.back().empty()) << "the flush tail drained nothing";

  common::ThreadPool pool(4);
  common::ThreadPool* const pools[] = {&pool, nullptr};
  for (common::ThreadPool* p : pools) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                     std::size_t{16}}) {
      for (const RoundOrder order : {RoundOrder::kCanonical,
                                     RoundOrder::kReversed,
                                     RoundOrder::kShuffled}) {
        EXPECT_EQ(run(shards, p, order), want)
            << "at " << shards << " shards, pool " << (p != nullptr)
            << ", order " << static_cast<int>(order);
      }
    }
  }
}

// The detector.* series are published at the end of every batch and of
// the flush, on one path at every shard count: a scrape between rounds
// always equals counters(), round for round the same at 1 and 4 shards,
// and the per-shard items_routed series add up to the items ingested.
TEST(ShardedDetector, PublishesTheDetectorSeriesAfterEveryBatch) {
  constexpr std::uint32_t kPairs = 24;
  constexpr double kSeconds = 240.0;
  DetectorConfig cfg;
  cfg.long_window = SimTime::seconds(120);
  const auto obs = synthetic_campaign(kPairs, kSeconds);
  const std::pair<const char*, std::uint64_t DetectorCounters::*> series[] =
      {{"detector.probes_ingested", &DetectorCounters::probes_ingested},
       {"detector.samples_delivered", &DetectorCounters::samples_delivered},
       {"detector.short_windows_closed",
        &DetectorCounters::short_windows_closed},
       {"detector.long_windows_closed",
        &DetectorCounters::long_windows_closed},
       {"detector.lof_gate_skips", &DetectorCounters::lof_gate_skips},
       {"detector.events_emitted", &DetectorCounters::events_emitted}};

  common::ThreadPool pool(4);
  const auto run = [&](std::size_t shards) {
    obs::Context ctx;
    ShardedDetector det(cfg, shards, &pool);
    det.attach_obs(&ctx);
    det.reserve_pairs(kPairs);
    std::vector<std::vector<std::uint64_t>> scrapes;
    const auto check = [&] {
      const auto snap = ctx.registry.scrape();
      const DetectorCounters c = det.counters();
      std::vector<std::uint64_t> values;
      for (const auto& [name, field] : series) {
        EXPECT_EQ(snap.counter_or(name, ~0ull), c.*field)
            << name << " at " << shards << " shards, scrape "
            << scrapes.size();
        values.push_back(snap.counter_or(name));
      }
      std::uint64_t routed = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        routed += snap.counter_or(
            "detector.shard" + std::to_string(s) + ".items_routed");
      }
      EXPECT_EQ(routed, c.probes_ingested) << shards << " shards";
      scrapes.push_back(std::move(values));
    };
    std::vector<ShardedDetector::BatchItem> batch;
    std::vector<AnomalyEvent> events;
    std::vector<std::uint32_t> fired;
    std::size_t next = 0;
    for (double t = 0.0; t < kSeconds; t += 1.0) {
      batch.clear();
      while (next < obs.size() && obs[next].t <= t) {
        const Obs& o = obs[next++];
        batch.push_back({det.handle_of(pair_n(o.pair)), o.observation()});
      }
      det.ingest_batch(batch, events, fired);
      check();
    }
    (void)det.flush(SimTime::seconds(kSeconds + 60.0));
    check();
    return scrapes;
  };
  const auto one = run(1);
  ASSERT_GT(one.back()[2], 0u) << "no short window closed";
  ASSERT_GT(one.back()[3], 0u) << "no long window closed";
  EXPECT_EQ(run(4), one);
}

// Routing scenario for HandleOfMatchesRouterUnderAnyOrder, 1 s rounds.
constexpr std::size_t kMixInRound = 40;   ///< odd pairs < 32 first sighted
constexpr std::size_t kSnapRound = 90;    ///< snapshot taken
constexpr std::size_t kChurnRound = 120;    ///< pairs leave and join
constexpr std::size_t kMigrateRound = 150;  ///< migrate_range
constexpr std::size_t kRestoreRound = 170;  ///< back to the snapshot, once
constexpr std::size_t kRoutingRounds = 300;

/// The pairs probed in round t, in canonical (pair-ascending) order. Even
/// pairs below 64 run from the start and odd pairs below 32 join at
/// kMixInRound. At kChurnRound the pairs i % 16 == 10 are gone and pairs
/// 64..75 appear, taking fresh ids.
std::vector<std::uint32_t> routing_round(std::size_t t) {
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < 76; ++i) {
    const bool first_wave = i < 64 && i % 2 == 0;
    const bool mixed_in = i < 32 && i % 2 == 1 && t >= kMixInRound;
    const bool gone = i % 16 == 10 && t >= kChurnRound;
    const bool fresh = i >= 64 && t >= kChurnRound;
    if ((first_wave && !gone) || mixed_in || fresh) live.push_back(i);
  }
  return live;
}

/// Pair i's observation in round t: a pure function. Pairs i % 7 == 0 lose
/// probes for 20 rounds; pairs i % 5 == 0 shift their RTT late in the run.
Observation routing_obs(std::uint32_t i, std::size_t t) {
  const std::uint64_t h = seed_mix(std::uint64_t{i} * 7919 + t, 0x524F5554);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double v = static_cast<double>(seed_mix(h, 1) >> 11) * 0x1.0p-53;
  const bool lossy = i % 7 == 0 && t >= 100 && t < 120;
  const bool shifted = i % 5 == 0 && t >= 230;
  return {t + 1, SimTime::seconds(static_cast<std::int64_t>(t)),
          !(lossy && u < 0.6), (shifted ? 30.0 : 16.0) * (1.0 + 0.1 * v)};
}

// handle_of learns each round's pair order; whatever the rounds do to that
// order, every id it returns must be the router's id for the pair, and the
// per-pair verdicts must be those of an in-order run. The scenario breaks
// the learned order every way the hunter can: per-round shuffles, first
// sightings mixed into known pairs, pairs that stop being probed while
// fresh ones join, a restore to an older snapshot (learned successors name
// ids the restored router has not issued yet), and a migrate_range.
TEST(ShardedDetector, HandleOfMatchesRouterUnderAnyOrder) {
  DetectorConfig cfg;
  cfg.short_window = SimTime::seconds(10);
  cfg.long_window = SimTime::seconds(60);
  using Streams = std::map<EndpointPair, std::vector<EventKey>>;

  const auto run = [&](std::size_t shards, common::ThreadPool* pool,
                       bool shuffled) {
    ShardedDetector det(cfg, shards, pool);
    Streams streams, at_snap;
    ShardedDetector::Snapshot snap;
    std::vector<ShardedDetector::BatchItem> batch;
    std::vector<AnomalyEvent> events;
    std::vector<std::uint32_t> fired;
    std::size_t wrong = 0, calls = 0;
    bool restored = false;
    const auto record = [&streams](const std::vector<AnomalyEvent>& evs) {
      for (const auto& e : evs) streams[e.pair].push_back(key_of(e));
    };
    for (std::size_t t = 0; t < kRoutingRounds; ++t) {
      if (t == kSnapRound && !restored) {
        snap = det.snapshot();
        at_snap = streams;
      }
      if (t == kRestoreRound && !restored) {
        det.restore(snap);
        streams = at_snap;
        restored = true;
        t = kSnapRound - 1;
        continue;
      }
      if (t == kMigrateRound) {
        const std::size_t moved = det.migrate_range(0, 24, shards - 1);
        if (shards > 1) {
          EXPECT_GT(moved, 0u);
        }
      }
      auto live = routing_round(t);
      if (shuffled) {
        RngStream rng{seed_mix(t, 0x524F4C4C)};
        std::shuffle(live.begin(), live.end(), rng.engine());
      }
      batch.clear();
      for (const std::uint32_t i : live) {
        const auto gid = det.handle_of(pair_n(i));
        ++calls;
        if (gid != det.find_handle(pair_n(i))) ++wrong;
        batch.push_back({gid, routing_obs(i, t)});
      }
      det.ingest_batch(batch, events, fired);
      record(events);
    }
    record(det.flush(SimTime::seconds(kRoutingRounds)));
    EXPECT_EQ(wrong, 0u) << "of " << calls << " handle_of calls at " << shards
                         << " shards, shuffled " << shuffled;
    return streams;
  };

  const Streams want = run(1, nullptr, false);
  std::size_t events = 0;
  std::set<int> kinds;
  for (const auto& [pair, evs] : want) {
    events += evs.size();
    for (const auto& e : evs) kinds.insert(std::get<5>(e));
  }
  ASSERT_GT(events, 0u);
  EXPECT_TRUE(kinds.count(static_cast<int>(AnomalyKind::kPacketLoss)));
  EXPECT_TRUE(kinds.count(static_cast<int>(AnomalyKind::kLatencyShortTerm)));

  common::ThreadPool pool(4);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const bool shuffled : {false, true}) {
      common::ThreadPool* const p = shards > 1 ? &pool : nullptr;
      EXPECT_EQ(run(shards, p, shuffled), want)
          << "at " << shards << " shards, shuffled " << shuffled;
    }
  }
}

// for_each_pair iterates the router, so its pair order is the same at any
// shard count.
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
