// Sharded analyzer ingest throughput at the 100k-pair analyzer scale.
//
// Replays the same synthetic probe campaign — 100k pairs, one batch per
// probing round, loss bursts and RTT shifts on a deterministic subset —
// through ShardedDetector at 1, 4, and 16 shards, two ways per shard
// count:
//  - "ingest": handles resolved once up front, rounds through
//    `ingest_batch` alone — the shard fan-out by itself;
//  - "routed": each round the way the hunter drives it — `handle_of` per
//    result, `ingest_batch`, then `drain_window_log` with window logging
//    on — so the calling thread's routing and drain work is timed too
//    (route ns per probe, drain ms per window-closing round).
// Numbers are REPORT-ONLY: the speedup depends on the host's core count
// (a single-core box shows ~1x and that is fine). What is enforced is the
// identity contract the sharding is built on: every row must emit the
// bit-identical event stream, fingerprinted per round and checked at the
// end. The byte-for-byte campaign-level version of that check lives in
// ctest as shard.identity_gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/pool.h"
#include "common/rng.h"
#include "core/sharded_detector.h"
#include "obs/context.h"

using namespace skh;
using namespace skh::core;

namespace {

constexpr std::size_t kPairs = 100000;
constexpr std::size_t kRounds = 100;
constexpr double kIntervalS = 5.0;

EndpointPair pair_of(std::size_t p) {
  const auto i = static_cast<std::uint32_t>(p);
  const auto j = static_cast<std::uint32_t>(p + kPairs);
  return {{ContainerId{i}, RnicId{i}}, {ContainerId{j}, RnicId{j}}};
}

/// Deterministic per-(pair, round) observation — a pure function, so every
/// shard configuration replays literally the same campaign.
void observe(std::size_t p, std::size_t round, bool& delivered,
             double& rtt_us) {
  const std::uint64_t h = seed_mix(p * 1315423911ULL + round, 0xB16B00B5ULL);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const bool lossy = p % 97 == 0 && round > kRounds / 2;
  const bool shifted = p % 89 == 0 && round > kRounds / 2;
  delivered = u >= (lossy ? 0.45 : 0.002);
  const double base = shifted ? 34.0 : 18.0;
  rtt_us = base + 4.0 * static_cast<double>((h >> 3) & 0xff) / 255.0;
}

struct RunStats {
  double probes_per_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  double route_s = 0.0;       ///< handle_of, routed rounds only
  double drain_s = 0.0;       ///< drain_window_log, routed rounds only
  std::size_t closing = 0;    ///< rounds whose drain returned records
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t mix_event(std::uint64_t fp, const AnomalyEvent& e) {
  fp = seed_mix(fp, static_cast<std::uint64_t>(e.detected_at.raw_nanos()));
  fp = seed_mix(fp, (static_cast<std::uint64_t>(e.pair.src.rnic.value())
                     << 32) |
                        e.pair.dst.rnic.value());
  fp = seed_mix(fp, static_cast<std::uint64_t>(e.kind));
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof e.score);
  __builtin_memcpy(&bits, &e.score, sizeof bits);
  return seed_mix(fp, bits);
}

RunStats run(std::size_t shards, bool routed) {
  DetectorConfig cfg;
  cfg.expected_pairs = kPairs;
  const std::size_t workers = std::min<std::size_t>(
      shards, std::max(1u, std::thread::hardware_concurrency()));
  common::ThreadPool pool(workers);
  ShardedDetector det(cfg, shards, shards > 1 ? &pool : nullptr);
  obs::Context ctx;
  if (routed) det.attach_obs(&ctx);  // window logging on, as in the hunter
  det.reserve_pairs(kPairs);

  std::vector<EndpointPair> pairs(kPairs);
  std::vector<ShardedDetector::BatchItem> batch(kPairs);
  for (std::size_t p = 0; p < kPairs; ++p) {
    pairs[p] = pair_of(p);
    if (!routed) batch[p].handle = det.handle_of(pairs[p]);
  }
  std::vector<AnomalyEvent> events;
  std::vector<std::uint32_t> fired;
  std::vector<obs::WindowRecord> records;

  RunStats stats;
  stats.fingerprint = 0x5348415244ULL;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kRounds; ++round) {
    const SimTime now =
        SimTime::seconds(static_cast<std::int64_t>(round * kIntervalS));
    if (routed) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t p = 0; p < kPairs; ++p) {
        batch[p].handle = det.handle_of(pairs[p]);
      }
      stats.route_s += seconds_since(t0);
    }
    for (std::size_t p = 0; p < kPairs; ++p) {
      Observation& o = batch[p].obs;
      o.seq = round;
      o.sent_at = now;
      observe(p, round, o.delivered, o.rtt_us);
    }
    det.ingest_batch(batch, events, fired);
    if (routed) {
      records.clear();
      const auto t0 = std::chrono::steady_clock::now();
      det.drain_window_log(records);
      stats.drain_s += seconds_since(t0);
      stats.closing += records.empty() ? 0 : 1;
    }
    stats.events += events.size();
    for (const auto& e : events) {
      stats.fingerprint = mix_event(stats.fingerprint, e);
    }
  }
  const auto tail = det.flush(
      SimTime::seconds(static_cast<std::int64_t>(kRounds * kIntervalS)));
  for (const auto& e : tail) stats.fingerprint = mix_event(stats.fingerprint, e);
  stats.events += tail.size();
  stats.probes_per_s = static_cast<double>(kPairs * kRounds) /
                       std::max(seconds_since(start), 1e-9);
  return stats;
}

}  // namespace

int main() {
  std::printf("Sharded detector ingest, %zu pairs x %zu rounds "
              "(%u hardware threads)\n\n",
              kPairs, kRounds, std::thread::hardware_concurrency());
  std::printf("  %-7s %-7s %14s %10s %9s %15s %14s  %s\n", "shards", "round",
              "probes/s", "events", "speedup", "route ns/probe",
              "drain ms/close", "fingerprint");
  RunStats base[2]{};
  bool identical = true;
  for (const std::size_t shards : {1UL, 4UL, 16UL}) {
    for (const bool routed : {false, true}) {
      const RunStats s = run(shards, routed);
      if (shards == 1) base[routed] = s;
      identical = identical && s.fingerprint == base[0].fingerprint &&
                  s.events == base[0].events;
      char route[32] = "-", drain[32] = "-";
      if (routed) {
        std::snprintf(route, sizeof route, "%.1f",
                      s.route_s * 1e9 / static_cast<double>(kPairs * kRounds));
        std::snprintf(drain, sizeof drain, "%.2f",
                      s.drain_s * 1e3 /
                          static_cast<double>(std::max<std::size_t>(
                              s.closing, 1)));
      }
      std::printf("  %-7zu %-7s %14.0f %10llu %8.2fx %15s %14s  %016llx\n",
                  shards, routed ? "routed" : "ingest", s.probes_per_s,
                  static_cast<unsigned long long>(s.events),
                  s.probes_per_s / base[routed].probes_per_s, route, drain,
                  static_cast<unsigned long long>(s.fingerprint));
    }
  }
  std::printf("\nevent streams across shard counts and round kinds: %s\n",
              identical ? "identical" : "DIVERGED");
  return identical ? 0 : 1;
}
