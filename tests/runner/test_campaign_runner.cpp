// Determinism contract of the Monte-Carlo campaign runner: bit-identical
// per-seed results at any thread count, decorrelated schedules across
// distinct seeds. These are the guarantees ARCHITECTURE.md's determinism
// section documents.
#include "runner/campaign_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/forensic.h"
#include "obs/json_lint.h"

namespace skh::runner {
namespace {

/// A campaign small enough for test budgets: one 4-container task on a
/// 16-host cluster, four visible faults, ~45 simulated minutes.
CampaignConfig tiny_config() {
  CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 4;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.probe_interval = SimTime::seconds(5);
  cfg.hunter.inference.candidate_dp = {2};
  cfg.tasks = {{4, 4, 2, 2}};
  cfg.visible_faults = 4;
  cfg.invisible_faults = 0;
  cfg.phantom_agents = 0;
  cfg.fault_gap = SimTime::minutes(8);
  cfg.fault_duration = SimTime::minutes(4);
  cfg.drain = SimTime::minutes(10);
  return cfg;
}

/// Schedule fingerprint: what was injected, where, and when.
std::vector<std::tuple<sim::IssueType, sim::ComponentRef, std::int64_t,
                       std::int64_t>>
schedule_of(const RunResult& r) {
  std::vector<std::tuple<sim::IssueType, sim::ComponentRef, std::int64_t,
                         std::int64_t>>
      s;
  for (const auto& f : r.faults) {
    s.emplace_back(f.type, f.target, f.start.raw_nanos(),
                   f.end.raw_nanos());
  }
  return s;
}

TEST(SeedSplitting, PureFunctionOfMasterAndIndex) {
  const auto a = split_seeds(0xfeedULL, 16);
  const auto b = split_seeds(0xfeedULL, 16);
  EXPECT_EQ(a, b);
  // Prefix stability: campaign i's seed does not depend on how many
  // campaigns the sweep runs.
  const auto shorter = split_seeds(0xfeedULL, 4);
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    EXPECT_EQ(shorter[i], a[i]);
  }
  // All distinct, and a different master yields a disjoint set.
  std::set<std::uint64_t> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), a.size());
  for (const auto s : split_seeds(0xbeefULL, 16)) {
    EXPECT_FALSE(uniq.contains(s));
  }
}

TEST(CampaignRunner, RepeatedRunIsBitIdentical) {
  const auto cfg = tiny_config();
  const RunResult a = run_campaign(cfg, 1234);
  const RunResult b = run_campaign(cfg, 1234);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(schedule_of(a), schedule_of(b));
  EXPECT_EQ(a.failure_cases, b.failure_cases);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
}

TEST(CampaignRunner, ThreadCountDoesNotChangeResults) {
  const auto cfg = tiny_config();
  const auto seeds = split_seeds(99, 6);
  const CampaignSet sequential = run_many(cfg, seeds, 1);
  const CampaignSet parallel = run_many(cfg, seeds, 8);
  ASSERT_EQ(sequential.runs.size(), seeds.size());
  ASSERT_EQ(parallel.runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(sequential.runs[i].seed, seeds[i]);
    EXPECT_EQ(parallel.runs[i].seed, seeds[i]);
    EXPECT_EQ(sequential.runs[i].score, parallel.runs[i].score)
        << "seed " << seeds[i];
    EXPECT_EQ(schedule_of(sequential.runs[i]),
              schedule_of(parallel.runs[i]))
        << "seed " << seeds[i];
  }
  EXPECT_EQ(sequential.summary.runs, seeds.size());
  EXPECT_DOUBLE_EQ(sequential.summary.precision.mean,
                   parallel.summary.precision.mean);
  EXPECT_DOUBLE_EQ(sequential.summary.recall.mean,
                   parallel.summary.recall.mean);
}

TEST(CampaignRunner, DistinctSeedsDecorrelateFaultSchedules) {
  const auto cfg = tiny_config();
  const RunResult a = run_campaign(cfg, 7);
  const RunResult b = run_campaign(cfg, 8);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  ASSERT_GT(a.faults.size(), 0u);
  // The cadence (start times) is config-driven and shared; the victims
  // must not be: at least one fault lands on a different component.
  bool any_target_differs = false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    if (a.faults[i].target != b.faults[i].target) any_target_differs = true;
  }
  EXPECT_TRUE(any_target_differs);
}

TEST(CampaignRunner, EmptySeedListYieldsEmptySet) {
  const auto cfg = tiny_config();
  const std::vector<std::uint64_t> none;
  const CampaignSet set = run_many(cfg, none, 4);
  EXPECT_TRUE(set.runs.empty());
  EXPECT_EQ(set.summary.runs, 0u);
}

TEST(CampaignRunner, MasterSeedOverloadMatchesExplicitSeeds) {
  const auto cfg = tiny_config();
  const auto seeds = split_seeds(424242, 2);
  const CampaignSet via_master = run_many(cfg, 424242, 2, 1);
  const CampaignSet via_seeds = run_many(cfg, seeds, 1);
  ASSERT_EQ(via_master.runs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(via_master.runs[i].seed, via_seeds.runs[i].seed);
    EXPECT_EQ(via_master.runs[i].score, via_seeds.runs[i].score);
  }
}

TEST(CampaignRunner, ChurnPlanIsDeliveredAndDeterministic) {
  auto cfg = tiny_config();
  cfg.churn_restarts = 3;
  cfg.churn_start = SimTime::minutes(6);
  cfg.churn_spacing = SimTime::minutes(3);
  const RunResult a = run_campaign(cfg, 321);
  const RunResult b = run_campaign(cfg, 321);
  EXPECT_EQ(a.churn_events, 3u);  // one task, restarts only
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.failure_cases, b.failure_cases);
}

TEST(CampaignRunner, ChurnCampaignBitIdenticalAcross1_4_16Threads) {
  // The determinism contract must survive mid-run churn: restart storms and
  // migration waves are planned from a forked rng stream inside each
  // campaign, so runner-thread interleaving cannot perturb them.
  auto cfg = tiny_config();
  cfg.churn_restarts = 2;
  cfg.churn_migrations = 2;
  cfg.churn_start = SimTime::minutes(6);
  cfg.churn_spacing = SimTime::minutes(3);
  const auto seeds = split_seeds(777, 4);
  const CampaignSet one = run_many(cfg, seeds, 1);
  const CampaignSet four = run_many(cfg, seeds, 4);
  const CampaignSet sixteen = run_many(cfg, seeds, 16);
  ASSERT_EQ(one.runs.size(), seeds.size());
  ASSERT_EQ(four.runs.size(), seeds.size());
  ASSERT_EQ(sixteen.runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_GT(one.runs[i].churn_events, 0u);
    for (const CampaignSet* set : {&four, &sixteen}) {
      EXPECT_EQ(one.runs[i].score, set->runs[i].score) << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].churn_events, set->runs[i].churn_events)
          << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].probes_sent, set->runs[i].probes_sent)
          << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].failure_cases, set->runs[i].failure_cases)
          << "seed " << seeds[i];
      EXPECT_EQ(schedule_of(one.runs[i]), schedule_of(set->runs[i]))
          << "seed " << seeds[i];
    }
  }
}

TEST(CampaignRunner, TelemetryStormCampaignBitIdenticalAcross1_4_16Threads) {
  // A lying measurement plane is planned from a forked rng stream the same
  // way fault/churn schedules are: adding telemetry episodes must not cost
  // the bit-identity guarantee at any thread count.
  auto cfg = tiny_config();
  cfg.telemetry_faults = 5;
  cfg.telemetry_start = SimTime::minutes(6);
  cfg.telemetry_spacing = SimTime::minutes(7);
  cfg.telemetry_duration = SimTime::minutes(3);
  const auto seeds = split_seeds(4242, 4);
  const CampaignSet one = run_many(cfg, seeds, 1);
  const CampaignSet four = run_many(cfg, seeds, 4);
  const CampaignSet sixteen = run_many(cfg, seeds, 16);
  ASSERT_EQ(one.runs.size(), seeds.size());
  ASSERT_EQ(four.runs.size(), seeds.size());
  ASSERT_EQ(sixteen.runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(one.runs[i].telemetry_events, 5u);
    for (const CampaignSet* set : {&four, &sixteen}) {
      EXPECT_EQ(one.runs[i].telemetry_events, set->runs[i].telemetry_events)
          << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].score, set->runs[i].score) << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].probes_sent, set->runs[i].probes_sent)
          << "seed " << seeds[i];
      EXPECT_EQ(one.runs[i].failure_cases, set->runs[i].failure_cases)
          << "seed " << seeds[i];
      EXPECT_EQ(schedule_of(one.runs[i]), schedule_of(set->runs[i]))
          << "seed " << seeds[i];
    }
  }
}

TEST(CampaignRunner, HonestPlaneIsUnchangedByTheTelemetryKnob) {
  // telemetry_faults = 0 must be byte-for-byte the pre-knob behavior: the
  // channel early-returns without consuming randomness, so existing seeds
  // keep their results.
  const auto cfg = tiny_config();
  const RunResult r = run_campaign(cfg, 1234);
  EXPECT_EQ(r.telemetry_events, 0u);
  const RunResult again = run_campaign(cfg, 1234);
  EXPECT_EQ(r.score, again.score);
  EXPECT_EQ(r.probes_sent, again.probes_sent);
}

TEST(CampaignRunner, AnalyzerShardCountDoesNotChangeResults) {
  // The sharded analyzer is a pure scale-out: partitioning the pair space
  // across 1, 4, or 16 detector shards must leave every campaign outcome
  // bit-identical — scores, case counts, probe totals, and the fleet-summed
  // detector counters.
  auto cfg = tiny_config();
  for (const std::uint64_t seed : split_seeds(0x53484152ULL, 2)) {
    cfg.hunter.analyzer_shards = 1;
    const RunResult one = run_campaign(cfg, seed);
    for (const std::size_t shards : {4UL, 16UL}) {
      cfg.hunter.analyzer_shards = shards;
      const RunResult sharded = run_campaign(cfg, seed);
      EXPECT_EQ(one.score, sharded.score)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(one.failure_cases, sharded.failure_cases)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(one.probes_sent, sharded.probes_sent)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(one.detector, sharded.detector)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(schedule_of(one), schedule_of(sharded))
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(CampaignRunner, SprayCampaignBitIdenticalAcrossThreadsAndShards) {
  // Packet spray turns on the per-path sub-series in every detector shard
  // and path-scoped voting in the localizer. All of it is hash/state
  // driven — no RNG — so neither runner-thread interleaving nor the
  // analyzer shard count may perturb a single verdict, score, or counter.
  auto cfg = tiny_config();
  cfg.hunter.engine.routing_mode = topo::RoutingMode::kSpray;
  cfg.hunter.engine.spray_ways = 8;
  const auto seeds = split_seeds(0x53505259ULL, 2);

  const CampaignSet one = run_many(cfg, seeds, 1);
  ASSERT_EQ(one.runs.size(), seeds.size());
  for (const std::size_t threads : {4UL, 16UL}) {
    const CampaignSet multi = run_many(cfg, seeds, threads);
    ASSERT_EQ(multi.runs.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(one.runs[i].score, multi.runs[i].score)
          << "seed " << seeds[i] << " threads " << threads;
      EXPECT_EQ(one.runs[i].probes_sent, multi.runs[i].probes_sent)
          << "seed " << seeds[i] << " threads " << threads;
      EXPECT_EQ(one.runs[i].failure_cases, multi.runs[i].failure_cases)
          << "seed " << seeds[i] << " threads " << threads;
      EXPECT_EQ(schedule_of(one.runs[i]), schedule_of(multi.runs[i]))
          << "seed " << seeds[i] << " threads " << threads;
    }
  }

  for (const std::uint64_t seed : seeds) {
    cfg.hunter.analyzer_shards = 1;
    const RunResult base = run_campaign(cfg, seed);
    for (const std::size_t shards : {4UL, 16UL}) {
      cfg.hunter.analyzer_shards = shards;
      const RunResult sharded = run_campaign(cfg, seed);
      EXPECT_EQ(base.score, sharded.score)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(base.failure_cases, sharded.failure_cases)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(base.probes_sent, sharded.probes_sent)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(base.detector, sharded.detector)
          << "seed " << seed << " shards " << shards;
    }
    cfg.hunter.analyzer_shards = 1;
  }
}

TEST(CampaignRunner, StaticEcmpKnobIsByteForBytePreKnobBehavior) {
  // The routing knob's default must not move a single bit of any existing
  // seed: an explicitly-set kStaticEcmp run and a default-config run are
  // the same campaign.
  const auto base_cfg = tiny_config();
  auto knob_cfg = tiny_config();
  knob_cfg.hunter.engine.routing_mode = topo::RoutingMode::kStaticEcmp;
  const RunResult base = run_campaign(base_cfg, 1234);
  const RunResult knob = run_campaign(knob_cfg, 1234);
  EXPECT_EQ(base.score, knob.score);
  EXPECT_EQ(base.probes_sent, knob.probes_sent);
  EXPECT_EQ(base.failure_cases, knob.failure_cases);
  EXPECT_EQ(base.detector, knob.detector);
  EXPECT_EQ(schedule_of(base), schedule_of(knob));
}

TEST(CampaignRunner, CollectiveKnobOffIsByteForBytePreKnobBehavior) {
  // collective_plane = false must draw zero randomness and emit zero
  // steps: existing seeds keep their results and the fingerprint stays at
  // the FNV offset basis (nothing was ever folded in).
  const auto cfg = tiny_config();
  const RunResult r = run_campaign(cfg, 1234);
  EXPECT_EQ(r.collective_events, 0u);
  EXPECT_EQ(r.collective_steps, 0u);
  EXPECT_EQ(r.cases_network_silent, 0u);
  EXPECT_EQ(r.collective_fingerprint, 0xcbf29ce484222325ull);
  const RunResult again = run_campaign(cfg, 1234);
  EXPECT_EQ(r.score, again.score);
  EXPECT_EQ(r.probes_sent, again.probes_sent);
}

TEST(CampaignRunner, CollectivePlaneCampaignBitIdenticalAcrossThreads) {
  // Host-side fault storms are planned from a forked rng stream and the
  // step traces are pure per-iteration functions, so the second signal
  // plane must not cost the bit-identity guarantee at any thread count.
  auto cfg = tiny_config();
  cfg.collective_plane = true;
  cfg.collective_faults = 2;
  const auto seeds = split_seeds(0xC011, 2);
  const CampaignSet one = run_many(cfg, seeds, 1);
  const CampaignSet four = run_many(cfg, seeds, 4);
  ASSERT_EQ(one.runs.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_GT(one.runs[i].collective_steps, 0u);
    EXPECT_EQ(one.runs[i].collective_events, 2u);  // one task's storm
    EXPECT_EQ(one.runs[i].score, four.runs[i].score) << "seed " << seeds[i];
    EXPECT_EQ(one.runs[i].collective_fingerprint,
              four.runs[i].collective_fingerprint)
        << "seed " << seeds[i];
    EXPECT_EQ(one.runs[i].collective_steps, four.runs[i].collective_steps)
        << "seed " << seeds[i];
    EXPECT_EQ(one.runs[i].cases_network_silent,
              four.runs[i].cases_network_silent)
        << "seed " << seeds[i];
    EXPECT_EQ(schedule_of(one.runs[i]), schedule_of(four.runs[i]))
        << "seed " << seeds[i];
  }
}

/// A case's localization votes as its forensic bundle prints them.
std::string votes_json(const core::FailureCase& c) {
  std::string out = "\"votes\":[";
  for (std::size_t i = 0; i < c.localization.votes.size(); ++i) {
    const auto& v = c.localization.votes[i];
    if (i > 0) out += ',';
    out += "{\"component\":";
    obs::json_append_escaped(out, sim::to_string(v.component));
    out += ",\"weight\":";
    obs::json_append_number(out, v.weight);
    out += ",\"source\":";
    obs::json_append_escaped(out, v.source);
    out += '}';
  }
  return out + "]";
}

TEST(CampaignRunner, CaseIdsStayUniqueAndEachBundleNamesItsCase) {
  // Churn, gray telemetry and the collective plane over two tasks. On this
  // seed a network-silent case is absorbed (suppressed, then erased) while
  // a later network-silent case is still held, and a probe-plane case
  // opens after that. An id taken from the case count gave the probe case
  // the held case's id: both reported id 2, and the one bundle under it
  // listed the silent case's collective votes ahead of the probe case's.
  auto cfg = tiny_config();
  cfg.tasks = {{4, 4, 2, 2}, {4, 4, 2, 2}};
  cfg.churn_restarts = 2;
  cfg.churn_migrations = 1;
  cfg.telemetry_faults = 4;
  cfg.collective_plane = true;
  cfg.collective_faults = 3;
  RunResult result;
  const auto exp = run_campaign_experiment(cfg, 28, result);
  const auto& cases = exp->hunter().failure_cases();
  ASSERT_EQ(cases.size(), result.failure_cases);
  ASSERT_FALSE(cases.empty());
  // The scenario keeps its shape: a suppressed case was erased ahead of a
  // reported one, so ids are not simply 0..n-1.
  EXPECT_GT(cases.back().id + 1, cases.size());
  std::set<std::uint32_t> ids;
  for (const auto& c : cases) {
    EXPECT_TRUE(ids.insert(c.id).second) << "case id " << c.id << " repeats";
    const std::string* bundle = exp->obs().recorder.bundle_of(c.id);
    ASSERT_NE(bundle, nullptr) << "case " << c.id;
    EXPECT_TRUE(core::bundle_names_case(*bundle, c))
        << "bundle under id " << c.id << " names another case: "
        << bundle->substr(0, 120);
    EXPECT_NE(bundle->find(votes_json(c) + ","), std::string::npos)
        << "case " << c.id << " votes " << votes_json(c);
  }
}

TEST(CampaignRunner, CampaignDetectsInjectedFaults) {
  // Sanity that the canned campaign is a real workload, not a no-op: the
  // hunter raises cases and detects at least one injected fault.
  const auto cfg = tiny_config();
  const RunResult r = run_campaign(cfg, 2026);
  EXPECT_EQ(r.tasks_launched, 1u);
  EXPECT_EQ(r.score.injected_visible, cfg.visible_faults);
  EXPECT_GT(r.score.detected_true, 0u);
  EXPECT_GT(r.probes_sent, 0u);
}

}  // namespace
}  // namespace skh::runner
