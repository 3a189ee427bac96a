// Forensic-bundle contract: every opened failure case leaves behind a
// self-contained, well-formed JSON bundle that reconstructs the verdict —
// timeline stages, the offending pair's recent windows, anomaly events,
// localization votes, and the recorder's own drop accounting — and the
// bundle filed under a case's id names that case.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "core/forensic.h"
#include "core/harness.h"
#include "obs/json_lint.h"
#include "obs/recorder.h"

namespace skh::core {
namespace {

/// The fault_drill forensic-gate scenario in miniature: one monitored task,
/// one RNIC port taken down mid-run.
ExperimentConfig drill_config() {
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 8;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.inference.candidate_dp = {2, 4};
  cfg.seed = 6400;
  cfg.obs.metrics = true;
  return cfg;
}

/// Launch the task, inject the RNIC fault, run to completion.
void run_drill(Experiment& exp) {
  cluster::TaskRequest req;
  req.num_containers = 4;
  req.gpus_per_container = 8;
  req.lifetime = SimTime::hours(6);
  const auto task = exp.launch_task(req);
  EXPECT_TRUE(task.has_value());
  exp.run_to_running(*task);
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 2;
  par.dp = 2;
  (void)exp.apply_skeleton(*task, exp.layout_of(*task, par));

  const auto victim = exp.orchestrator().endpoints_of_task(*task)[9];
  exp.faults().inject(sim::IssueType::kRnicPortDown,
                      {sim::ComponentKind::kRnic, victim.rnic.value()},
                      SimTime::minutes(3), SimTime::minutes(11));

  exp.hunter().start(exp.events().now() + SimTime::minutes(20));
  exp.events().run_all();
  exp.hunter().finalize();
}

TEST(ForensicBundle, EveryCaseLeavesAValidSelfContainedBundle) {
  Experiment exp(drill_config());
  run_drill(exp);
  const auto& rec = exp.obs().recorder;
  const auto& cases = exp.hunter().failure_cases();
  ASSERT_GE(cases.size(), 1u);

  for (const auto& c : cases) {
    const std::string* bundle = rec.bundle_of(c.id);
    ASSERT_NE(bundle, nullptr) << "case " << c.id;
    const std::string& b = *bundle;
    EXPECT_TRUE(obs::json_valid(b)) << b;

    // All causal stages in the embedded timeline.
    EXPECT_NE(b.find("case.open"), std::string::npos);
    EXPECT_NE(b.find("anomaly"), std::string::npos);
    // Top-level sections of the bundle shape.
    for (const char* key :
         {"\"case\":", "\"timeline\":", "\"events\":", "\"windows\":",
          "\"votes\":", "\"recorder\":", "\"metrics\":"}) {
      EXPECT_NE(b.find(key), std::string::npos) << key;
    }
    if (!c.suppressed) {
      EXPECT_NE(b.find("localize"), std::string::npos);
      EXPECT_NE(b.find("case.close"), std::string::npos);
      // A closed case carries votes with their evidence source...
      EXPECT_NE(b.find("\"source\":"), std::string::npos);
      // ...and at least one recorded window (flags field only appears in
      // window objects).
      EXPECT_NE(b.find("\"flags\":"), std::string::npos);
    }
    // Dropped-record accounting is always present, so a wrapped ring is
    // visible in the evidence rather than silently truncated.
    EXPECT_NE(b.find("\"window_drops\":"), std::string::npos);
    EXPECT_NE(b.find("\"event_drops\":"), std::string::npos);
    // The bundle names its own case, and no case differing from it in an
    // identity field.
    EXPECT_TRUE(bundle_names_case(b, c)) << b.substr(0, 120);
    FailureCase other = c;
    other.id = c.id + 1;
    EXPECT_FALSE(bundle_names_case(b, other));
    other = c;
    other.task = TaskId{c.task.value() + 1};
    EXPECT_FALSE(bundle_names_case(b, other));
    other = c;
    other.first_event = c.first_event + SimTime::seconds(1);
    EXPECT_FALSE(bundle_names_case(b, other));
    other = c;
    other.cls = CaseClass::kTenantVisibleNetworkSilent;
    EXPECT_FALSE(bundle_names_case(b, other));
  }
}

/// A bundle with every metrics entry whose name contains "shard" removed:
/// the per-shard load series describe the partitioning itself, the one
/// documented exemption from cross-shard-count identity.
std::string without_shard_series(const std::string& bundle) {
  const auto at = bundle.find("\"metrics\":");
  if (at == std::string::npos) return bundle;
  static const std::regex kShardEntry("\"[^\"]*shard[^\"]*\":[^,}]*,?");
  std::string metrics =
      std::regex_replace(bundle.substr(at), kShardEntry, "");
  // An entry removed from the end of an object leaves its separator.
  metrics = std::regex_replace(metrics, std::regex(",\\}"), "}");
  return bundle.substr(0, at) + metrics;
}

TEST(ForensicBundle, BundlesMatchAcrossShardCountsModuloShardSeries) {
  // Each bundle embeds a registry snapshot taken when it is emitted, mid
  // campaign: the detector.* series in it must already read the same at 4
  // shards as at 1.
  const auto bundles_at = [](std::size_t shards) {
    auto cfg = drill_config();
    cfg.hunter.analyzer_shards = shards;
    Experiment exp(cfg);
    run_drill(exp);
    std::vector<std::string> out;
    for (const auto& c : exp.hunter().failure_cases()) {
      const std::string* b = exp.obs().recorder.bundle_of(c.id);
      out.push_back(b != nullptr ? without_shard_series(*b) : "");
    }
    return out;
  };
  const auto one = bundles_at(1);
  ASSERT_FALSE(one.empty());
  for (const auto& b : one) {
    EXPECT_TRUE(obs::json_valid(b)) << b;
    EXPECT_NE(b.find("\"detector.probes_ingested\":"), std::string::npos);
    EXPECT_EQ(b.find("shard"), std::string::npos);
  }
  EXPECT_EQ(bundles_at(4), one);
}

TEST(ForensicBundle, DisabledRecorderEmitsNoBundles) {
  auto cfg = drill_config();
  cfg.obs.recorder.enabled = false;
  Experiment exp(cfg);
  run_drill(exp);

  EXPECT_GE(exp.hunter().failure_cases().size(), 1u);
  EXPECT_TRUE(exp.obs().recorder.bundles().empty());
}

}  // namespace
}  // namespace skh::core
