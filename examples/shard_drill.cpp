// Shard drill: byte-for-byte shard-count invariance at production scale.
//
// A 4096-host rail-optimized topology carries three 64-container tasks
// probing their rail-pruned basic lists (~97k directed pairs — the paper's
// "one analyzer per cluster" regime) through a handful of injected
// faults. The FULL verdict stream — every failure case with its window
// events, localization method, culprit set, and confidence — is serialized
// to a canonical text form and diffed across analyzer_shards = 1, 4, and
// 16. Any byte of difference fails the gate (ctest: shard.identity_gate).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/harness.h"
#include "core/localize.h"
#include "core/metrics.h"

using namespace skh;
using namespace skh::core;

namespace {

struct DrillOutcome {
  std::string verdicts;    ///< canonical serialization of every case
  std::size_t pairs = 0;   ///< pairs resident in the sharded detector
  std::size_t cases = 0;   ///< non-suppressed failure cases
  std::size_t detected = 0;
  DetectorCounters counters{};
};

void append_component(std::string& out, const sim::ComponentRef& ref) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "(%d:%u)", static_cast<int>(ref.kind),
                ref.index);
  out += buf;
}

/// Canonical text form of the hunter's entire output. Scores and
/// confidences print with %.17g so two streams agree only when the doubles
/// are bit-identical (modulo -0.0, which the pipeline never produces).
std::string serialize_verdicts(const SkeletonHunter& hunter) {
  std::string out;
  out.reserve(1 << 16);
  char buf[192];
  for (const FailureCase& c : hunter.failure_cases()) {
    std::snprintf(buf, sizeof buf,
                  "case id=%u task=%u first=%lld last=%lld suppressed=%d\n",
                  c.id, c.task.value(),
                  static_cast<long long>(c.first_event.raw_nanos()),
                  static_cast<long long>(c.last_event.raw_nanos()),
                  c.suppressed ? 1 : 0);
    out += buf;
    for (const AnomalyEvent& e : c.events) {
      std::snprintf(buf, sizeof buf,
                    "  event t=%lld kind=%d pair=%u/%u->%u/%u score=%.17g\n",
                    static_cast<long long>(e.detected_at.raw_nanos()),
                    static_cast<int>(e.kind), e.pair.src.container.value(),
                    e.pair.src.rnic.value(), e.pair.dst.container.value(),
                    e.pair.dst.rnic.value(), e.score);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "  verdict method=%s confidence=%.17g",
                  std::string(to_string(c.localization.method)).c_str(),
                  c.localization.confidence);
    out += buf;
    for (const auto& ref : c.localization.culprits) {
      out += ' ';
      append_component(out, ref);
    }
    out += '\n';
  }
  return out;
}

DrillOutcome run_drill(std::size_t shards) {
  ExperimentConfig cfg;
  cfg.topology.num_hosts = 4096;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 64;
  cfg.hunter.analyzer_shards = shards;
  cfg.hunter.probe_interval = SimTime::seconds(15);
  cfg.hunter.detector.expected_pairs = 100000;
  cfg.seed = 8400;  // identical across shard counts on purpose
  Experiment exp(cfg);

  // Three production-shaped tasks; no skeleton is applied, so each keeps
  // probing its rail-pruned basic list: 3 * 8 rails * 64*63 directed
  // same-rail pairs ~ 97k pairs through one sharded analyzer.
  std::vector<TaskId> tasks;
  for (int t = 0; t < 3; ++t) {
    cluster::TaskRequest req;
    req.num_containers = 64;
    req.gpus_per_container = 8;
    req.lifetime = SimTime::hours(6);
    const auto task = exp.launch_task(req);
    if (!task) return {};
    exp.run_to_running(*task);
    tasks.push_back(*task);
  }

  // Faults staggered across the campaign, each hitting a different task
  // and a different layer of the hierarchy.
  const SimTime t0 = exp.events().now();
  const auto ep0 = exp.orchestrator().endpoints_of_task(tasks[0])[17];
  const auto ep1 = exp.orchestrator().endpoints_of_task(tasks[1])[80];
  const auto ep2 = exp.orchestrator().endpoints_of_task(tasks[2])[200];
  exp.faults().inject(
      sim::IssueType::kRnicPortDown,
      {sim::ComponentKind::kRnic, ep0.rnic.value()},
      t0 + SimTime::minutes(2), t0 + SimTime::minutes(7));
  exp.faults().inject(
      sim::IssueType::kSwitchPortFlapping,
      {sim::ComponentKind::kPhysicalSwitch,
       exp.topology()
           .tor_at(exp.topology().segment_of(exp.topology().host_of(ep1.rnic)),
                   exp.topology().rail_of(ep1.rnic))
           .value()},
      t0 + SimTime::minutes(5), t0 + SimTime::minutes(10));
  exp.faults().inject(
      sim::IssueType::kCrcError,
      {sim::ComponentKind::kPhysicalLink,
       exp.topology().uplink_of(ep2.rnic).value()},
      t0 + SimTime::minutes(8), t0 + SimTime::minutes(13));

  exp.hunter().start(t0 + SimTime::minutes(16));
  exp.events().run_all();
  exp.hunter().finalize();

  DrillOutcome out;
  out.verdicts = serialize_verdicts(exp.hunter());
  out.pairs = exp.hunter().detector().pair_count();
  out.cases = exp.hunter().failure_cases().size();
  const auto score = score_campaign(exp.hunter().failure_cases(),
                                    exp.faults(), exp.topology());
  out.detected = score.detected_true;
  out.counters = exp.hunter().detector_counters();
  return out;
}

int run_shard_gate() {
  std::puts("Shard identity drill: 4096 hosts, ~97k pairs, 3 faults\n");
  const DrillOutcome base = run_drill(1);
  std::printf("  shards=1           : %zu pairs, %zu case(s), %zu detected, "
              "%llu probes ingested\n",
              base.pairs, base.cases, base.detected,
              static_cast<unsigned long long>(base.counters.probes_ingested));
  bool pass = base.pairs > 90000 && base.cases > 0 && base.detected > 0;
  if (!pass) {
    std::puts("  FAILED: baseline campaign is not a real workload");
    return 1;
  }
  for (const std::size_t shards : {4UL, 16UL}) {
    const DrillOutcome d = run_drill(shards);
    const bool same = d.verdicts == base.verdicts &&
                      d.counters == base.counters && d.pairs == base.pairs;
    std::printf("  shards=%-2zu          : verdict stream %s (%zu bytes)\n",
                shards, same ? "identical" : "DIVERGED",
                d.verdicts.size());
    pass = pass && same;
  }
  std::printf("\nshard identity gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  return run_shard_gate();
}
