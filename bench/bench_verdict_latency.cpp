// Ingest-to-verdict latency bench: run a multi-fault Monte-Carlo fleet
// with the full observability plane attached and report the sim-time
// latency of every pipeline stage (telemetry channel delay, detection lag,
// first-event-to-verdict, and the end-to-end ingest-to-verdict span).
//
// Output is greppable: the line `P99_VERDICT_S=<x>` carries the headline
// p99 end-to-end latency (README row). Fails if no case reached a verdict
// — a latency plane with zero observations gates nothing.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "runner/campaign_runner.h"

using namespace skh;
using namespace skh::runner;

namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 4;
  cfg.topology.hosts_per_segment = 8;
  cfg.hunter.probe_interval = SimTime::seconds(5);
  cfg.hunter.inference.candidate_dp = {2};
  cfg.tasks = {{4, 4, 2, 2}, {4, 4, 4, 1}};
  cfg.visible_faults = 6;
  cfg.invisible_faults = 0;
  cfg.phantom_agents = 0;
  cfg.fault_gap = SimTime::minutes(8);
  cfg.fault_duration = SimTime::minutes(4);
  cfg.drain = SimTime::minutes(10);
  // A little measurement-plane dirt so the telemetry-delay stage has
  // non-zero observations too.
  cfg.telemetry_faults = 2;
  cfg.obs.metrics = true;
  return cfg;
}

const obs::HistogramSample* find_hist(const obs::MetricsSnapshot& snap,
                                      const char* name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

int main() {
  print_banner("ingest-to-verdict latency plane (sim-time stage quantiles)");

  const CampaignConfig cfg = base_config();
  const auto seeds = split_seeds(0x7e4d1c7, 6);
  const CampaignSet set = run_many(cfg, seeds, 1);

  struct Stage {
    const char* metric;
    const char* label;
  };
  const Stage stages[] = {
      {"latency.telemetry_delay_s", "telemetry channel delay"},
      {"latency.detect_s", "detection lag"},
      {"latency.localize_s", "first event -> verdict"},
      {"latency.ingest_to_verdict_s", "ingest -> verdict (end to end)"},
  };
  TablePrinter table({"stage", "p50 (s)", "p99 (s)", "observations"});
  double p99_verdict = -1.0;
  std::uint64_t verdicts = 0;
  for (const auto& st : stages) {
    const auto* h = find_hist(set.fleet, st.metric);
    if (h == nullptr || h->count == 0) {
      table.add_row({st.label, "-", "-", "0"});
      continue;
    }
    table.add_row({st.label, TablePrinter::num(h->quantile(0.5), 1),
                   TablePrinter::num(h->quantile(0.99), 1),
                   std::to_string(h->count)});
    if (std::string_view(st.metric) == "latency.ingest_to_verdict_s") {
      p99_verdict = h->quantile(0.99);
      verdicts = h->count;
    }
  }
  table.print();

  if (verdicts == 0) {
    std::printf("\nFATAL: no case reached a verdict; latency plane is "
                "empty\n");
    return 1;
  }

  std::printf("\nP99_VERDICT_S=%.1f\n", p99_verdict);
  std::printf("VERDICTS=%llu\n", static_cast<unsigned long long>(verdicts));
  return 0;
}
