// Campaign scoring: precision / recall / localization accuracy (§7.1).
//
// The fault injector is the ground truth. A failure case matches an
// injected fault when the fault was active in the case's time window and
// the fault's component could degrade at least one of the case's flagged
// pairs. Localization is correct when the case's culprit set contains the
// fault's target (or the observationally-equivalent uplink <-> RNIC
// aliasing resolved the right physical port).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/skeleton_hunter.h"
#include "sim/fault.h"
#include "topo/topology.h"

namespace skh::core {

/// Does this fault's target lie on the probe surface of `pair`?
[[nodiscard]] bool fault_affects_pair(const sim::Fault& fault,
                                      const EndpointPair& pair,
                                      const topo::Topology& topo);

struct CampaignScore {
  std::size_t injected_visible = 0;  ///< probe-visible injected faults
  std::size_t injected_invisible = 0;  ///< intra-host faults (§7.3)
  std::size_t detected_true = 0;    ///< faults matched by >= 1 case
  std::size_t cases_total = 0;
  std::size_t cases_true = 0;       ///< cases matching some fault
  std::size_t cases_false = 0;      ///< false positives
  std::size_t localized_correct = 0;  ///< matched cases naming the target
  std::size_t localized_total = 0;    ///< matched cases, verdict or not
  /// kTenantVisibleNetworkSilent cases (collective signal plane). Scored
  /// separately: they carry no anomalous probe pairs and report host-side
  /// incidents the network ground truth does not model, so counting them
  /// against probe precision would brand every correct silent-hang ticket
  /// a false positive.
  std::size_t cases_network_silent = 0;
  double mean_detection_latency_s = 0.0;  ///< fault start -> first event

  /// Precision over failure cases (§7.1: 98.2% in production).
  [[nodiscard]] double precision() const;
  /// Recall over probe-visible *and* invisible faults, matching the paper's
  /// user-feedback-based recall (intra-host faults are the false negatives).
  [[nodiscard]] double recall() const;
  /// Localization accuracy over matched cases (§7.1: 95.7%).
  [[nodiscard]] double localization_accuracy() const;

  /// Bit-exact equality: the runner's thread-count-invariance guarantee is
  /// asserted field by field, doubles included.
  friend bool operator==(const CampaignScore&,
                         const CampaignScore&) = default;
};

[[nodiscard]] CampaignScore score_campaign(
    const std::vector<FailureCase>& cases, const sim::FaultInjector& faults,
    const topo::Topology& topo);

/// Sample statistics of one metric across a Monte-Carlo campaign set.
/// The 95% interval is the normal approximation mean ± 1.96·stddev/√n —
/// adequate for the tens-of-seeds sweeps the benches run.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;

  [[nodiscard]] double ci95_halfwidth() const;
  [[nodiscard]] double ci95_lo() const { return mean - ci95_halfwidth(); }
  [[nodiscard]] double ci95_hi() const { return mean + ci95_halfwidth(); }
};

/// Aggregate of per-seed CampaignScores: the precision/recall curves of
/// §7.1 with uncertainty, instead of one anecdotal run.
struct ScoreSummary {
  std::size_t runs = 0;
  MetricSummary precision;
  MetricSummary recall;
  MetricSummary localization_accuracy;
  MetricSummary detection_latency_s;
  // Pooled raw counts over all runs.
  std::size_t total_cases = 0;
  std::size_t total_cases_false = 0;
  std::size_t total_injected_visible = 0;
  std::size_t total_injected_invisible = 0;
  std::size_t total_detected = 0;
};

/// Summarize a set of per-seed campaign scores. Latency is averaged only
/// over runs that detected at least one fault.
[[nodiscard]] ScoreSummary summarize_scores(
    std::span<const CampaignScore> scores);

/// Pool per-campaign detector ingest counters (e.g. one per `run_many`
/// seed) into fleet totals for throughput/observability reporting.
[[nodiscard]] DetectorCounters merge_counters(
    std::span<const DetectorCounters> counters);

}  // namespace skh::core
