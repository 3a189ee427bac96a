// Optimistic overlay-underlay disentanglement (§5.3, Algorithm 1).
//
// Given the set of endpoint pairs flagged by the anomaly detector for one
// failure case, the localizer:
//   1. replays each pair's logical overlay forwarding chain — a missing
//      flow rule or a loop pinpoints the overlay component (lines 7-15 of
//      Algorithm 1),
//   2. otherwise votes over the pairs' physical (ECMP-selected) paths: a
//      link/switch crossed by more than one anomalous pair is the underlay
//      suspect (lines 16-21, network-tomography intersection); uplink
//      verdicts that the switch logs do not confirm are re-attributed to
//      the RNIC behind the port,
//   3. otherwise validates the RNICs connecting the two layers by dumping
//      and diffing OVS vs RNIC-offloaded flow tables (the Figure 18 case),
//   4. otherwise classifies by the anomalous pairs' endpoint pattern
//      (single shared endpoint => RNIC; several rails of one host => host
//      scope, disambiguated by OVS/host config inspection).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/diagnostics.h"
#include "obs/context.h"
#include "overlay/overlay.h"
#include "probe/traceroute.h"
#include "sim/fault.h"
#include "topo/topology.h"

namespace skh::core {

/// The physical link a traceroute died on, if any. A hop can be dead
/// without carrying a valid link id — death at the source (silent
/// everywhere) or at the destination host/RNIC — and such hops contribute
/// no link verdict.
[[nodiscard]] std::optional<LinkId> dead_link_of(
    const probe::TracerouteResult& tr);

enum class LocalizationMethod : std::uint8_t {
  kOverlayReachability,
  kPhysicalIntersection,
  kRnicValidation,
  kEndpointPattern,
  kUnlocalized,
  /// Collective signal plane: the verdict came from a hang/straggler
  /// wait-for chain, not from Algorithm 1 (no anomalous probe pairs
  /// exist for a network-silent case).
  kCollectiveChain,
};

[[nodiscard]] std::string_view to_string(LocalizationMethod m) noexcept;

/// One piece of localization evidence: a component some source implicated
/// and how strongly. Sources: "intersection" (forward-path vote counts),
/// "reverse-path" (half-weight votes from the pairs' return routes),
/// "path" (votes scoped to the equal-cost member a sprayed anomaly named),
/// "traceroute" (prefix-weighted death votes), or the method name for
/// verdicts whose step produces no intermediate tally (overlay,
/// RNIC validation, endpoint pattern — weight 1 per culprit). The flight
/// recorder persists these so a forensic bundle shows *why* a component
/// was named, not just which.
struct LocalizationVote {
  sim::ComponentRef component;
  double weight = 0.0;
  const char* source = "";  ///< static string
};

struct Localization {
  std::vector<sim::ComponentRef> culprits;
  LocalizationMethod method = LocalizationMethod::kUnlocalized;
  /// How much of the evidence the verdict rests on was actually observed.
  /// 1.0 when every consulted signal answered (the honest-plane case);
  /// traceroute refinement under per-hop response loss lowers it to the
  /// fraction of observable hops that responded. Surfaced on FailureCase.
  double confidence = 1.0;
  /// The evidence tally behind the verdict (deterministic order).
  std::vector<LocalizationVote> votes;

  [[nodiscard]] bool found() const noexcept { return !culprits.empty(); }
};

/// A path-scoped anomaly hint: the detector flagged this pair on one
/// specific equal-cost member (an `AnomalyEvent` whose `path_id` is not
/// `kAnyPath`). Hinted pairs vote only on the components of
/// `route_via(src, dst, path_id)` — the member the evidence actually rode —
/// instead of the static ECMP selection, which under spray may never have
/// carried the anomalous probes at all.
struct PathScopedAnomaly {
  EndpointPair pair;
  std::uint32_t path_id = 0;
};

struct LocalizerConfig {
  /// Traceroute-refined verdicts are demoted to kUnlocalized only when
  /// hop coverage falls below this fraction — partial evidence still
  /// localizes (with reduced confidence); near-total blindness does not.
  double min_traceroute_coverage = 0.25;
};

/// Outcome of the traceroute refinement pass, with the evidence quality
/// the vote was computed from (exposed for unit tests).
struct TracerouteRefinement {
  std::vector<sim::ComponentRef> culprits;
  /// Responded fraction of the hops that were observable across all
  /// replayed paths (1.0 when refinement was skipped or every reply came
  /// back).
  double coverage = 1.0;
  bool ran = false;  ///< whether traceroutes were actually issued
  /// Per-link death votes (source "traceroute"), link-index order.
  std::vector<LocalizationVote> votes;
};

class Localizer {
 public:
  Localizer(const topo::Topology& topo,
            const overlay::OverlayNetwork& overlay, DiagnosticsOracle& oracle,
            const sim::FaultInjector& faults, LocalizerConfig cfg = {});

  /// Attach the observability context (nullptr detaches): per-method
  /// verdict counters plus trace instants for vote rounds and traceroute
  /// refinement.
  void attach_obs(obs::Context* ctx);

  /// Attach a gray-telemetry plan (nullptr detaches): traceroute replays
  /// then lose individual hop responses per the plan's kTracerouteHopLoss
  /// episodes, drawing from `rng`. The pointer must outlive the localizer.
  void attach_telemetry(const sim::TelemetryFaultPlan* plan, RngStream rng);

  /// Full Algorithm-1 pipeline over one failure case. Pairs listed in
  /// `path_hints` vote only on their hinted equal-cost members' components
  /// (spray-aware tomography).
  [[nodiscard]] Localization localize(
      const std::vector<EndpointPair>& anomalous_pairs, SimTime at,
      std::span<const PathScopedAnomaly> path_hints = {});

  // --- Algorithm 1 building blocks (exposed for unit tests) ---------------
  /// OverlayReachability(L_O): replay the logical chain of one pair
  /// (OverlayNetwork::walk, at most 64 hops).
  [[nodiscard]] overlay::OverlayWalk overlay_reachability(Endpoint src,
                                                         Endpoint dst) const;

  /// PhysicalIntersection(L_U): vote links/switches over the pairs' paths.
  /// Each unhinted pair contributes weight 1 to every component of its
  /// forward route and weight 0.5 to components crossed only by its reverse
  /// route `route(dst, src)` — return traffic rides it, and a return-only
  /// fault degrades the pair just the same, so reverse components must be
  /// candidates (at reduced confidence: the forward direction was observed,
  /// the reverse is inferred). Hinted pairs contribute weight 1 to their
  /// hinted members' components only. Returns the max-weight components
  /// when the best weight strictly exceeds one pair's worth of evidence.
  [[nodiscard]] std::vector<sim::ComponentRef> physical_intersection(
      const std::vector<EndpointPair>& pairs,
      std::span<const PathScopedAnomaly> path_hints = {}) const;

  /// The raw tally behind physical_intersection, in ComponentRef order per
  /// source: "intersection" entries (forward crossings, count ≥ 2 —
  /// byte-identical to the pre-path-diversity record), then "reverse-path"
  /// entries (0.5 x reverse crossings, ≥ 2 of them), then "path" entries
  /// (hinted-member crossings, count ≥ 2).
  [[nodiscard]] std::vector<LocalizationVote> physical_intersection_votes(
      const std::vector<EndpointPair>& pairs,
      std::span<const PathScopedAnomaly> path_hints = {}) const;

  /// Validate the RNICs of the pairs' endpoints: dump OVS vs offloaded flow
  /// tables and return RNICs with inconsistencies.
  [[nodiscard]] std::vector<sim::ComponentRef> validate_rnics(
      const std::vector<EndpointPair>& pairs) const;

  /// Host-agent traceroute refinement (§5.3): when intersection voting ties
  /// between several links, replay the pairs' paths hop by hop and keep the
  /// links traceroutes actually die on. Hop-loss tolerant: the death point
  /// of a path is the start of its maximal silent SUFFIX (a silent hop
  /// followed by a responding one is a lost reply, not a dead hop), each
  /// vote is weighted by the fraction of the pre-death prefix that
  /// responded, and overall hop coverage is reported for the confidence
  /// score / demotion threshold.
  [[nodiscard]] TracerouteRefinement refine_with_traceroute(
      const std::vector<EndpointPair>& pairs,
      std::vector<sim::ComponentRef> voted, SimTime at) const;

 private:
  /// Per-component evidence accumulated by tally_paths. `weight` is the
  /// max-merged decision weight (per pair: 1.0 forward / hinted, 0.5
  /// reverse-only); `touched` the distinct pairs contributing any of it;
  /// the remaining fields are the per-source crossing counts behind the
  /// vote record.
  struct PathTally {
    double weight = 0.0;
    std::size_t touched = 0;
    std::size_t fwd = 0;
    std::size_t rev = 0;
    std::size_t path = 0;
  };
  using Tally = std::map<sim::ComponentRef, PathTally>;
  [[nodiscard]] Tally tally_paths(
      const std::vector<EndpointPair>& pairs,
      std::span<const PathScopedAnomaly> path_hints) const;
  /// physical_intersection's verdict over a tally of `n_pairs` pairs.
  [[nodiscard]] static std::vector<sim::ComponentRef> intersection_culprits(
      const Tally& tally, std::size_t n_pairs);
  /// physical_intersection_votes's record of a tally.
  [[nodiscard]] static std::vector<LocalizationVote> intersection_votes(
      const Tally& tally);

  [[nodiscard]] sim::ComponentRef component_of_overlay_node(
      VPortId node, bool loop) const;
  [[nodiscard]] Localization endpoint_pattern(
      const std::vector<EndpointPair>& pairs, SimTime at);
  [[nodiscard]] Localization localize_impl(
      const std::vector<EndpointPair>& anomalous_pairs, SimTime at,
      std::span<const PathScopedAnomaly> path_hints);

  const topo::Topology& topo_;
  const overlay::OverlayNetwork& overlay_;
  DiagnosticsOracle& oracle_;
  const sim::FaultInjector& faults_;
  LocalizerConfig cfg_;

  const sim::TelemetryFaultPlan* telemetry_ = nullptr;
  /// Traceroute hop-loss draws; mutable because refinement is logically
  /// const (it only reads network state) but the gray plane consumes
  /// randomness.
  mutable RngStream telemetry_rng_{0};

  obs::Context* obs_ = nullptr;
  obs::Counter m_calls_;
  /// Indexed by LocalizationMethod.
  obs::Counter m_method_[6];
  /// "path"-source vote records emitted (spray-aware tomography evidence).
  obs::Counter m_path_votes_;
};

}  // namespace skh::core
