#include "core/localize.h"

#include <algorithm>
#include <map>
#include <set>

#include "probe/traceroute.h"

namespace skh::core {

std::string_view to_string(LocalizationMethod m) noexcept {
  switch (m) {
    case LocalizationMethod::kOverlayReachability:
      return "overlay-reachability";
    case LocalizationMethod::kPhysicalIntersection:
      return "physical-intersection";
    case LocalizationMethod::kRnicValidation: return "rnic-validation";
    case LocalizationMethod::kEndpointPattern: return "endpoint-pattern";
    case LocalizationMethod::kUnlocalized: return "unlocalized";
    case LocalizationMethod::kCollectiveChain: return "collective-chain";
  }
  return "unknown";
}

std::optional<LinkId> dead_link_of(const probe::TracerouteResult& tr) {
  const auto dead = tr.first_dead_hop();
  if (!dead) return std::nullopt;
  const LinkId link = tr.hops[*dead].link;
  if (!link.valid()) return std::nullopt;
  return link;
}

Localizer::Localizer(const topo::Topology& topo,
                     const overlay::OverlayNetwork& overlay,
                     DiagnosticsOracle& oracle,
                     const sim::FaultInjector& faults, LocalizerConfig cfg)
    : topo_(topo), overlay_(overlay), oracle_(oracle), faults_(faults),
      cfg_(cfg) {}

void Localizer::attach_telemetry(const sim::TelemetryFaultPlan* plan,
                                 RngStream rng) {
  telemetry_ = plan;
  telemetry_rng_ = rng;
}

void Localizer::attach_obs(obs::Context* ctx) {
  obs_ = ctx;
  if (ctx == nullptr) {
    m_calls_ = {};
    m_path_votes_ = {};
    for (auto& m : m_method_) m = {};
    return;
  }
  auto& r = ctx->registry;
  m_calls_ = r.bind_counter(r.counter_id("localize.calls"));
  m_path_votes_ = r.bind_counter(r.counter_id("localize.path_votes"));
  static constexpr const char* kMethodMetric[6] = {
      "localize.method.overlay_reachability",
      "localize.method.physical_intersection",
      "localize.method.rnic_validation",
      "localize.method.endpoint_pattern",
      "localize.method.unlocalized",
      "localize.method.collective_chain",
  };
  for (std::size_t i = 0; i < 6; ++i) {
    m_method_[i] = r.bind_counter(r.counter_id(kMethodMetric[i]));
  }
}

TracerouteRefinement Localizer::refine_with_traceroute(
    const std::vector<EndpointPair>& pairs,
    std::vector<sim::ComponentRef> voted, SimTime at) const {
  TracerouteRefinement out;
  // Only meaningful when several links tie and the failure is a hard break
  // a traceroute can die on.
  std::size_t link_candidates = 0;
  for (const auto& c : voted) {
    if (c.kind == sim::ComponentKind::kPhysicalLink) ++link_candidates;
  }
  if (link_candidates < 2) {
    out.culprits = std::move(voted);
    return out;
  }
  out.ran = true;

  const double hop_loss =
      telemetry_ == nullptr
          ? 0.0
          : telemetry_->magnitude_at(
                sim::TelemetryFaultKind::kTracerouteHopLoss, at);
  std::map<std::uint32_t, double> dead_votes;  // link index -> vote weight
  double observed_hops = 0.0;
  double observable_hops = 0.0;
  for (const auto& p : pairs) {
    const auto tr = probe::traceroute(
        topo_, faults_, p.src.rnic, p.dst.rnic, at, hop_loss,
        hop_loss > 0.0 ? &telemetry_rng_ : nullptr);
    if (tr.hops.empty()) continue;  // intra-host path: no underlay evidence
    std::size_t responded = 0;
    std::size_t suffix = 0;  // index after the last responding hop
    for (std::size_t k = 0; k < tr.hops.size(); ++k) {
      if (tr.hops[k].responded) {
        ++responded;
        suffix = k + 1;
      }
    }
    if (tr.reached_destination) {
      // Healthy replay: every hop was observable (responses could still be
      // lost mid-path without stopping the trace).
      observed_hops += static_cast<double>(responded);
      observable_hops += static_cast<double>(tr.hops.size());
      continue;
    }
    // Dead path. A silent hop FOLLOWED by a responding one is a lost reply
    // (transit clearly worked), so the death point is the start of the
    // maximal silent suffix. Hops before it were observable.
    observed_hops += static_cast<double>(responded);
    observable_hops += static_cast<double>(suffix);
    if (responded == 0) {
      if (hop_loss > 0.0) continue;  // fully blind: death vs loss undecidable
      // Honest plane, everything silent: genuine death at the first hop.
      if (tr.hops.front().link.valid()) {
        dead_votes[tr.hops.front().link.value()] += 1.0;
      }
      continue;
    }
    const LinkId death = tr.hops[suffix].link;
    if (!death.valid()) continue;
    // Weight by how much of the pre-death prefix actually responded: a
    // fully observed prefix is a certain vote (weight 1, the honest-plane
    // value); a gappy one might place the death too early.
    dead_votes[death.value()] +=
        static_cast<double>(responded) / static_cast<double>(suffix);
  }
  out.coverage =
      observable_hops > 0.0 ? observed_hops / observable_hops : 1.0;
  for (const auto& [l, w] : dead_votes) {
    out.votes.push_back(LocalizationVote{
        {sim::ComponentKind::kPhysicalLink, l}, w, "traceroute"});
  }
  if (obs_ != nullptr) {
    obs_->tracer.instant("localize", "traceroute.refine", at, link_candidates,
                         dead_votes.size(), out.coverage);
  }
  if (dead_votes.empty()) {
    out.culprits = std::move(voted);  // soft failure; keep the tie
    return out;
  }
  double best = 0.0;
  for (const auto& [l, w] : dead_votes) best = std::max(best, w);
  std::vector<sim::ComponentRef> refined;
  for (const auto& c : voted) {
    if (c.kind != sim::ComponentKind::kPhysicalLink) continue;
    const auto it = dead_votes.find(c.index);
    if (it != dead_votes.end() && it->second == best) refined.push_back(c);
  }
  if (!refined.empty()) out.culprits = std::move(refined);
  else out.culprits = std::move(voted);
  return out;
}

overlay::OverlayWalk Localizer::overlay_reachability(Endpoint src,
                                                    Endpoint dst) const {
  return overlay_.walk(src, dst, overlay::OverlayNetwork::kMaxWalkSteps);
}

sim::ComponentRef Localizer::component_of_overlay_node(VPortId node,
                                                       bool loop) const {
  if (!node.valid()) {
    return {sim::ComponentKind::kContainer, 0};
  }
  const auto& n = overlay_.node(node);
  switch (n.kind) {
    case overlay::NodeKind::kContainerNs:
    case overlay::NodeKind::kVeth:
      // A broken container-side chain means the container runtime tore the
      // interface down (crash); a loop there is still an OVS rule problem.
      if (!loop) return {sim::ComponentKind::kContainer, n.container.value()};
      [[fallthrough]];
    case overlay::NodeKind::kOvsPort:
    case overlay::NodeKind::kVxlanTunnel:
      return {sim::ComponentKind::kVSwitch, n.host.value()};
    case overlay::NodeKind::kRnicVf:
      return {sim::ComponentKind::kRnic, n.rnic.value()};
  }
  return {sim::ComponentKind::kVSwitch, n.host.value()};
}

namespace {

void collect_components(const topo::Path& path,
                        std::set<sim::ComponentRef>& out) {
  for (LinkId l : path.links) {
    out.insert({sim::ComponentKind::kPhysicalLink, l.value()});
  }
  for (SwitchId s : path.switches) {
    out.insert({sim::ComponentKind::kPhysicalSwitch, s.value()});
  }
}

}  // namespace

Localizer::Tally Localizer::tally_paths(
    const std::vector<EndpointPair>& pairs,
    std::span<const PathScopedAnomaly> path_hints) const {
  // Hinted equal-cost members per pair (a pair may be hinted on several).
  std::map<EndpointPair, std::vector<std::uint32_t>> hinted;
  for (const auto& h : path_hints) hinted[h.pair].push_back(h.path_id);

  Tally tally;
  for (const auto& p : pairs) {
    // Per-pair component sets — each component counts once per pair even
    // when both probe directions were flagged or several hinted members
    // share it.
    std::set<sim::ComponentRef> fwd;
    std::set<sim::ComponentRef> rev;
    const auto hint = hinted.find(p);
    if (hint != hinted.end()) {
      // Path-scoped evidence: the anomaly names the member(s) it rode, so
      // the pair votes only there — under spray the static selection may
      // never have carried the anomalous probes at all.
      const std::uint32_t n = topo_.num_paths(p.src.rnic, p.dst.rnic);
      for (std::uint32_t m : hint->second) {
        if (m >= n) continue;  // stale hint (topology shrank): no vote
        collect_components(topo_.route_via(p.src.rnic, p.dst.rnic, m), fwd);
      }
      for (const auto& c : fwd) {
        PathTally& t = tally[c];
        t.weight += 1.0;
        ++t.touched;
        ++t.path;
      }
      continue;
    }
    collect_components(topo_.route(p.src.rnic, p.dst.rnic), fwd);
    // The pair's return traffic rides route(dst, src), which static ECMP
    // may hash onto a different spine — a fault there degrades the pair's
    // RTT/loss just the same. Reverse-only components join the candidate
    // set at half weight (the forward direction was observed; the reverse
    // is inferred), max-merged so a component on both directions stays at
    // one pair's worth of evidence.
    collect_components(topo_.route(p.dst.rnic, p.src.rnic), rev);
    for (const auto& c : fwd) {
      PathTally& t = tally[c];
      t.weight += 1.0;
      ++t.touched;
      ++t.fwd;
    }
    for (const auto& c : rev) {
      PathTally& t = tally[c];
      ++t.rev;
      if (!fwd.contains(c)) {
        t.weight += 0.5;
        ++t.touched;
      }
    }
  }
  return tally;
}

std::vector<sim::ComponentRef> Localizer::physical_intersection(
    const std::vector<EndpointPair>& pairs,
    std::span<const PathScopedAnomaly> path_hints) const {
  return intersection_culprits(tally_paths(pairs, path_hints), pairs.size());
}

std::vector<sim::ComponentRef> Localizer::intersection_culprits(
    const Tally& tally, std::size_t n_pairs) {
  double best = 0.0;
  for (const auto& [c, t] : tally) best = std::max(best, t.weight);
  // One pair's worth of evidence is just "the pair's own path" — the
  // strictly-greater floor replaces the old count >= 2 rule and keeps
  // single-pair cases falling through to the later steps. (A reverse-only
  // component needs two pairs' reverse routes, 0.5 + 0.5, to cross it —
  // the bugfix for return-route faults that used to be invisible here.)
  if (best <= 1.0) return {};  // no intersection evidence (Algorithm 1)

  // Among max-weight components prefer links over switches: a faulty link
  // inflates its two endpoint switches to the same weight, and the link is
  // the more specific verdict. A genuinely faulty switch accumulates more
  // pairs than any single one of its links. Coverage floor: a genuinely
  // faulty physical component sits on (nearly) every anomalous path — when
  // even the best component touches only a minority of the pairs, the
  // anomaly is not path-shaped (host-scope faults fan out over all rails
  // and split the vote across ToRs); report no underlay verdict and let
  // the endpoint-pattern step classify it.
  std::vector<sim::ComponentRef> links;
  std::vector<sim::ComponentRef> switches;
  for (const auto& [c, t] : tally) {
    if (t.weight != best) continue;
    if (t.touched < 2 ||
        static_cast<double>(t.touched) <
            0.7 * static_cast<double>(n_pairs)) {
      continue;
    }
    (c.kind == sim::ComponentKind::kPhysicalLink ? links : switches)
        .push_back(c);
  }
  return links.empty() ? switches : links;
}

std::vector<LocalizationVote> Localizer::physical_intersection_votes(
    const std::vector<EndpointPair>& pairs,
    std::span<const PathScopedAnomaly> path_hints) const {
  return intersection_votes(tally_paths(pairs, path_hints));
}

std::vector<LocalizationVote> Localizer::intersection_votes(
    const Tally& tally) {
  std::vector<LocalizationVote> votes;
  // A count of one is just "the pair's own path", not intersection
  // evidence — the same floor physical_intersection applies. Grouped by
  // source, ComponentRef order within each group; the "intersection" block
  // is byte-identical to the pre-path-diversity record.
  for (const auto& [c, t] : tally) {
    if (t.fwd < 2) continue;
    votes.push_back(LocalizationVote{c, static_cast<double>(t.fwd),
                                     "intersection"});
  }
  for (const auto& [c, t] : tally) {
    if (t.rev < 2) continue;
    votes.push_back(LocalizationVote{c, 0.5 * static_cast<double>(t.rev),
                                     "reverse-path"});
  }
  for (const auto& [c, t] : tally) {
    if (t.path < 2) continue;
    votes.push_back(LocalizationVote{c, static_cast<double>(t.path),
                                     "path"});
  }
  return votes;
}

std::vector<sim::ComponentRef> Localizer::validate_rnics(
    const std::vector<EndpointPair>& pairs) const {
  std::set<RnicId> rnics;
  for (const auto& p : pairs) {
    rnics.insert(p.src.rnic);
    rnics.insert(p.dst.rnic);
  }
  std::vector<sim::ComponentRef> out;
  for (RnicId r : rnics) {
    if (!overlay_.offload_inconsistencies(r).empty()) {
      out.push_back({sim::ComponentKind::kRnic, r.value()});
    }
  }
  return out;
}

Localization Localizer::endpoint_pattern(
    const std::vector<EndpointPair>& pairs, SimTime at) {
  Localization loc;
  loc.method = LocalizationMethod::kEndpointPattern;

  // Collect the endpoints and hosts involved.
  std::map<Endpoint, std::size_t> endpoint_count;
  for (const auto& p : pairs) {
    ++endpoint_count[p.src];
    ++endpoint_count[p.dst];
  }
  // An endpoint present in every anomalous pair is the prime suspect.
  std::vector<Endpoint> shared;
  for (const auto& [ep, n] : endpoint_count) {
    if (n == pairs.size()) shared.push_back(ep);
  }
  if (shared.size() == 1) {
    const Endpoint& ep = shared.front();
    const HostId host = topo_.host_of(ep.rnic);
    // Host-scope signals outrank the RNIC when confirmed.
    if (oracle_.confirms({sim::ComponentKind::kVSwitch, host.value()}, at)) {
      loc.culprits.push_back({sim::ComponentKind::kVSwitch, host.value()});
      return loc;
    }
    if (oracle_.confirms({sim::ComponentKind::kHost, host.value()}, at)) {
      loc.culprits.push_back({sim::ComponentKind::kHost, host.value()});
      return loc;
    }
    if (oracle_.confirms({sim::ComponentKind::kContainer,
                          ep.container.value()}, at)) {
      loc.culprits.push_back(
          {sim::ComponentKind::kContainer, ep.container.value()});
      return loc;
    }
    loc.culprits.push_back({sim::ComponentKind::kRnic, ep.rnic.value()});
    return loc;
  }
  if (shared.size() == 2) {
    // Degenerate single-pair case: one (possibly bidirectional) anomalous
    // pair makes both endpoints appear in every pair, so neither recurrence
    // counting (recur_floor of 3 can never be met) nor intersection can
    // separate them. Ask config/log inspection about each endpoint in the
    // same host-scope-first priority as the single-endpoint branch; with no
    // confirmation, report both RNICs as a tied verdict rather than
    // dropping the case as unlocalized.
    for (const Endpoint& ep : shared) {
      const HostId host = topo_.host_of(ep.rnic);
      if (oracle_.confirms({sim::ComponentKind::kVSwitch, host.value()}, at)) {
        loc.culprits.push_back({sim::ComponentKind::kVSwitch, host.value()});
        return loc;
      }
    }
    for (const Endpoint& ep : shared) {
      const HostId host = topo_.host_of(ep.rnic);
      if (oracle_.confirms({sim::ComponentKind::kHost, host.value()}, at)) {
        loc.culprits.push_back({sim::ComponentKind::kHost, host.value()});
        return loc;
      }
    }
    for (const Endpoint& ep : shared) {
      if (oracle_.confirms({sim::ComponentKind::kContainer,
                            ep.container.value()}, at)) {
        loc.culprits.push_back(
            {sim::ComponentKind::kContainer, ep.container.value()});
        return loc;
      }
    }
    for (const Endpoint& ep : shared) {
      if (oracle_.confirms({sim::ComponentKind::kRnic, ep.rnic.value()}, at)) {
        loc.culprits.push_back({sim::ComponentKind::kRnic, ep.rnic.value()});
        return loc;
      }
    }
    for (const Endpoint& ep : shared) {
      loc.culprits.push_back({sim::ComponentKind::kRnic, ep.rnic.value()});
    }
    return loc;
  }
  // Multiple endpoints of one host across rails: host-scope problem. Only
  // *recurring* endpoints vote — a healthy peer appears in just the one or
  // two (bidirectional) pairs that cross the faulty host, while the faulty
  // host's endpoints recur across all their peers.
  std::size_t max_recur = 0;
  for (const auto& [ep, n] : endpoint_count) {
    max_recur = std::max(max_recur, n);
  }
  const std::size_t recur_floor = std::max<std::size_t>(3, max_recur / 2);
  std::set<HostId> hosts;
  std::set<std::uint32_t> rails;
  for (const auto& [ep, n] : endpoint_count) {
    if (n < recur_floor) continue;
    hosts.insert(topo_.host_of(ep.rnic));
    rails.insert(topo_.rail_of(ep.rnic));
  }
  if (!hosts.empty() && hosts.size() <= 2 && rails.size() >= 2) {
    // Pick the host whose endpoints recur most.
    std::map<HostId, std::size_t> host_votes;
    for (const auto& [ep, n] : endpoint_count) {
      if (n >= recur_floor) host_votes[topo_.host_of(ep.rnic)] += n;
    }
    const auto best = std::max_element(
        host_votes.begin(), host_votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    const HostId host = best->first;
    if (oracle_.confirms({sim::ComponentKind::kVSwitch, host.value()}, at)) {
      loc.culprits.push_back({sim::ComponentKind::kVSwitch, host.value()});
    } else {
      loc.culprits.push_back({sim::ComponentKind::kHost, host.value()});
    }
    return loc;
  }
  loc.method = LocalizationMethod::kUnlocalized;
  return loc;
}

Localization Localizer::localize(
    const std::vector<EndpointPair>& anomalous_pairs, SimTime at,
    std::span<const PathScopedAnomaly> path_hints) {
  Localization loc = localize_impl(anomalous_pairs, at, path_hints);
  // Steps with no intermediate tally (overlay, RNIC validation, endpoint
  // pattern) still expose their verdict as unit-weight votes, so the
  // forensic vote record is never empty for a localized case.
  if (loc.votes.empty() && !loc.culprits.empty()) {
    for (const auto& c : loc.culprits) {
      loc.votes.push_back(
          LocalizationVote{c, 1.0, to_string(loc.method).data()});
    }
  }
  for (const auto& v : loc.votes) {
    if (std::string_view(v.source) == "path") m_path_votes_.inc();
  }
  m_calls_.inc();
  m_method_[static_cast<std::size_t>(loc.method)].inc();
  if (obs_ != nullptr) {
    obs_->tracer.instant("localize", to_string(loc.method).data(), at,
                         loc.culprits.size(), anomalous_pairs.size());
  }
  return loc;
}

Localization Localizer::localize_impl(
    const std::vector<EndpointPair>& anomalous_pairs, SimTime at,
    std::span<const PathScopedAnomaly> path_hints) {
  Localization loc;
  if (anomalous_pairs.empty()) return loc;

  // Step 1: overlay logical reachability per pair. A torn-down endpoint
  // chain (container gone while peers still probe it) indicts that
  // container directly; otherwise the forwarding-chain replay names the
  // broken component.
  std::set<sim::ComponentRef> overlay_culprits;
  for (const auto& p : anomalous_pairs) {
    if (!overlay_.attached(p.dst)) {
      overlay_culprits.insert(
          {sim::ComponentKind::kContainer, p.dst.container.value()});
      continue;
    }
    if (!overlay_.attached(p.src)) {
      overlay_culprits.insert(
          {sim::ComponentKind::kContainer, p.src.container.value()});
      continue;
    }
    const auto v = overlay_reachability(p.src, p.dst);
    if (!v.reachable) {
      overlay_culprits.insert(
          component_of_overlay_node(v.failure_point, v.loop));
    }
  }
  if (!overlay_culprits.empty()) {
    loc.method = LocalizationMethod::kOverlayReachability;
    loc.culprits.assign(overlay_culprits.begin(), overlay_culprits.end());
    return loc;
  }

  // Step 2: underlay physical intersection, refined by host-agent
  // traceroutes when several links tie. One tally feeds the verdict and
  // the vote record.
  const Tally tally = tally_paths(anomalous_pairs, path_hints);
  auto refined = refine_with_traceroute(
      anomalous_pairs, intersection_culprits(tally, anomalous_pairs.size()),
      at);
  loc.votes = intersection_votes(tally);
  loc.votes.insert(loc.votes.end(), refined.votes.begin(),
                   refined.votes.end());
  if (obs_ != nullptr) {
    obs_->tracer.instant("localize", "vote.physical", at,
                         refined.culprits.size(), anomalous_pairs.size());
  }
  if (refined.ran && refined.coverage < cfg_.min_traceroute_coverage) {
    // The refinement pass was nearly blind: whatever the vote said rests on
    // too few observed hops to indict hardware. Demote rather than point at
    // a component the evidence cannot support — but only below the
    // threshold; partial coverage above it still localizes (with the
    // reduced confidence recorded on the verdict).
    loc.method = LocalizationMethod::kUnlocalized;
    loc.confidence = refined.coverage;
    return loc;
  }
  auto& voted = refined.culprits;
  if (!voted.empty()) {
    // Uplink verdicts are observationally equivalent to the RNIC behind the
    // port; only keep the link when switch logs confirm it.
    std::vector<sim::ComponentRef> confirmed;
    for (const auto& c : voted) {
      if (c.kind == sim::ComponentKind::kPhysicalLink) {
        const auto& link = topo_.link_at(LinkId{c.index});
        if (link.tier == topo::LinkTier::kHostToTor &&
            !oracle_.confirms(c, at)) {
          // Re-attribute to the RNIC (validated next) rather than the fiber.
          continue;
        }
      }
      confirmed.push_back(c);
    }
    if (!confirmed.empty()) {
      loc.method = LocalizationMethod::kPhysicalIntersection;
      loc.culprits = std::move(confirmed);
      if (refined.ran) loc.confidence = refined.coverage;
      return loc;
    }
  }

  // Step 3: RNIC flow-table validation.
  auto rnics = validate_rnics(anomalous_pairs);
  if (!rnics.empty()) {
    loc.method = LocalizationMethod::kRnicValidation;
    for (const auto& c : rnics) {
      loc.votes.push_back(LocalizationVote{c, 1.0, "rnic-validation"});
    }
    loc.culprits = std::move(rnics);
    return loc;
  }

  // Step 4: endpoint-pattern classification with config inspection.
  return endpoint_pattern(anomalous_pairs, at);
}

}  // namespace skh::core
