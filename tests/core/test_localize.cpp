#include "core/localize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "../testutil.h"

namespace skh::core {
namespace {

using testutil::SimEnv;

class LocalizeTest : public ::testing::Test {
 protected:
  LocalizeTest()
      : env_([] {
          // Small segments so the task spans two of them (the spine-link
          // intersection test needs cross-segment pairs).
          auto cfg = testutil::small_topology();
          cfg.hosts_per_segment = 4;
          return cfg;
        }()),
        oracle_(env_.faults, RngStream{11}) {
    task_ = testutil::run_task_to_running(env_, 8);
    endpoints_ = env_.orch.endpoints_of_task(task_);
    localizer_.emplace(env_.topo, env_.overlay, oracle_, env_.faults);
  }

  /// All directed same-rank pairs touching `ep`.
  std::vector<EndpointPair> pairs_of(const Endpoint& ep) {
    std::vector<EndpointPair> out;
    for (const auto& other : endpoints_) {
      if (other.container == ep.container) continue;
      if (env_.topo.rail_of(other.rnic) != env_.topo.rail_of(ep.rnic)) continue;
      out.push_back({ep, other});
      out.push_back({other, ep});
    }
    return out;
  }

  SimEnv env_;
  DiagnosticsOracle oracle_;
  std::optional<Localizer> localizer_;
  TaskId task_;
  std::vector<Endpoint> endpoints_;
};

TEST_F(LocalizeTest, OverlayBrokenRuleIsVSwitchVerdict) {
  const Endpoint src = endpoints_[0];
  const Endpoint dst = endpoints_[8];
  env_.overlay.break_rule(env_.overlay.chain_of(src).ovs, dst);
  const auto v = localizer_->overlay_reachability(src, dst);
  EXPECT_FALSE(v.reachable);
  EXPECT_FALSE(v.loop);
  const auto loc = localizer_->localize({{src, dst}}, SimTime::seconds(10));
  EXPECT_EQ(loc.method, LocalizationMethod::kOverlayReachability);
  ASSERT_EQ(loc.culprits.size(), 1u);
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kVSwitch);
  EXPECT_EQ(loc.culprits[0].index,
            env_.topo.host_of(src.rnic).value());
}

TEST_F(LocalizeTest, OverlayLoopIsDetected) {
  const Endpoint src = endpoints_[0];
  const Endpoint dst = endpoints_[8];
  const auto& chain = env_.overlay.chain_of(src);
  env_.overlay.corrupt_rule_to_loop(chain.vxlan, dst, chain.veth);
  const auto v = localizer_->overlay_reachability(src, dst);
  EXPECT_FALSE(v.reachable);
  EXPECT_TRUE(v.loop);
  const auto loc = localizer_->localize({{src, dst}}, SimTime::seconds(10));
  EXPECT_EQ(loc.method, LocalizationMethod::kOverlayReachability);
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kVSwitch);
}

TEST_F(LocalizeTest, HealthyOverlayIsReachable) {
  const auto v =
      localizer_->overlay_reachability(endpoints_[0], endpoints_[8]);
  EXPECT_TRUE(v.reachable);
}

TEST_F(LocalizeTest, SameHostPairIsReachable) {
  // Two 4-GPU containers of one task on one host: the host's OVS and VXLAN
  // nodes sit on both legs of their flow. The replay must reach the peer
  // rather than report a loop that indicts the host's vswitch.
  const HostId host{15};
  const Endpoint a{ContainerId{900}, env_.topo.rnic_of(host, 0)};
  const Endpoint b{ContainerId{901}, env_.topo.rnic_of(host, 4)};
  env_.overlay.attach_endpoint(a, host, /*vni=*/77);
  env_.overlay.attach_endpoint(b, host, /*vni=*/77);
  const auto v = localizer_->overlay_reachability(a, b);
  EXPECT_TRUE(v.reachable);
  EXPECT_FALSE(v.loop);
  EXPECT_FALSE(v.failure_point.valid());
  const auto loc = localizer_->localize({{a, b}}, SimTime::seconds(10));
  EXPECT_NE(loc.method, LocalizationMethod::kOverlayReachability);
}

TEST_F(LocalizeTest, TorSwitchFaultWinsIntersectionVote) {
  // ToR (segment 0, rail 0) dies: every same-rail pair between hosts 0-7
  // crossing that ToR is anomalous.
  const SwitchId tor = env_.topo.tor_at(0, 0);
  env_.faults.inject(sim::IssueType::kSwitchOffline,
                     {sim::ComponentKind::kPhysicalSwitch, tor.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  // Anomalous pairs: the rail-0 pairs whose route crosses the dead ToR.
  std::vector<EndpointPair> anomalous;
  for (const auto& a : endpoints_) {
    for (const auto& b : endpoints_) {
      if (a.container == b.container) continue;
      if (env_.topo.rail_of(a.rnic) != 0 || env_.topo.rail_of(b.rnic) != 0) {
        continue;
      }
      const auto path = env_.topo.route(a.rnic, b.rnic);
      if (std::find(path.switches.begin(), path.switches.end(), tor) !=
          path.switches.end()) {
        anomalous.push_back({a, b});
      }
    }
  }
  const auto loc = localizer_->localize(anomalous, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kPhysicalIntersection);
  ASSERT_FALSE(loc.culprits.empty());
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kPhysicalSwitch);
  EXPECT_EQ(loc.culprits[0].index, tor.value());
}

TEST_F(LocalizeTest, UplinkCrcFaultBlamedOnLinkWithLogs) {
  const Endpoint victim = endpoints_[0];
  const LinkId uplink = env_.topo.uplink_of(victim.rnic);
  env_.faults.inject(sim::IssueType::kCrcError,
                     {sim::ComponentKind::kPhysicalLink, uplink.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto loc =
      localizer_->localize(pairs_of(victim), SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kPhysicalIntersection);
  ASSERT_EQ(loc.culprits.size(), 1u);
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kPhysicalLink);
  EXPECT_EQ(loc.culprits[0].index, uplink.value());
}

TEST_F(LocalizeTest, RnicFaultWithoutLinkLogsBlamesRnic) {
  // No link fault injected => no switch warning logs => the uplink verdict
  // is re-attributed; endpoint pattern then blames the RNIC.
  const Endpoint victim = endpoints_[0];
  env_.faults.inject(sim::IssueType::kRnicHardwareFailure,
                     {sim::ComponentKind::kRnic, victim.rnic.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto loc = localizer_->localize(pairs_of(victim), SimTime::minutes(1));
  ASSERT_FALSE(loc.culprits.empty());
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kRnic);
  EXPECT_EQ(loc.culprits[0].index, victim.rnic.value());
}

TEST_F(LocalizeTest, OffloadInconsistencyFoundByRnicValidation) {
  // The Figure 18 case: flow tables dumped and diffed.
  const Endpoint victim = endpoints_[3];
  env_.overlay.invalidate_offload(victim.rnic);
  const auto rnics = localizer_->validate_rnics(pairs_of(victim));
  ASSERT_EQ(rnics.size(), 1u);
  EXPECT_EQ(rnics[0].index, victim.rnic.value());
}

TEST_F(LocalizeTest, HostScopeFaultBlamesHost) {
  // GID change on host 0: every rail of host 0 degrades; the recurring
  // endpoints span >= 2 rails of one host.
  env_.faults.inject(sim::IssueType::kGidChange,
                     {sim::ComponentKind::kHost, 0},
                     SimTime::seconds(0), SimTime::hours(1));
  std::vector<EndpointPair> anomalous;
  for (const auto& ep : endpoints_) {
    if (env_.topo.host_of(ep.rnic) != HostId{0}) continue;
    const auto pairs = pairs_of(ep);
    anomalous.insert(anomalous.end(), pairs.begin(), pairs.end());
  }
  const auto loc = localizer_->localize(anomalous, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kEndpointPattern);
  ASSERT_FALSE(loc.culprits.empty());
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kHost);
  EXPECT_EQ(loc.culprits[0].index, 0u);
}

TEST_F(LocalizeTest, VSwitchFaultConfirmedByInspection) {
  env_.faults.inject(sim::IssueType::kNotUsingRdma,
                     {sim::ComponentKind::kVSwitch, 0},
                     SimTime::seconds(0), SimTime::hours(1));
  std::vector<EndpointPair> anomalous;
  for (const auto& ep : endpoints_) {
    if (env_.topo.host_of(ep.rnic) != HostId{0}) continue;
    const auto pairs = pairs_of(ep);
    anomalous.insert(anomalous.end(), pairs.begin(), pairs.end());
  }
  const auto loc = localizer_->localize(anomalous, SimTime::minutes(1));
  ASSERT_FALSE(loc.culprits.empty());
  EXPECT_EQ(loc.culprits[0].kind, sim::ComponentKind::kVSwitch);
  EXPECT_EQ(loc.culprits[0].index, 0u);
}

TEST_F(LocalizeTest, SpineLinkFaultVotedByIntersection) {
  // Pick pairs whose ECMP route crosses segment boundaries on rail 2, then
  // fault the exact tor-spine link of one of them and feed only the pairs
  // that traverse it.
  std::vector<EndpointPair> crossing;
  LinkId faulty;
  for (const auto& a : endpoints_) {
    for (const auto& b : endpoints_) {
      if (a.container == b.container) continue;
      if (env_.topo.rail_of(a.rnic) != 2 || env_.topo.rail_of(b.rnic) != 2) {
        continue;
      }
      const auto path = env_.topo.route(a.rnic, b.rnic);
      if (path.links.size() != 4) continue;  // cross-segment only
      if (!faulty.valid()) faulty = path.links[1];
      if (path.links[1] == faulty) crossing.push_back({a, b});
    }
  }
  ASSERT_TRUE(faulty.valid());
  ASSERT_GE(crossing.size(), 2u);
  env_.faults.inject(sim::IssueType::kCrcError,
                     {sim::ComponentKind::kPhysicalLink, faulty.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto loc = localizer_->localize(crossing, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kPhysicalIntersection);
  bool found = false;
  for (const auto& c : loc.culprits) {
    if (c.kind == sim::ComponentKind::kPhysicalLink &&
        c.index == faulty.value()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// Pins the order-independence the sharded analyzer's merge reducer relies
// on: the intersection vote and the full localization pipeline must return
// the identical verdict (culprits, method, confidence) for any iteration
// order of the anomalous pair set. Shuffle across 10 seeds and compare
// against the unshuffled verdict.
TEST_F(LocalizeTest, VerdictInvariantUnderPairIterationOrder) {
  const SwitchId tor = env_.topo.tor_at(0, 0);
  env_.faults.inject(sim::IssueType::kSwitchOffline,
                     {sim::ComponentKind::kPhysicalSwitch, tor.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  std::vector<EndpointPair> anomalous;
  for (const auto& a : endpoints_) {
    for (const auto& b : endpoints_) {
      if (a.container == b.container) continue;
      if (env_.topo.rail_of(a.rnic) != 0 || env_.topo.rail_of(b.rnic) != 0) {
        continue;
      }
      const auto path = env_.topo.route(a.rnic, b.rnic);
      if (std::find(path.switches.begin(), path.switches.end(), tor) !=
          path.switches.end()) {
        anomalous.push_back({a, b});
      }
    }
  }
  ASSERT_GE(anomalous.size(), 4u);
  const auto want_vote = localizer_->physical_intersection(anomalous);
  const auto want = localizer_->localize(anomalous, SimTime::minutes(1));
  ASSERT_EQ(want.method, LocalizationMethod::kPhysicalIntersection);
  ASSERT_TRUE(want.found());
  for (unsigned seed = 1; seed <= 10; ++seed) {
    auto shuffled = anomalous;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937{seed});
    EXPECT_EQ(localizer_->physical_intersection(shuffled), want_vote)
        << "intersection vote depends on pair order (seed " << seed << ")";
    const auto loc = localizer_->localize(shuffled, SimTime::minutes(1));
    EXPECT_EQ(loc.culprits, want.culprits) << "seed " << seed;
    EXPECT_EQ(loc.method, want.method) << "seed " << seed;
    EXPECT_DOUBLE_EQ(loc.confidence, want.confidence) << "seed " << seed;
  }
}

TEST_F(LocalizeTest, EmptyInputYieldsNothing) {
  const auto loc = localizer_->localize({}, SimTime::seconds(1));
  EXPECT_FALSE(loc.found());
  EXPECT_EQ(loc.method, LocalizationMethod::kUnlocalized);
}

TEST_F(LocalizeTest, SinglePairNoIntersectionEvidence) {
  // Algorithm 1: all counters <= 1 => no underlay verdict.
  const auto voted =
      localizer_->physical_intersection({{endpoints_[0], endpoints_[8]}});
  EXPECT_TRUE(voted.empty());
}

TEST_F(LocalizeTest, SingleBidirectionalPairIsNotDroppedAsUnlocalized) {
  // Regression: one bidirectional anomalous pair puts *both* endpoints in
  // every pair, so recurrence counting (recur_floor = 3) could never
  // separate them and the case came back kUnlocalized. The degenerate
  // 1-pair/2-endpoint branch must keep it: oracle-confirmed endpoint if
  // any, otherwise both RNICs as a tied verdict.
  const Endpoint victim = endpoints_[0];
  env_.faults.inject(sim::IssueType::kRnicHardwareFailure,
                     {sim::ComponentKind::kRnic, victim.rnic.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto all = pairs_of(victim);
  ASSERT_GE(all.size(), 2u);
  // pairs_of emits {victim, peer} immediately followed by {peer, victim}.
  const std::vector<EndpointPair> one_pair{all[0], all[1]};
  const auto loc = localizer_->localize(one_pair, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kEndpointPattern);
  ASSERT_TRUE(loc.found());
  const bool victim_named = std::any_of(
      loc.culprits.begin(), loc.culprits.end(), [&](const auto& c) {
        return c.kind == sim::ComponentKind::kRnic &&
               c.index == victim.rnic.value();
      });
  EXPECT_TRUE(victim_named);
}

// --- Traceroute refinement under partial results ---------------------------
//
// These exercise refine_with_traceroute against the degenerate replays a
// gray measurement plane produces: pairs with no underlay hops at all,
// paths whose every hop went silent, and deaths at the first/last hop of
// the shortest possible (two-hop) path.

class RefineTest : public LocalizeTest {
 protected:
  static sim::ComponentRef link_ref(LinkId l) {
    return {sim::ComponentKind::kPhysicalLink, l.value()};
  }
  static Endpoint fake_ep(RnicId r) {
    return Endpoint{ContainerId{500 + r.value()}, r};
  }
  static EndpointPair rnic_pair(RnicId a, RnicId b) {
    return {fake_ep(a), fake_ep(b)};
  }
};

TEST_F(RefineTest, IntraHostPairsCarryNoUnderlayEvidence) {
  // Same-host rnics route intra-host: the traceroute replay returns an
  // EMPTY hop vector. Refinement must treat that as no evidence — tie
  // kept, full coverage — not crash or cast a vote.
  const RnicId a{0}, b{1};
  ASSERT_TRUE(env_.topo.route(a, b).intra_host);
  const std::vector<sim::ComponentRef> voted{
      link_ref(env_.topo.uplink_of(RnicId{0})),
      link_ref(env_.topo.uplink_of(RnicId{8}))};
  const auto r = localizer_->refine_with_traceroute(
      {rnic_pair(a, b)}, voted, SimTime::minutes(1));
  EXPECT_TRUE(r.ran);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_EQ(r.culprits.size(), 2u);  // the tie survives untouched
  EXPECT_EQ(r.culprits[0], voted[0]);
  EXPECT_EQ(r.culprits[1], voted[1]);
}

TEST_F(RefineTest, AllSilentHonestPathIsADeathAtTheFirstHop) {
  // Shortest inter-host path (two hops, same ToR) with the SOURCE uplink
  // down: every hop is silent. On an honest plane that can only mean the
  // trace died immediately, so the first hop's link takes the vote.
  const RnicId a{0}, b{8};
  ASSERT_EQ(env_.topo.route(a, b).links.size(), 2u);
  const LinkId ua = env_.topo.uplink_of(a);
  const LinkId ub = env_.topo.uplink_of(b);
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, ua.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto r = localizer_->refine_with_traceroute(
      {rnic_pair(a, b)}, {link_ref(ua), link_ref(ub)}, SimTime::minutes(1));
  EXPECT_TRUE(r.ran);
  ASSERT_EQ(r.culprits.size(), 1u);
  EXPECT_EQ(r.culprits[0].index, ua.value());
}

TEST_F(RefineTest, DeathAtTheFinalHopVotesTheLastLink) {
  // Same two-hop path, DESTINATION uplink down: the one-hop silent suffix
  // is the death point and the final link takes a full-weight vote (its
  // entire pre-death prefix responded).
  const RnicId a{0}, b{8};
  const LinkId ua = env_.topo.uplink_of(a);
  const LinkId ub = env_.topo.uplink_of(b);
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, ub.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto r = localizer_->refine_with_traceroute(
      {rnic_pair(a, b)}, {link_ref(ua), link_ref(ub)}, SimTime::minutes(1));
  EXPECT_TRUE(r.ran);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_EQ(r.culprits.size(), 1u);
  EXPECT_EQ(r.culprits[0].index, ub.value());
}

TEST_F(RefineTest, FullHopLossIsUndecidableAndKeepsTheTie) {
  // With EVERY hop response lost, a dead path and a healthy path look the
  // same. Refinement must refuse to guess: no vote, tie kept, and the
  // fully blind replays excluded from coverage rather than counted.
  const RnicId a{0}, b{8};
  const LinkId ua = env_.topo.uplink_of(a);
  const LinkId ub = env_.topo.uplink_of(b);
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, ub.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  sim::TelemetryFaultPlan plan;
  plan.faults.push_back({sim::TelemetryFaultKind::kTracerouteHopLoss,
                         SimTime::seconds(0), SimTime::hours(1), 1.0});
  localizer_->attach_telemetry(&plan, RngStream{3});
  const auto r = localizer_->refine_with_traceroute(
      {rnic_pair(a, b), rnic_pair(b, a)}, {link_ref(ua), link_ref(ub)},
      SimTime::minutes(1));
  localizer_->attach_telemetry(nullptr, RngStream{0});
  EXPECT_TRUE(r.ran);
  ASSERT_EQ(r.culprits.size(), 2u);  // no single-link indictment
  EXPECT_EQ(r.culprits[0], link_ref(ua));
  EXPECT_EQ(r.culprits[1], link_ref(ub));
}

TEST_F(RefineTest, PartialHopLossLowersCoverage) {
  // Cross-segment path (four hops) with the destination uplink down and
  // half the hop responses lost: silent gaps inside responding prefixes
  // must show up as sub-1.0 coverage.
  const RnicId a{0}, b{32};
  ASSERT_EQ(env_.topo.route(a, b).links.size(), 4u);
  const LinkId ub = env_.topo.uplink_of(b);
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, ub.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  sim::TelemetryFaultPlan plan;
  plan.faults.push_back({sim::TelemetryFaultKind::kTracerouteHopLoss,
                         SimTime::seconds(0), SimTime::hours(1), 0.5});
  localizer_->attach_telemetry(&plan, RngStream{7});
  std::vector<EndpointPair> pairs(12, rnic_pair(a, b));
  const auto r = localizer_->refine_with_traceroute(
      pairs, {link_ref(env_.topo.uplink_of(a)), link_ref(ub)},
      SimTime::minutes(1));
  localizer_->attach_telemetry(nullptr, RngStream{0});
  EXPECT_TRUE(r.ran);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_LT(r.coverage, 1.0);
  EXPECT_FALSE(r.culprits.empty());
}

TEST_F(RefineTest, NearBlindRefinementDemotesToUnlocalized) {
  // Full pipeline: when refinement ran but hop coverage lands below the
  // configured floor, the verdict is demoted to kUnlocalized and the
  // coverage is surfaced as the (low) confidence — no hardware gets
  // indicted on evidence that thin. Forced deterministically by raising
  // the floor above any achievable coverage.
  LocalizerConfig cfg;
  cfg.min_traceroute_coverage = 2.0;
  Localizer strict(env_.topo, env_.overlay, oracle_, env_.faults, cfg);

  // A same-ToR same-rail pair from the running task, both directions, so
  // physical intersection produces the two-uplink tie refinement needs.
  const Endpoint* e0 = nullptr;
  const Endpoint* e1 = nullptr;
  for (const auto& ep : endpoints_) {
    if (env_.topo.rail_of(ep.rnic) != 0) continue;
    if (env_.topo.host_of(ep.rnic) == HostId{0}) e0 = &ep;
    if (env_.topo.host_of(ep.rnic) == HostId{1}) e1 = &ep;
  }
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  const LinkId ub = env_.topo.uplink_of(e1->rnic);
  env_.faults.inject(sim::IssueType::kSwitchPortDown,
                     {sim::ComponentKind::kPhysicalLink, ub.value()},
                     SimTime::seconds(0), SimTime::hours(1));
  const auto loc =
      strict.localize({{*e0, *e1}, {*e1, *e0}}, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kUnlocalized);
  EXPECT_FALSE(loc.found());
  EXPECT_LE(loc.confidence, 1.0);
}

// --- Path-aware voting: reverse routes and spray hints ----------------------

/// One RNIC per host, one host per segment: every inter-host pair crosses
/// spines, no two distinct hosts share a ToR or uplink, and 4-way ECMP
/// gives the asymmetric hash room to pick different forward/reverse spines.
class PathVoteTest : public ::testing::Test {
 protected:
  PathVoteTest()
      : env_([] {
          topo::TopologyConfig cfg;
          cfg.num_hosts = 8;
          cfg.rails_per_host = 1;
          cfg.hosts_per_segment = 1;
          cfg.spines_per_rail = 4;
          cfg.num_cores = 1;
          return cfg;
        }()),
        oracle_(env_.faults, RngStream{11}) {
    localizer_.emplace(env_.topo, env_.overlay, oracle_, env_.faults);
  }

  Endpoint attached(HostId h) {
    const Endpoint ep{ContainerId{h.value()}, env_.topo.rnic_of(h, 0)};
    env_.overlay.attach_endpoint(ep, h, /*vni=*/0);
    return ep;
  }

  SwitchId fwd_spine(const EndpointPair& p) {
    return env_.topo.route(p.src.rnic, p.dst.rnic).switches[1];
  }
  SwitchId rev_spine(const EndpointPair& p) {
    return env_.topo.route(p.dst.rnic, p.src.rnic).switches[1];
  }

  SimEnv env_;
  DiagnosticsOracle oracle_;
  std::optional<Localizer> localizer_;
};

TEST_F(PathVoteTest, ReverseOnlySpineFaultIsNoLongerUnlocalized) {
  // Regression (the reverse-path blindness bugfix): three anomalous pairs
  // whose FORWARD routes share no component — the old forward-only
  // intersection (max count 1) returned kUnlocalized — but whose REVERSE
  // routes all cross one spine. Return traffic rides route(dst, src), so a
  // fault there degrades the pairs just the same; the half-weight reverse
  // votes (3 x 0.5 = 1.5 > 1.0) must now localize the spine switch.
  const auto make_pair = [&](std::uint32_t a, std::uint32_t b) {
    return EndpointPair{{ContainerId{a}, env_.topo.rnic_of(HostId{a}, 0)},
                        {ContainerId{b}, env_.topo.rnic_of(HostId{b}, 0)}};
  };
  std::vector<EndpointPair> pairs;
  SwitchId shared_rev;
  for (std::uint32_t a0 = 0; a0 < 8 && pairs.empty(); ++a0) {
    for (std::uint32_t b0 = 0; b0 < 8 && pairs.empty(); ++b0) {
      if (a0 == b0) continue;
      const auto anchor = make_pair(a0, b0);
      const SwitchId target = rev_spine(anchor);
      if (fwd_spine(anchor) == target) continue;
      std::vector<EndpointPair> picked{anchor};
      std::set<std::uint32_t> hosts{a0, b0};
      std::set<std::uint32_t> fwds{fwd_spine(anchor).value()};
      for (std::uint32_t a = 0; a < 8 && picked.size() < 3; ++a) {
        for (std::uint32_t b = 0; b < 8 && picked.size() < 3; ++b) {
          if (a == b || hosts.contains(a) || hosts.contains(b)) continue;
          const auto p = make_pair(a, b);
          const SwitchId f = fwd_spine(p);
          if (rev_spine(p) != target || f == target ||
              fwds.contains(f.value())) {
            continue;
          }
          picked.push_back(p);
          hosts.insert(a);
          hosts.insert(b);
          fwds.insert(f.value());
        }
      }
      if (picked.size() == 3) {
        pairs = picked;
        shared_rev = target;
      }
    }
  }
  ASSERT_EQ(pairs.size(), 3u) << "no reverse-shared spine triple found";
  for (const auto& p : pairs) {
    attached(env_.topo.host_of(p.src.rnic));
    attached(env_.topo.host_of(p.dst.rnic));
    EXPECT_EQ(rev_spine(p), shared_rev);
    EXPECT_NE(fwd_spine(p), shared_rev);
  }
  env_.faults.inject(sim::IssueType::kCrcError,
                     {sim::ComponentKind::kPhysicalSwitch, shared_rev.value()},
                     SimTime::seconds(0), SimTime::hours(1));

  const auto voted = localizer_->physical_intersection(pairs);
  ASSERT_EQ(voted.size(), 1u);
  EXPECT_EQ(voted[0].kind, sim::ComponentKind::kPhysicalSwitch);
  EXPECT_EQ(voted[0].index, shared_rev.value());

  const auto loc = localizer_->localize(pairs, SimTime::minutes(1));
  EXPECT_EQ(loc.method, LocalizationMethod::kPhysicalIntersection);
  ASSERT_EQ(loc.culprits.size(), 1u);
  EXPECT_EQ(loc.culprits[0].index, shared_rev.value());

  // The vote record pins the regression: zero forward ("intersection")
  // evidence reached the threshold, and the verdict rests on reverse-path
  // votes worth 3 half-weight crossings.
  bool reverse_vote = false;
  for (const auto& v : loc.votes) {
    EXPECT_STRNE(v.source, "intersection");
    if (std::string_view(v.source) == "reverse-path" &&
        v.component.index == shared_rev.value() &&
        v.component.kind == sim::ComponentKind::kPhysicalSwitch) {
      EXPECT_DOUBLE_EQ(v.weight, 1.5);
      reverse_vote = true;
    }
  }
  EXPECT_TRUE(reverse_vote);
}

TEST_F(PathVoteTest, PathHintsVoteOnTheHintedMemberOnly) {
  // Spray-aware tomography: two hinted pairs flagged on the SAME equal-cost
  // member — one whose link the static hash never selects for either pair.
  // The hinted votes must converge on that member's ToR->spine link, not on
  // the pairs' static routes.
  SimEnv env2([] {
    topo::TopologyConfig cfg;
    cfg.num_hosts = 8;
    cfg.rails_per_host = 1;
    cfg.hosts_per_segment = 2;  // two src hosts share a ToR
    cfg.spines_per_rail = 4;
    cfg.num_cores = 1;
    return cfg;
  }());
  DiagnosticsOracle oracle2(env2.faults, RngStream{13});
  Localizer loc2(env2.topo, env2.overlay, oracle2, env2.faults);

  const auto ep = [&](std::uint32_t h) {
    const Endpoint e{ContainerId{h}, env2.topo.rnic_of(HostId{h}, 0)};
    env2.overlay.attach_endpoint(e, HostId{h}, /*vni=*/0);
    return e;
  };
  // Hosts 0 and 1 share segment 0's ToR; destinations sit in two other
  // segments so only the src-side ToR->spine hop can be shared.
  const std::vector<EndpointPair> pairs{{ep(0), ep(2)}, {ep(1), ep(4)}};

  // A member the static hash selects for NEITHER pair, so forward voting
  // could never implicate its link.
  std::uint32_t member = 4;
  for (std::uint32_t m = 0; m < 4; ++m) {
    if (m != env2.topo.static_path_id(pairs[0].src.rnic, pairs[0].dst.rnic) &&
        m != env2.topo.static_path_id(pairs[1].src.rnic, pairs[1].dst.rnic)) {
      member = m;
      break;
    }
  }
  ASSERT_LT(member, 4u);
  const auto hinted0 =
      env2.topo.route_via(pairs[0].src.rnic, pairs[0].dst.rnic, member);
  const auto hinted1 =
      env2.topo.route_via(pairs[1].src.rnic, pairs[1].dst.rnic, member);
  ASSERT_EQ(hinted0.links[1], hinted1.links[1]);  // shared ToR->spine hop
  const LinkId gray = hinted0.links[1];
  env2.faults.inject(sim::IssueType::kCrcError,
                     {sim::ComponentKind::kPhysicalLink, gray.value()},
                     SimTime::seconds(0), SimTime::hours(1));

  const std::vector<PathScopedAnomaly> hints{{pairs[0], member},
                                             {pairs[1], member}};
  const auto voted = loc2.physical_intersection(pairs, hints);
  ASSERT_EQ(voted.size(), 1u);  // links outrank the tied ToR/spine switches
  EXPECT_EQ(voted[0].kind, sim::ComponentKind::kPhysicalLink);
  EXPECT_EQ(voted[0].index, gray.value());

  const auto loc = loc2.localize(pairs, SimTime::minutes(1), hints);
  EXPECT_EQ(loc.method, LocalizationMethod::kPhysicalIntersection);
  ASSERT_EQ(loc.culprits.size(), 1u);
  EXPECT_EQ(loc.culprits[0].index, gray.value());
  bool path_vote = false;
  for (const auto& v : loc.votes) {
    if (std::string_view(v.source) == "path" &&
        v.component.index == gray.value() &&
        v.component.kind == sim::ComponentKind::kPhysicalLink) {
      EXPECT_DOUBLE_EQ(v.weight, 2.0);
      path_vote = true;
    }
  }
  EXPECT_TRUE(path_vote);

  // Without the hints the same pair set must NOT implicate the gray link:
  // static routes never crossed it.
  for (const auto& c : loc2.physical_intersection(pairs)) {
    EXPECT_FALSE(c.kind == sim::ComponentKind::kPhysicalLink &&
                 c.index == gray.value());
  }
}

TEST(DeadLinkOf, GuardsHopsWithoutAPhysicalLink) {
  // Regression: refine_with_traceroute dereferenced the dead hop's link id
  // unconditionally; a dead hop carrying no valid link (death at the
  // source/destination host or RNIC) must contribute no link vote.
  probe::TracerouteResult tr;
  tr.hops.push_back({LinkId{}, std::nullopt, false, 0.0});
  EXPECT_EQ(dead_link_of(tr), std::nullopt);

  tr.hops.clear();
  tr.hops.push_back({LinkId{3}, SwitchId{1}, true, 1.0});
  tr.hops.push_back({LinkId{7}, SwitchId{2}, false, 0.0});
  const auto link = dead_link_of(tr);
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(link->value(), 7u);

  probe::TracerouteResult healthy;
  healthy.reached_destination = true;
  healthy.hops.push_back({LinkId{3}, SwitchId{1}, true, 1.0});
  EXPECT_EQ(dead_link_of(healthy), std::nullopt);
}

TEST(LocalizeStrings, MethodsPrintable) {
  EXPECT_EQ(to_string(LocalizationMethod::kOverlayReachability),
            "overlay-reachability");
  EXPECT_EQ(to_string(LocalizationMethod::kRnicValidation),
            "rnic-validation");
}

}  // namespace
}  // namespace skh::core
