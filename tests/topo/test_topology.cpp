#include "topo/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace skh::topo {
namespace {

TopologyConfig small_config() {
  TopologyConfig cfg;
  cfg.num_hosts = 8;
  cfg.rails_per_host = 4;
  cfg.hosts_per_segment = 4;
  cfg.spines_per_rail = 2;
  cfg.num_cores = 2;
  return cfg;
}

TEST(Topology, EntityCounts) {
  const auto t = Topology::build(small_config());
  EXPECT_EQ(t.num_hosts(), 8u);
  EXPECT_EQ(t.num_rnics(), 32u);
  EXPECT_EQ(t.num_segments(), 2u);
  // Switches: 2 segments x 4 rails ToRs + 4 rails x 2 spines + 2 cores.
  EXPECT_EQ(t.switches().size(), 8u + 8u + 2u);
  // Links: 32 uplinks + 8 ToRs x 2 spines + 8 spines x 2 cores.
  EXPECT_EQ(t.links().size(), 32u + 16u + 16u);
}

TEST(Topology, RejectsZeroCounts) {
  TopologyConfig cfg = small_config();
  cfg.rails_per_host = 0;
  EXPECT_THROW(Topology::build(cfg), std::invalid_argument);
}

TEST(Topology, RnicAddressing) {
  const auto t = Topology::build(small_config());
  const RnicId r = t.rnic_of(HostId{3}, 2);
  EXPECT_EQ(r.value(), 3u * 4 + 2);
  EXPECT_EQ(t.host_of(r), HostId{3});
  EXPECT_EQ(t.rail_of(r), 2u);
  EXPECT_THROW((void)t.rnic_of(HostId{100}, 0), std::out_of_range);
  EXPECT_THROW((void)t.rnic_of(HostId{0}, 9), std::out_of_range);
  EXPECT_THROW((void)t.host_of(RnicId{999}), std::out_of_range);
}

TEST(Topology, SegmentAssignment) {
  const auto t = Topology::build(small_config());
  EXPECT_EQ(t.segment_of(HostId{0}), 0u);
  EXPECT_EQ(t.segment_of(HostId{3}), 0u);
  EXPECT_EQ(t.segment_of(HostId{4}), 1u);
}

TEST(Topology, UplinkConnectsToRailTor) {
  const auto t = Topology::build(small_config());
  for (std::uint32_t h = 0; h < 8; ++h) {
    for (std::uint32_t rail = 0; rail < 4; ++rail) {
      const RnicId r = t.rnic_of(HostId{h}, rail);
      const auto& link = t.link_at(t.uplink_of(r));
      EXPECT_EQ(link.tier, LinkTier::kHostToTor);
      EXPECT_EQ(link.rnic, r);
      const auto& tor = t.switch_at(link.lower);
      EXPECT_EQ(tor.kind, SwitchKind::kTor);
      EXPECT_EQ(tor.rail, rail);
      EXPECT_EQ(tor.segment, t.segment_of(HostId{h}));
    }
  }
}

TEST(Route, IntraHostHasNoNetworkHops) {
  const auto t = Topology::build(small_config());
  const auto p = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{0}, 3));
  EXPECT_TRUE(p.intra_host);
  EXPECT_TRUE(p.links.empty());
  EXPECT_TRUE(p.switches.empty());
  EXPECT_GT(p.one_way_latency_us, 0.0);
}

TEST(Route, SameSegmentSameRailIsTwoHops) {
  const auto t = Topology::build(small_config());
  const auto p = t.route(t.rnic_of(HostId{0}, 1), t.rnic_of(HostId{2}, 1));
  EXPECT_FALSE(p.intra_host);
  EXPECT_EQ(p.links.size(), 2u);
  EXPECT_EQ(p.switches.size(), 1u);
  EXPECT_EQ(t.switch_at(p.switches[0]).kind, SwitchKind::kTor);
}

TEST(Route, CrossSegmentSameRailGoesViaSpine) {
  const auto t = Topology::build(small_config());
  const auto p = t.route(t.rnic_of(HostId{0}, 1), t.rnic_of(HostId{5}, 1));
  EXPECT_EQ(p.links.size(), 4u);
  EXPECT_EQ(p.switches.size(), 3u);
  EXPECT_EQ(t.switch_at(p.switches[1]).kind, SwitchKind::kSpine);
  EXPECT_EQ(t.switch_at(p.switches[1]).rail, 1u);
}

TEST(Route, CrossRailGoesViaCore) {
  const auto t = Topology::build(small_config());
  const auto p = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{5}, 3));
  EXPECT_EQ(p.links.size(), 6u);
  EXPECT_EQ(p.switches.size(), 5u);
  EXPECT_EQ(t.switch_at(p.switches[2]).kind, SwitchKind::kCore);
}

TEST(Route, InRailIsCheaperThanCrossRail) {
  const auto t = Topology::build(small_config());
  const auto in_rail = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{5}, 0));
  const auto cross = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{5}, 1));
  EXPECT_LT(in_rail.one_way_latency_us, cross.one_way_latency_us);
}

TEST(Route, DeterministicEcmp) {
  const auto t = Topology::build(small_config());
  const RnicId a = t.rnic_of(HostId{1}, 2);
  const RnicId b = t.rnic_of(HostId{6}, 2);
  const auto p1 = t.route(a, b);
  const auto p2 = t.route(a, b);
  EXPECT_EQ(p1.links, p2.links);
}

TEST(Route, EcmpSpreadsAcrossSpines) {
  TopologyConfig cfg = small_config();
  cfg.num_hosts = 16;
  cfg.spines_per_rail = 4;
  const auto t = Topology::build(cfg);
  std::set<SwitchId> spines_used;
  for (std::uint32_t h = 4; h < 16; ++h) {
    const auto p = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{h}, 0));
    if (p.switches.size() == 3) spines_used.insert(p.switches[1]);
  }
  EXPECT_GE(spines_used.size(), 2u);
}

TEST(Route, HealthyRttUnderTwentyMicroseconds) {
  // RoCE expectation from §1: healthy RTT < 20us. One-way worst case here
  // is the 6-link cross-rail path.
  const auto t = Topology::build(small_config());
  const auto p = t.route(t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{7}, 3));
  EXPECT_LT(2.0 * p.one_way_latency_us, 20.0);
}

TEST(EqualCostPaths, ContainSelectedRoute) {
  const auto t = Topology::build(small_config());
  const RnicId a = t.rnic_of(HostId{0}, 1);
  const RnicId b = t.rnic_of(HostId{6}, 1);
  const auto selected = t.route(a, b);
  const auto all = t.equal_cost_paths(a, b);
  EXPECT_EQ(all.size(), 2u);  // spines_per_rail
  bool found = false;
  for (const auto& p : all) {
    if (p.links == selected.links) found = true;
    EXPECT_DOUBLE_EQ(p.one_way_latency_us, selected.one_way_latency_us);
  }
  EXPECT_TRUE(found);
}

TEST(EqualCostPaths, CrossRailFanout) {
  const auto t = Topology::build(small_config());
  const auto all = t.equal_cost_paths(t.rnic_of(HostId{0}, 0),
                                      t.rnic_of(HostId{5}, 2));
  EXPECT_EQ(all.size(), 2u * 2u * 2u);  // s1 x cores x s2
}

TEST(EqualCostPaths, FanoutContract) {
  // The documented fan-out per routing regime: singleton intra-host,
  // spines_per_rail in-rail, spines_per_rail^2 x num_cores cross-rail —
  // all members distinct and all at the selected route's latency.
  TopologyConfig cfg = small_config();
  cfg.spines_per_rail = 3;
  cfg.num_cores = 2;
  const auto t = Topology::build(cfg);
  const RnicId a = t.rnic_of(HostId{0}, 1);

  const auto intra = t.equal_cost_paths(a, t.rnic_of(HostId{0}, 2));
  ASSERT_EQ(intra.size(), 1u);
  EXPECT_TRUE(intra[0].intra_host);
  EXPECT_EQ(t.num_paths(a, t.rnic_of(HostId{0}, 2)), 1u);

  const auto same_tor = t.equal_cost_paths(a, t.rnic_of(HostId{1}, 1));
  ASSERT_EQ(same_tor.size(), 1u);  // one ToR, no spine choice

  const struct {
    RnicId dst;
    std::size_t want;
  } regimes[] = {
      {t.rnic_of(HostId{6}, 1), 3u},           // in-rail: spines_per_rail
      {t.rnic_of(HostId{6}, 3), 3u * 2u * 3u}, // cross-rail: s1 x cores x s2
  };
  for (const auto& r : regimes) {
    const auto all = t.equal_cost_paths(a, r.dst);
    ASSERT_EQ(all.size(), r.want);
    EXPECT_EQ(t.num_paths(a, r.dst), r.want);
    std::set<std::vector<LinkId>> distinct;
    for (const auto& p : all) {
      distinct.insert(p.links);
      EXPECT_DOUBLE_EQ(p.one_way_latency_us, all[0].one_way_latency_us);
    }
    EXPECT_EQ(distinct.size(), r.want);  // every member a distinct path
  }
}

TEST(Route, PathIdStabilityContract) {
  // equal_cost_paths(src, dst)[i] == route_via(src, dst, i), the static
  // selection is a member of the set, and a bad index throws — the contract
  // the detector's per-path sub-series and the path-scoped votes key on.
  const auto t = Topology::build(small_config());
  const RnicId pairs[][2] = {
      {t.rnic_of(HostId{0}, 1), t.rnic_of(HostId{6}, 1)},  // in-rail
      {t.rnic_of(HostId{0}, 0), t.rnic_of(HostId{5}, 3)},  // cross-rail
      {t.rnic_of(HostId{0}, 2), t.rnic_of(HostId{2}, 2)},  // same ToR
      {t.rnic_of(HostId{3}, 0), t.rnic_of(HostId{3}, 1)},  // intra-host
  };
  for (const auto& pr : pairs) {
    const std::uint32_t n = t.num_paths(pr[0], pr[1]);
    const auto all = t.equal_cost_paths(pr[0], pr[1]);
    ASSERT_EQ(all.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto via = t.route_via(pr[0], pr[1], i);
      EXPECT_EQ(all[i].links, via.links);
      EXPECT_EQ(all[i].switches, via.switches);
    }
    const std::uint32_t sel = t.static_path_id(pr[0], pr[1]);
    ASSERT_LT(sel, n);
    EXPECT_EQ(t.route(pr[0], pr[1]).links, all[sel].links);
    EXPECT_THROW((void)t.route_via(pr[0], pr[1], n), std::out_of_range);
  }
}

TEST(Route, SelectedRouteIsMemberBothArgOrders) {
  // Property: for EVERY ordered pair across all regimes, route(a, b) is a
  // member of equal_cost_paths(a, b) — in both argument orders (the ECMP
  // hash is asymmetric, so (b, a) exercises a different selection).
  TopologyConfig cfg = small_config();
  cfg.spines_per_rail = 3;
  const auto t = Topology::build(cfg);
  for (std::uint32_t i = 0; i < t.num_rnics(); i += 5) {
    for (std::uint32_t j = 0; j < t.num_rnics(); j += 7) {
      if (i == j) continue;
      for (const auto& [a, b] :
           {std::pair{RnicId{i}, RnicId{j}}, std::pair{RnicId{j}, RnicId{i}}}) {
        const auto sel = t.route(a, b);
        const auto all = t.equal_cost_paths(a, b);
        const bool member =
            std::any_of(all.begin(), all.end(), [&sel](const Path& p) {
              return p.links == sel.links && p.switches == sel.switches;
            });
        EXPECT_TRUE(member) << "route(" << a.value() << "," << b.value()
                            << ") not in its equal-cost set";
      }
    }
  }
}

TEST(Route, EcmpSpineBalanceAtFourThousandPairs) {
  // The production hash must give every spine a share: a spine with zero
  // share is dark fabric the tomography voter can never implicate (and a
  // symptom of a degenerate hash). 4k in-rail pairs over 4 spines.
  TopologyConfig cfg;
  cfg.num_hosts = 128;
  cfg.rails_per_host = 2;
  cfg.hosts_per_segment = 8;
  cfg.spines_per_rail = 4;
  const auto t = Topology::build(cfg);
  std::map<std::uint32_t, std::size_t> share;  // spine dense idx -> pairs
  std::size_t sampled = 0;
  for (std::uint32_t i = 0; i < t.num_rnics() && sampled < 4096; ++i) {
    for (std::uint32_t j = 0; j < t.num_rnics() && sampled < 4096; ++j) {
      const RnicId a{i}, b{j};
      if (i == j || t.rail_of(a) != t.rail_of(b)) continue;
      if (t.segment_of(t.host_of(a)) == t.segment_of(t.host_of(b))) continue;
      ++sampled;
      share[t.static_path_id(a, b)] += 1;
    }
  }
  ASSERT_EQ(sampled, 4096u);
  ASSERT_EQ(share.size(), 4u);  // every spine member selected
  for (const auto& [member, n] : share) {
    // Balanced within a generous band: each member carries at least half
    // its fair share of the 4k pairs.
    EXPECT_GE(n, 4096u / 4 / 2) << "spine member " << member << " starved";
  }
}

TEST(Topology, SwitchLinkAgreesWithAdjacencyScan) {
  // The dense-index lookup behind switch_link must agree with a direct
  // scan of the link table on EVERY switch-switch adjacency, both argument
  // orders, and throw on non-adjacent switches.
  TopologyConfig cfg = small_config();
  cfg.spines_per_rail = 3;
  cfg.num_cores = 2;
  const auto t = Topology::build(cfg);
  std::size_t checked = 0;
  for (const auto& link : t.links()) {
    if (link.tier == LinkTier::kHostToTor) continue;
    EXPECT_EQ(t.switch_link(link.lower, link.upper), link.id);
    EXPECT_EQ(t.switch_link(link.upper, link.lower), link.id);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  // Two ToRs are never directly adjacent.
  const SwitchId tor_a = t.tor_at(0, 0);
  const SwitchId tor_b = t.tor_at(1, 0);
  EXPECT_THROW((void)t.switch_link(tor_a, tor_b), std::logic_error);
}

TEST(Topology, RouteViaIntoAReusedPathMatchesByValue) {
  // The out-parameter form refills one Path across pairs of every shape
  // (intra-host, same ToR, in-rail, cross-rail) and member: nothing of the
  // previous route may survive into the next.
  const auto t = Topology::build(small_config());
  Path reused;
  std::size_t routed = 0;
  for (std::uint32_t i = 0; i < t.num_rnics(); ++i) {
    for (std::uint32_t j = 0; j < t.num_rnics(); j += 3) {
      const RnicId a{i};
      const RnicId b{(i * 7 + j) % t.num_rnics()};
      for (std::uint32_t m = 0; m < t.num_paths(a, b); ++m) {
        t.route_via(a, b, m, reused);
        const Path fresh = t.route_via(a, b, m);
        ASSERT_EQ(reused.intra_host, fresh.intra_host);
        ASSERT_EQ(reused.links, fresh.links);
        ASSERT_EQ(reused.switches, fresh.switches);
        ASSERT_EQ(reused.one_way_latency_us, fresh.one_way_latency_us);
        ++routed;
      }
    }
  }
  EXPECT_GT(routed, t.num_rnics() * 4u);
}

class ScaleSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScaleSweep, AllPairsRoutable) {
  TopologyConfig cfg;
  cfg.num_hosts = GetParam();
  cfg.rails_per_host = 8;
  cfg.hosts_per_segment = 8;
  const auto t = Topology::build(cfg);
  // Spot-check a diagonal band of pairs.
  for (std::uint32_t i = 0; i < t.num_rnics(); i += 17) {
    const RnicId a{i};
    const RnicId b{(i * 7 + 3) % t.num_rnics()};
    const auto p = t.route(a, b);
    if (t.host_of(a) == t.host_of(b)) {
      EXPECT_TRUE(p.intra_host);
    } else {
      EXPECT_FALSE(p.links.empty());
      // Path endpoints are the two uplinks.
      EXPECT_EQ(p.links.front(), t.uplink_of(a));
      EXPECT_EQ(p.links.back(), t.uplink_of(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScaleSweep, ::testing::Values(8, 32, 64, 256));

}  // namespace
}  // namespace skh::topo
