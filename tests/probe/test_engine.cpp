#include "probe/engine.h"

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "support/alloc_counter.h"

namespace skh::probe {
namespace {

/// Two full-host containers on hosts 0 and 1, all endpoints connected.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : topo_(topo::Topology::build(config())) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      for (std::uint32_t r = 0; r < 8; ++r) {
        eps_.push_back(Endpoint{ContainerId{c}, topo_.rnic_of(HostId{c}, r)});
      }
    }
    for (const auto& e : eps_) {
      overlay_.attach_endpoint(e, topo_.host_of(e.rnic), /*vni=*/0);
    }
  }

  static topo::TopologyConfig config() {
    topo::TopologyConfig cfg;
    cfg.num_hosts = 4;
    cfg.rails_per_host = 8;
    cfg.hosts_per_segment = 2;
    return cfg;
  }

  ProbeEngine make_engine() {
    return ProbeEngine{topo_, overlay_, faults_, RngStream{7}};
  }

  topo::Topology topo_;
  overlay::OverlayNetwork overlay_;
  sim::FaultInjector faults_;
  std::vector<Endpoint> eps_;
};

TEST_F(EngineTest, HealthyProbeDeliversNearBaseline) {
  auto engine = make_engine();
  const auto r = engine.probe(eps_[0], eps_[8], SimTime::seconds(1));
  EXPECT_TRUE(r.delivered);
  const double base = engine.baseline_rtt_us(eps_[0], eps_[8]);
  EXPECT_NEAR(r.rtt_us, base, base * 0.4);
  EXPECT_LT(base, 20.0);  // the RoCE healthy-RTT expectation of §1
}

TEST_F(EngineTest, UnattachedDestinationIsDropped) {
  auto engine = make_engine();
  const Endpoint ghost{ContainerId{9}, topo_.rnic_of(HostId{3}, 0)};
  const auto r = engine.probe(eps_[0], ghost, SimTime::seconds(1));
  EXPECT_FALSE(r.delivered);
}

TEST_F(EngineTest, UnreachableFaultDropsEverything) {
  faults_.inject(sim::IssueType::kRnicPortDown,
                 {sim::ComponentKind::kRnic, eps_[8].rnic.value()},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(engine.probe(eps_[0], eps_[8], SimTime::seconds(i)).delivered);
  }
  // Pairs not touching the broken RNIC still work.
  EXPECT_TRUE(engine.probe(eps_[1], eps_[9], SimTime::seconds(1)).delivered);
}

TEST_F(EngineTest, HighLatencyFaultInflatesRtt) {
  faults_.inject(sim::IssueType::kRnicFirmwareNotResponding,
                 {sim::ComponentKind::kRnic, eps_[0].rnic.value()},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  const double base = engine.baseline_rtt_us(eps_[0], eps_[8]);
  double total = 0.0;
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const auto r = engine.probe(eps_[0], eps_[8], SimTime::seconds(i));
    if (r.delivered) {
      total += r.rtt_us;
      ++delivered;
    }
  }
  ASSERT_GT(delivered, 40);
  const double mean = total / delivered;
  EXPECT_NEAR(mean, base + 104.0, 15.0);  // Fig. 18's ~120us
}

TEST_F(EngineTest, LossFaultDropsFraction) {
  faults_.inject(sim::IssueType::kCrcError,
                 {sim::ComponentKind::kPhysicalLink,
                  topo_.uplink_of(eps_[0].rnic).value()},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  int lost = 0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) {
    if (!engine.probe(eps_[0], eps_[8], SimTime::millis(i)).delivered) ++lost;
  }
  const double rate = static_cast<double>(lost) / kProbes;
  EXPECT_NEAR(rate, 0.08, 0.03);  // CRC default effect
}

TEST_F(EngineTest, FlappingFaultAlternates) {
  faults_.inject(sim::IssueType::kSwitchPortFlapping,
                 {sim::ComponentKind::kPhysicalLink,
                  topo_.uplink_of(eps_[8].rnic).value()},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  // Flap period 5 s: [0,5) healthy phase, [5,10) drop phase.
  EXPECT_TRUE(engine.probe(eps_[0], eps_[8], SimTime::seconds(2)).delivered);
  EXPECT_FALSE(engine.probe(eps_[0], eps_[8], SimTime::seconds(7)).delivered);
  EXPECT_TRUE(engine.probe(eps_[0], eps_[8], SimTime::seconds(12)).delivered);
}

TEST_F(EngineTest, FaultOutsideWindowHasNoEffect) {
  faults_.inject(sim::IssueType::kRnicPortDown,
                 {sim::ComponentKind::kRnic, eps_[8].rnic.value()},
                 SimTime::minutes(10), SimTime::minutes(20));
  auto engine = make_engine();
  EXPECT_TRUE(engine.probe(eps_[0], eps_[8], SimTime::minutes(5)).delivered);
  EXPECT_FALSE(engine.probe(eps_[0], eps_[8], SimTime::minutes(15)).delivered);
  EXPECT_TRUE(engine.probe(eps_[0], eps_[8], SimTime::minutes(25)).delivered);
}

TEST_F(EngineTest, HostFaultAffectsAllItsEndpoints) {
  faults_.inject(sim::IssueType::kGidChange,
                 {sim::ComponentKind::kHost, 0},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  // Every rail of host 0 is unreachable; host 1 to host 1... only two
  // containers here, so check both directions of several rails.
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_FALSE(
        engine.probe(eps_[r], eps_[8 + r], SimTime::seconds(1)).delivered);
    EXPECT_FALSE(
        engine.probe(eps_[8 + r], eps_[r], SimTime::seconds(1)).delivered);
  }
}

TEST_F(EngineTest, OffloadInconsistencySlowPath) {
  auto engine = make_engine();
  const double base = engine.baseline_rtt_us(eps_[0], eps_[8]);
  overlay_.invalidate_offload(eps_[0].rnic);
  double total = 0.0;
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const auto r = engine.probe(eps_[0], eps_[8], SimTime::seconds(i));
    if (r.delivered) {
      total += r.rtt_us;
      ++delivered;
    }
  }
  ASSERT_GT(delivered, 0);
  EXPECT_GT(total / delivered, base + 80.0);
  overlay_.resync_offload(eps_[0].rnic);
  const auto r = engine.probe(eps_[0], eps_[8], SimTime::seconds(100));
  ASSERT_TRUE(r.delivered);
  EXPECT_LT(r.rtt_us, base * 1.5);
}

TEST_F(EngineTest, BrokenOverlayRuleDropsProbe) {
  overlay_.break_rule(overlay_.chain_of(eps_[0]).ovs, eps_[8]);
  auto engine = make_engine();
  EXPECT_FALSE(engine.probe(eps_[0], eps_[8], SimTime::seconds(1)).delivered);
  // Reverse direction still works.
  EXPECT_TRUE(engine.probe(eps_[8], eps_[0], SimTime::seconds(1)).delivered);
}

TEST_F(EngineTest, InvisibleIntraHostFaultDoesNotAffectProbes) {
  // §7.3: NVLink degradation cannot be seen by end-to-end probing.
  faults_.inject(sim::IssueType::kNvlinkDegradation,
                 {sim::ComponentKind::kHost, 0},
                 SimTime::seconds(0), SimTime::hours(1));
  auto engine = make_engine();
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    if (engine.probe(eps_[0], eps_[8], SimTime::seconds(i)).delivered) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 20);
}

TEST_F(EngineTest, StaticEcmpStampsTheStaticPathId) {
  // The default mode must stamp exactly the member the five-tuple hash
  // selects — the contract that lets the localizer treat un-hinted pairs
  // as riding route().
  auto engine = make_engine();
  for (int i = 0; i < 10; ++i) {
    const auto r = engine.probe(eps_[0], eps_[8], SimTime::seconds(i));
    ASSERT_TRUE(r.delivered);
    EXPECT_EQ(r.path_id, topo_.static_path_id(eps_[0].rnic, eps_[8].rnic));
  }
}

TEST_F(EngineTest, SprayFansOverEveryMemberDeterministically) {
  // Cross-segment in-rail pair: two equal-cost members. Spray must visit
  // both, stamp only valid member ids, and replay the identical path_id
  // sequence from an identical engine (hash-driven, no RNG).
  const Endpoint far{ContainerId{2}, topo_.rnic_of(HostId{2}, 0)};
  overlay_.attach_endpoint(far, topo_.host_of(far.rnic), /*vni=*/0);
  EngineConfig cfg;
  cfg.routing_mode = topo::RoutingMode::kSpray;
  cfg.spray_ways = 8;
  ProbeEngine a{topo_, overlay_, faults_, RngStream{7}, cfg};
  ProbeEngine b{topo_, overlay_, faults_, RngStream{7}, cfg};
  const std::uint32_t n = topo_.num_paths(eps_[0].rnic, far.rnic);
  ASSERT_EQ(n, 2u);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 64; ++i) {
    const auto ra = a.probe(eps_[0], far, SimTime::millis(100 * i));
    const auto rb = b.probe(eps_[0], far, SimTime::millis(100 * i));
    EXPECT_EQ(ra.path_id, rb.path_id);
    ASSERT_LT(ra.path_id, n);
    seen.insert(ra.path_id);
  }
  EXPECT_EQ(seen.size(), n);  // every member carried probes
}

TEST_F(EngineTest, SprayLeavesHealthyDeliveryAndRttUntouched) {
  // Equal-cost members share one latency and spray selection draws no RNG,
  // so on a healthy fabric the delivered/RTT stream must be bit-identical
  // to static routing — only the path stamps differ.
  const Endpoint far{ContainerId{2}, topo_.rnic_of(HostId{2}, 3)};
  overlay_.attach_endpoint(far, topo_.host_of(far.rnic), /*vni=*/0);
  EngineConfig spray_cfg;
  spray_cfg.routing_mode = topo::RoutingMode::kSpray;
  ProbeEngine fixed{topo_, overlay_, faults_, RngStream{7}};
  ProbeEngine spray{topo_, overlay_, faults_, RngStream{7}, spray_cfg};
  for (int i = 0; i < 100; ++i) {
    const auto rf = fixed.probe(eps_[3], far, SimTime::millis(100 * i));
    const auto rs = spray.probe(eps_[3], far, SimTime::millis(100 * i));
    ASSERT_EQ(rf.delivered, rs.delivered);
    EXPECT_DOUBLE_EQ(rf.rtt_us, rs.rtt_us);
  }
}

TEST_F(EngineTest, AdaptiveRehashesAwayFromFaultedMemberAndStaysPut) {
  const Endpoint far{ContainerId{2}, topo_.rnic_of(HostId{2}, 0)};
  overlay_.attach_endpoint(far, topo_.host_of(far.rnic), /*vni=*/0);
  EngineConfig cfg;
  cfg.routing_mode = topo::RoutingMode::kAdaptive;
  ProbeEngine engine{topo_, overlay_, faults_, RngStream{7}, cfg};
  const std::uint32_t n = topo_.num_paths(eps_[0].rnic, far.rnic);
  ASSERT_EQ(n, 2u);

  const auto first = engine.probe(eps_[0], far, SimTime::seconds(1));
  const std::uint32_t m0 = first.path_id;
  ASSERT_LT(m0, n);
  // Healthy fabric: the flow stays pinned.
  EXPECT_EQ(engine.probe(eps_[0], far, SimTime::seconds(2)).path_id, m0);

  // Degrade the pinned member's unique ToR->spine hop: the flow must walk
  // to the sibling member and stay there.
  const auto sick = topo_.route_via(eps_[0].rnic, far.rnic, m0);
  ASSERT_GE(sick.links.size(), 3u);
  faults_.inject(sim::IssueType::kCrcError,
                 {sim::ComponentKind::kPhysicalLink, sick.links[1].value()},
                 SimTime::seconds(10), SimTime::hours(1));
  const std::uint32_t m1 =
      engine.probe(eps_[0], far, SimTime::seconds(20)).path_id;
  EXPECT_NE(m1, m0);
  ASSERT_LT(m1, n);
  EXPECT_EQ(engine.probe(eps_[0], far, SimTime::seconds(21)).path_id, m1);

  // Degrade the sibling too: with no clean member left the flow must keep a
  // valid (if sick) member rather than oscillate.
  const auto sibling = topo_.route_via(eps_[0].rnic, far.rnic, m1);
  faults_.inject(sim::IssueType::kCrcError,
                 {sim::ComponentKind::kPhysicalLink, sibling.links[1].value()},
                 SimTime::seconds(30), SimTime::hours(1));
  const std::uint32_t m2 =
      engine.probe(eps_[0], far, SimTime::seconds(40)).path_id;
  ASSERT_LT(m2, n);
  EXPECT_EQ(engine.probe(eps_[0], far, SimTime::seconds(41)).path_id, m2);
}

TEST_F(EngineTest, SameHostContainersProbeEachOther) {
  // Two 4-GPU containers of the task share host 2. Host 2's OVS and VXLAN
  // nodes sit on both legs of their flow, which must not read as a
  // forwarding loop; a container on another host reaches both as before.
  std::vector<Endpoint> a, b;
  for (std::uint32_t r = 0; r < 4; ++r) {
    a.push_back(Endpoint{ContainerId{2}, topo_.rnic_of(HostId{2}, r)});
    b.push_back(Endpoint{ContainerId{3}, topo_.rnic_of(HostId{2}, 4 + r)});
    overlay_.attach_endpoint(a.back(), HostId{2}, /*vni=*/0);
    overlay_.attach_endpoint(b.back(), HostId{2}, /*vni=*/0);
  }
  auto engine = make_engine();
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(engine.probe(a[r], b[r], SimTime::seconds(1)).delivered);
    EXPECT_TRUE(engine.probe(b[r], a[r], SimTime::seconds(1)).delivered);
    EXPECT_TRUE(engine.probe(eps_[r], a[r], SimTime::seconds(1)).delivered);
  }
}

TEST_F(EngineTest, SteadyStateProbesAllocateNothing) {
  // After one round over every flow, further rounds allocate nothing in any
  // routing mode with a registry attached. A loss fault goes live on one
  // member link after the warm-up round, so the degradation pass has work
  // and adaptive flows pinned to that member rehash while being counted.
  const RnicId src = eps_[0].rnic;
  const RnicId dst = eps_[9].rnic;
  const auto sick = topo_.route_via(src, dst, topo_.static_path_id(src, dst));
  faults_.inject(sim::IssueType::kCrcError,
                 {sim::ComponentKind::kPhysicalLink, sick.links[1].value()},
                 SimTime::seconds(10), SimTime::hours(1));
  for (const auto mode :
       {topo::RoutingMode::kStaticEcmp, topo::RoutingMode::kSpray,
        topo::RoutingMode::kAdaptive}) {
    EngineConfig cfg;
    cfg.routing_mode = mode;
    ProbeEngine engine{topo_, overlay_, faults_, RngStream{7}, cfg};
    obs::Context ctx;
    engine.attach_obs(&ctx);
    const auto round = [&](SimTime t, std::size_t& off_static) {
      for (const auto& s : eps_) {
        for (const auto& d : eps_) {
          if (s.container == d.container) continue;
          const auto r = engine.probe(s, d, t);
          if (r.path_id != topo_.static_path_id(s.rnic, d.rnic)) {
            ++off_static;
          }
        }
      }
    };
    std::size_t warm_off = 0;
    round(SimTime::seconds(1), warm_off);
    std::size_t off_static = 0;
    std::uint64_t allocations = 0;
    {
      const testutil::AllocationCounter counter;
      for (int i = 0; i < 3; ++i) {
        round(SimTime::seconds(20 + 5 * i), off_static);
      }
      allocations = counter.count();
    }
    EXPECT_EQ(allocations, 0u) << topo::to_string(mode);
    if (mode == topo::RoutingMode::kAdaptive) {
      EXPECT_EQ(warm_off, 0u);    // every flow starts on its static member
      EXPECT_GT(off_static, 0u);  // and some moved off the sick one
    }
  }
}

/// A fixed probe schedule over every cross-host pair of an 8-host, 4-rail,
/// 2-spine, 2-core fabric (one container per host), folded into one 64-bit
/// fingerprint of (delivered, RTT bits, path id) per probe. Its fault
/// timeline exercises every input of a probe: two probe-visible faults on
/// one link plus a latency fault on a flow's RNIC (so the accumulation
/// order shows in the RTT bits), a flapping spine, an RNIC port down, an
/// offload desync, a broken rule, a loop rule, an invisible NVLink fault,
/// one fault injected and one repaired mid-schedule.
std::uint64_t probe_stream_fingerprint(topo::RoutingMode mode) {
  topo::TopologyConfig tc;
  tc.num_hosts = 8;
  tc.rails_per_host = 4;
  tc.hosts_per_segment = 2;
  tc.spines_per_rail = 2;
  tc.num_cores = 2;
  const auto topo = topo::Topology::build(tc);
  overlay::OverlayNetwork overlay;
  sim::FaultInjector faults;
  const auto at = [&](std::uint32_t host, std::uint32_t rail) {
    return Endpoint{ContainerId{host}, topo.rnic_of(HostId{host}, rail)};
  };
  std::vector<Endpoint> eps;
  for (std::uint32_t h = 0; h < tc.num_hosts; ++h) {
    for (std::uint32_t r = 0; r < tc.rails_per_host; ++r) {
      eps.push_back(at(h, r));
      overlay.attach_endpoint(eps.back(), HostId{h}, /*vni=*/1);
    }
  }
  const SimTime forever = SimTime::hours(1);
  // Two faults on host 0 rail 0's ToR -> spine 0 hop.
  const LinkId shared =
      topo.route_via(at(0, 0).rnic, at(2, 0).rnic, 0).links[1];
  sim::FaultEffect crc;
  crc.loss_probability = 0.03;
  crc.extra_latency_us = 0.1;
  const std::uint32_t repaired =
      faults.inject(sim::IssueType::kCrcError,
                    {sim::ComponentKind::kPhysicalLink, shared.value()},
                    SimTime::seconds(0), forever, crc);
  sim::FaultEffect congestion;
  congestion.loss_probability = 0.07;
  congestion.extra_latency_us = 0.2;
  faults.inject(sim::IssueType::kCongestionControlIssue,
                {sim::ComponentKind::kPhysicalLink, shared.value()},
                SimTime::seconds(0), forever, congestion);
  const SwitchId flapping =
      topo.route_via(at(0, 1).rnic, at(2, 1).rnic, 1).switches[1];
  faults.inject(sim::IssueType::kSwitchPortFlapping,
                {sim::ComponentKind::kPhysicalSwitch, flapping.value()},
                SimTime::seconds(0), forever);
  faults.inject(sim::IssueType::kRnicPortDown,
                {sim::ComponentKind::kRnic, at(5, 2).rnic.value()},
                SimTime::seconds(10), forever);
  faults.inject(sim::IssueType::kNvlinkDegradation,
                {sim::ComponentKind::kHost, 7}, SimTime::seconds(0), forever);
  overlay.invalidate_offload(at(6, 3).rnic);
  overlay.break_rule(overlay.chain_of(at(3, 0)).ovs, at(4, 0));
  const auto& looped = overlay.chain_of(at(3, 1));
  overlay.corrupt_rule_to_loop(looped.vxlan, at(4, 1), looped.veth);

  EngineConfig cfg;
  cfg.routing_mode = mode;
  ProbeEngine engine{topo, overlay, faults, RngStream{2026}, cfg};
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  const auto fold = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  };
  for (int round = 0; round < 40; ++round) {
    const SimTime t = SimTime::seconds(1 + 2 * round);
    if (round == 15) {  // mid-schedule: a slow RNIC under the shared link
      sim::FaultEffect slow;
      slow.loss_probability = 0.01;
      slow.extra_latency_us = 0.3;
      faults.inject(sim::IssueType::kRnicFirmwareNotResponding,
                    {sim::ComponentKind::kRnic, at(0, 0).rnic.value()}, t,
                    forever, slow);
    }
    if (round == 25) faults.repair(repaired, t);
    for (const auto& s : eps) {
      for (const auto& d : eps) {
        if (s.container == d.container) continue;
        const auto r = engine.probe(s, d, t);
        fold(r.delivered ? 1 : 0);
        fold(std::bit_cast<std::uint64_t>(r.rtt_us));
        fold(r.path_id);
      }
    }
  }
  return h;
}

TEST(EngineFingerprint, ProbeStreamMatchesTheRecordedStream) {
  // Recorded before the probe path was rewritten for one fault pass and no
  // allocation; any drift in RNG draws, path ids or floating-point
  // accumulation order changes these.
  struct Expected {
    topo::RoutingMode mode;
    std::uint64_t fingerprint;
  };
  const Expected expected[] = {
      {topo::RoutingMode::kStaticEcmp, 0x29fe612b7c4ef258ull},
      {topo::RoutingMode::kSpray, 0x8fc070a767b858cfull},
      {topo::RoutingMode::kAdaptive, 0x93f53b2f57c075c7ull},
  };
  for (const auto& e : expected) {
    EXPECT_EQ(probe_stream_fingerprint(e.mode), e.fingerprint)
        << topo::to_string(e.mode) << std::hex << " got 0x"
        << probe_stream_fingerprint(e.mode);
  }
}

}  // namespace
}  // namespace skh::probe
