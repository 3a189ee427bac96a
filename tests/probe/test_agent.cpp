#include "probe/agent.h"

#include <gtest/gtest.h>

#include <vector>

#include "probe/probe_types.h"

namespace skh::probe {
namespace {

Endpoint ep(std::uint32_t c, std::uint32_t r) {
  return Endpoint{ContainerId{c}, RnicId{r}};
}

/// One pair's results from a round buffer, in append order.
std::vector<ProbeResult> results_for(const std::vector<ProbeResult>& round,
                                     const EndpointPair& pair) {
  std::vector<ProbeResult> out;
  for (const auto& r : round) {
    if (r.pair == pair) out.push_back(r);
  }
  return out;
}

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : agent_(ContainerId{0}, {ep(0, 0), ep(0, 1)}) {
    pairs_ = {{ep(0, 0), ep(1, 8)},
              {ep(0, 1), ep(1, 9)},
              {ep(0, 0), ep(2, 16)}};
  }

  Agent agent_;
  std::vector<EndpointPair> pairs_;
};

TEST_F(AgentTest, ListStartsInactive) {
  agent_.set_ping_list(pairs_);
  EXPECT_EQ(agent_.total_targets(), 3u);
  EXPECT_EQ(agent_.active_targets(), 0u);
}

TEST_F(AgentTest, RejectsForeignSource) {
  std::vector<EndpointPair> bad{{ep(5, 40), ep(1, 8)}};
  EXPECT_THROW(agent_.set_ping_list(bad), std::invalid_argument);
}

TEST_F(AgentTest, RegistrationActivatesPerDestination) {
  agent_.set_ping_list(pairs_);
  agent_.activate_destination(ContainerId{1});
  EXPECT_EQ(agent_.active_targets(), 2u);
  agent_.activate_destination(ContainerId{2});
  EXPECT_EQ(agent_.active_targets(), 3u);
}

TEST_F(AgentTest, DeregistrationDeactivates) {
  agent_.set_ping_list(pairs_);
  agent_.activate_destination(ContainerId{1});
  agent_.activate_destination(ContainerId{2});
  agent_.deactivate_destination(ContainerId{1});
  EXPECT_EQ(agent_.active_targets(), 1u);
}

TEST_F(AgentTest, ReplaceListPreservesActivation) {
  // The runtime skeleton optimization swaps the list; registered peers must
  // stay active without a new registration round.
  agent_.set_ping_list(pairs_);
  agent_.activate_destination(ContainerId{1});
  agent_.set_ping_list({{ep(0, 0), ep(1, 8)}, {ep(0, 1), ep(2, 17)}});
  EXPECT_EQ(agent_.total_targets(), 2u);
  EXPECT_EQ(agent_.active_targets(), 1u);  // dst container 1 still active
}

TEST_F(AgentTest, RegistrationBeforeListInstallStillApplies) {
  agent_.activate_destination(ContainerId{2});
  agent_.set_ping_list(pairs_);
  EXPECT_EQ(agent_.active_targets(), 1u);
}

/// Three containers with one endpoint each, on hosts 0-2 of a 4-host
/// fabric, for the round tests.
class AgentRound : public ::testing::Test {
 protected:
  AgentRound()
      : topo_(topo::Topology::build([] {
          topo::TopologyConfig c;
          c.num_hosts = 4;
          c.rails_per_host = 8;
          c.hosts_per_segment = 2;
          return c;
        }())),
        a_{ContainerId{0}, topo_.rnic_of(HostId{0}, 0)},
        b_{ContainerId{1}, topo_.rnic_of(HostId{1}, 0)},
        c_{ContainerId{2}, topo_.rnic_of(HostId{2}, 0)},
        engine_{topo_, overlay_, faults_, RngStream{3}} {
    overlay_.attach_endpoint(a_, HostId{0}, /*vni=*/0);
    overlay_.attach_endpoint(b_, HostId{1}, /*vni=*/0);
    overlay_.attach_endpoint(c_, HostId{2}, /*vni=*/0);
  }

  topo::Topology topo_;
  overlay::OverlayNetwork overlay_;
  sim::FaultInjector faults_;
  Endpoint a_;
  Endpoint b_;
  Endpoint c_;
  ProbeEngine engine_;
};

TEST_F(AgentRound, ProbesOnlyActiveTargets) {
  std::vector<ProbeResult> round;
  Agent agent{ContainerId{0}, {a_}};
  agent.set_ping_list({{a_, b_}, {a_, c_}});
  agent.activate_destination(ContainerId{1});
  agent.run_round(engine_, SimTime::seconds(1), round);
  EXPECT_EQ(round.size(), 1u);
  EXPECT_EQ(agent.probes_sent(), 1u);
  agent.activate_destination(ContainerId{2});
  agent.run_round(engine_, SimTime::seconds(2), round);
  EXPECT_EQ(round.size(), 3u);
  EXPECT_EQ(agent.probes_sent(), 3u);
}

TEST_F(AgentRound, AppendsAfterExistingResultsInTargetOrder) {
  // One buffer carries a whole tick: each agent appends behind the agents
  // that ran before it, never clearing or reordering what is there.
  Agent first{ContainerId{0}, {a_}};
  first.set_ping_list({{a_, c_}, {a_, b_}});
  first.activate_destination(ContainerId{1});
  first.activate_destination(ContainerId{2});
  Agent second{ContainerId{1}, {b_}};
  second.set_ping_list({{b_, a_}});
  second.activate_destination(ContainerId{0});

  ProbeResult held;
  held.pair = EndpointPair{c_, a_};
  held.seq = 99;
  std::vector<ProbeResult> round{held};
  first.run_round(engine_, SimTime::seconds(1), round);
  second.run_round(engine_, SimTime::seconds(1), round);
  ASSERT_EQ(round.size(), 4u);
  EXPECT_EQ(round[0].pair, held.pair);
  EXPECT_EQ(round[0].seq, 99u);
  EXPECT_EQ(round[1].pair, (EndpointPair{a_, c_}));
  EXPECT_EQ(round[2].pair, (EndpointPair{a_, b_}));
  EXPECT_EQ(round[3].pair, (EndpointPair{b_, a_}));
}

/// Two-endpoint world: agent at a (host 0) probing b (host 1), with a
/// fault injector the tests can aim at b.
class AgentRetryTest : public ::testing::Test {
 protected:
  AgentRetryTest()
      : topo_(topo::Topology::build([] {
          topo::TopologyConfig c;
          c.num_hosts = 4;
          c.rails_per_host = 8;
          c.hosts_per_segment = 2;
          return c;
        }())),
        a_{ContainerId{0}, topo_.rnic_of(HostId{0}, 0)},
        b_{ContainerId{1}, topo_.rnic_of(HostId{1}, 0)},
        agent_(ContainerId{0}, {a_}) {
    overlay_.attach_endpoint(a_, HostId{0}, /*vni=*/0);
    overlay_.attach_endpoint(b_, HostId{1}, /*vni=*/0);
    agent_.set_ping_list({{a_, b_}});
    agent_.activate_destination(ContainerId{1});
  }

  /// Hard-break container 1 for [start, end).
  void break_b(SimTime start, SimTime end) {
    sim::FaultEffect eff;
    eff.unreachable = true;
    faults_.inject(sim::IssueType::kContainerCrash,
                   {sim::ComponentKind::kContainer, 1}, start, end, eff);
  }

  topo::Topology topo_;
  overlay::OverlayNetwork overlay_;
  sim::FaultInjector faults_;
  Endpoint a_;
  Endpoint b_;
  Agent agent_;
  std::vector<ProbeResult> round_;
};

TEST_F(AgentRetryTest, ThresholdZeroKeepsContinuousSampling) {
  // The anomaly detector's loss-streak and unconnectivity rules need every
  // round sampled, so a target that keeps failing is probed every round.
  break_b(SimTime{}, SimTime::hours(10));
  ProbeEngine eng{topo_, overlay_, faults_, RngStream{7}};
  for (int s = 0; s < 5; ++s) {
    agent_.run_round(eng, SimTime::seconds(s), round_);
  }
  EXPECT_EQ(agent_.probes_sent(), 5u);
  ASSERT_EQ(round_.size(), 5u);
  for (std::size_t i = 0; i < round_.size(); ++i) {
    EXPECT_FALSE(round_[i].delivered) << "round " << i;
    EXPECT_EQ(round_[i].sent_at.raw_nanos(),
              SimTime::seconds(static_cast<double>(i)).raw_nanos());
  }
}

TEST(PingLists, FullMeshExcludesOwnContainer) {
  std::vector<Endpoint> eps;
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (std::uint32_t r = 0; r < 2; ++r) eps.push_back(ep(c, c * 8 + r));
  }
  const auto mesh = full_mesh_pairs(eps);
  // 6 endpoints, each pings the 4 endpoints of the other 2 containers.
  EXPECT_EQ(mesh.size(), 24u);
  for (const auto& p : mesh) EXPECT_NE(p.src.container, p.dst.container);
}

TEST(PingLists, RailPrunedKeepsSameRankOnly) {
  std::vector<Endpoint> eps;
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (std::uint32_t r = 0; r < 8; ++r) eps.push_back(ep(c, c * 8 + r));
  }
  const auto rank_of = [](const Endpoint& e) { return e.rnic.value() % 8; };
  const auto basic = rail_pruned_pairs(eps, rank_of);
  const auto mesh = full_mesh_pairs(eps);
  // The paper's 8x reduction on 8-rail hosts.
  EXPECT_EQ(basic.size() * 8, mesh.size());
  for (const auto& p : basic) {
    EXPECT_EQ(rank_of(p.src), rank_of(p.dst));
  }
}

TEST(AgentSequencing, StampsMonotonicPerPairSequenceNumbers) {
  const auto cfg = [] {
    topo::TopologyConfig c;
    c.num_hosts = 4;
    c.rails_per_host = 8;
    c.hosts_per_segment = 2;
    return c;
  }();
  const auto topo = topo::Topology::build(cfg);
  overlay::OverlayNetwork overlay;
  sim::FaultInjector faults;
  const Endpoint a{ContainerId{0}, topo.rnic_of(HostId{0}, 0)};
  const Endpoint b{ContainerId{1}, topo.rnic_of(HostId{1}, 0)};
  const Endpoint c{ContainerId{2}, topo.rnic_of(HostId{2}, 0)};
  overlay.attach_endpoint(a, HostId{0}, /*vni=*/0);
  overlay.attach_endpoint(b, HostId{1}, /*vni=*/0);
  overlay.attach_endpoint(c, HostId{2}, /*vni=*/0);
  ProbeEngine engine{topo, overlay, faults, RngStream{3}};
  std::vector<ProbeResult> round;

  Agent agent{ContainerId{0}, {a}};
  agent.set_ping_list({{a, b}, {a, c}});
  agent.activate_destination(ContainerId{1});
  agent.activate_destination(ContainerId{2});
  for (int t = 1; t <= 3; ++t) {
    agent.run_round(engine, SimTime::seconds(t), round);
  }
  // Each pair gets its own 1, 2, 3, ... stream, independent of the other.
  const auto ab = results_for(round, {a, b});
  const auto ac = results_for(round, {a, c});
  ASSERT_EQ(ab.size(), 3u);
  ASSERT_EQ(ac.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ab[i].seq, i + 1);
    EXPECT_EQ(ac[i].seq, i + 1);
  }

  // A skeleton replan keeps surviving pairs' sequence streams monotonic —
  // a reset to 1 would make post-replan results look like stale replays.
  agent.set_ping_list({{a, b}});
  agent.run_round(engine, SimTime::seconds(4), round);
  ASSERT_EQ(results_for(round, {a, b}).size(), 4u);
  EXPECT_EQ(results_for(round, {a, b}).back().seq, 4u);
}

}  // namespace
}  // namespace skh::probe
