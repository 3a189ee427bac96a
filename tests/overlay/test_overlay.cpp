#include "overlay/overlay.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace skh::overlay {
namespace {

Endpoint ep(std::uint32_t c, std::uint32_t r) {
  return Endpoint{ContainerId{c}, RnicId{r}};
}

/// The forwarding model the one-pass walk replaced, kept test-side as its
/// reference: `next_hop` resolves `current` to its first chain position
/// (source chain first) on every step, and the walk meets loops by node.
/// Fault exceptions come from a mirror of the rule calls made through it.
class ReferenceWalker {
 public:
  explicit ReferenceWalker(OverlayNetwork& net) : net_(net) {}

  void break_rule(VPortId from, Endpoint dst) {
    net_.break_rule(from, dst);
    corrupted_.erase({from, dst});
    broken_.insert({from, dst});
  }
  void corrupt_rule_to_loop(VPortId from, Endpoint dst, VPortId to) {
    net_.corrupt_rule_to_loop(from, dst, to);
    broken_.erase({from, dst});
    corrupted_[{from, dst}] = to;
  }
  void detach_endpoint(Endpoint e) {
    const EndpointChain c = net_.chain_of(e);
    const auto touches = [&](const Key& k) {
      return k.second == e || k.first == c.netns || k.first == c.veth ||
             k.first == c.vf;
    };
    std::erase_if(broken_, touches);
    std::erase_if(corrupted_,
                  [&](const auto& rule) { return touches(rule.first); });
    net_.detach_endpoint(e);
  }

  [[nodiscard]] std::optional<VPortId> next_hop(const Endpoint& src,
                                                const Endpoint& dst,
                                                VPortId current) const {
    const Key key{current, dst};
    if (broken_.contains(key)) return std::nullopt;
    if (const auto it = corrupted_.find(key); it != corrupted_.end()) {
      return it->second;
    }
    if (!net_.attached(src) || !net_.attached(dst)) return std::nullopt;
    if (!net_.same_vni(src, dst) || src.container == dst.container) {
      return std::nullopt;
    }
    const EndpointChain& cs = net_.chain_of(src);
    const EndpointChain& cd = net_.chain_of(dst);
    if (current == cs.netns) return cs.veth;
    if (current == cs.veth) return cs.ovs;
    if (current == cs.ovs) return cs.vxlan;
    if (current == cs.vxlan) return cs.vf;
    if (current == cs.vf) return cd.vf;
    if (current == cd.vf) return cd.vxlan;
    if (current == cd.vxlan) return cd.ovs;
    if (current == cd.ovs) return cd.veth;
    if (current == cd.veth) return cd.netns;
    return std::nullopt;
  }

  [[nodiscard]] OverlayWalk walk(const Endpoint& src, const Endpoint& dst,
                                 std::size_t max_steps) const {
    OverlayWalk v;
    if (!net_.attached(src) || !net_.attached(dst)) {
      v.failure_point =
          net_.attached(src) ? net_.chain_of(src).netns : VPortId{};
      return v;
    }
    const VPortId goal = net_.chain_of(dst).netns;
    VPortId current = net_.chain_of(src).netns;
    std::set<VPortId> visited{current};
    for (std::size_t step = 0; step < max_steps; ++step) {
      const auto next = next_hop(src, dst, current);
      if (!next) {
        v.failure_point = current;
        return v;
      }
      if (*next == goal) {
        v.reachable = true;
        return v;
      }
      if (visited.contains(*next)) {
        v.loop = true;
        v.failure_point = *next;
        return v;
      }
      visited.insert(*next);
      current = *next;
    }
    v.failure_point = current;
    return v;
  }

 private:
  using Key = std::pair<VPortId, Endpoint>;
  OverlayNetwork& net_;
  std::set<Key> broken_;
  std::map<Key, VPortId> corrupted_;
};

/// Fixture with two endpoints on two hosts under one VNI.
class ConnectedOverlay : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = ep(0, 0);
    b_ = ep(1, 8);
    net_.attach_endpoint(a_, HostId{0}, /*vni=*/7);
    net_.attach_endpoint(b_, HostId{1}, /*vni=*/7);
  }

  OverlayWalk walk(const Endpoint& src, const Endpoint& dst,
                   std::size_t max_steps = 32) {
    return net_.walk(src, dst, max_steps);
  }

  OverlayNetwork net_;
  Endpoint a_, b_;
};

TEST_F(ConnectedOverlay, ChainReachesDestination) {
  EXPECT_TRUE(walk(a_, b_).reachable);
  // Full chain: veth, ovs, vxlan, vf | vf, vxlan, ovs, veth, netns = 9 hops.
  EXPECT_TRUE(walk(a_, b_, 9).reachable);
  const auto short_walk = walk(a_, b_, 8);
  EXPECT_FALSE(short_walk.reachable);
  EXPECT_FALSE(short_walk.loop);
  EXPECT_EQ(short_walk.failure_point, net_.chain_of(b_).veth);
}

TEST_F(ConnectedOverlay, ChainIsSymmetric) {
  const auto w = walk(b_, a_);
  EXPECT_TRUE(w.reachable);
  EXPECT_FALSE(w.failure_point.valid());
}

TEST_F(ConnectedOverlay, OverlayPathListsAllTenNodes) {
  const auto path = net_.overlay_path(a_, b_);
  EXPECT_EQ(path.size(), 10u);
  EXPECT_EQ(net_.node(path[0]).kind, NodeKind::kContainerNs);
  EXPECT_EQ(net_.node(path[4]).kind, NodeKind::kRnicVf);
  EXPECT_EQ(net_.node(path[5]).kind, NodeKind::kRnicVf);
  EXPECT_EQ(net_.node(path[9]).kind, NodeKind::kContainerNs);
}

TEST_F(ConnectedOverlay, BrokenRuleStopsWalk) {
  net_.break_rule(net_.chain_of(a_).ovs, b_);
  const auto w = walk(a_, b_);
  // Walk stops after veth -> ovs (ovs has no rule for dst anymore).
  EXPECT_FALSE(w.reachable);
  EXPECT_FALSE(w.loop);
  EXPECT_EQ(w.failure_point, net_.chain_of(a_).ovs);
  // Reverse direction unaffected.
  EXPECT_TRUE(walk(b_, a_).reachable);
}

TEST_F(ConnectedOverlay, CorruptedRuleCreatesLoop) {
  const auto& chain = net_.chain_of(a_);
  net_.corrupt_rule_to_loop(chain.vxlan, b_, chain.veth);
  const auto w = walk(a_, b_);
  EXPECT_FALSE(w.reachable);
  EXPECT_TRUE(w.loop);
  EXPECT_EQ(w.failure_point, chain.veth);
}

TEST_F(ConnectedOverlay, FlowTableSizeCountsRules) {
  // Per directed flow: 5 send-side rules (incl. the VF tunnel entry) + 4
  // receive-side rules => 9 per host for one connected pair.
  EXPECT_EQ(net_.flow_table_size(HostId{0}), 9u);
  EXPECT_EQ(net_.flow_table_size(HostId{1}), 9u);
}

TEST_F(ConnectedOverlay, BreakingARuleShrinksTheTable) {
  net_.break_rule(net_.chain_of(a_).ovs, b_);
  EXPECT_EQ(net_.flow_table_size(HostId{0}), 8u);
}

TEST_F(ConnectedOverlay, DetachRemovesReachability) {
  net_.detach_endpoint(b_);
  EXPECT_FALSE(net_.attached(b_));
  EXPECT_EQ(net_.flow_table_size(HostId{0}), 0u);
  const auto w = walk(a_, b_);
  EXPECT_FALSE(w.reachable);
  EXPECT_EQ(w.failure_point, net_.chain_of(a_).netns);  // no step taken
  EXPECT_FALSE(walk(b_, a_).failure_point.valid());     // source is gone
}

TEST_F(ConnectedOverlay, DetachDropsFaultExceptions) {
  net_.break_rule(net_.chain_of(a_).ovs, b_);
  net_.detach_endpoint(b_);
  // Re-attach a fresh endpoint of the same identity: clean slate.
  net_.attach_endpoint(b_, HostId{1}, 7);
  EXPECT_TRUE(walk(a_, b_).reachable);
}

TEST_F(ConnectedOverlay, OffloadedRulesMatchOvsWhenHealthy) {
  EXPECT_TRUE(net_.offload_inconsistencies(a_.rnic).empty());
  EXPECT_FALSE(net_.offload_desynced(a_.rnic));
  const auto ovs = net_.ovs_rules_for(a_.rnic);
  const auto off = net_.offloaded_rules_for(a_.rnic);
  EXPECT_FALSE(ovs.empty());
  EXPECT_EQ(ovs, off);
}

TEST_F(ConnectedOverlay, InvalidatedOffloadIsInconsistent) {
  net_.invalidate_offload(a_.rnic);
  EXPECT_TRUE(net_.offload_desynced(a_.rnic));
  EXPECT_FALSE(net_.offload_inconsistencies(a_.rnic).empty());
  EXPECT_TRUE(net_.offloaded_rules_for(a_.rnic).empty());
  // The other RNIC is unaffected.
  EXPECT_TRUE(net_.offload_inconsistencies(b_.rnic).empty());
  // Resync repairs it (the Fig. 18 recovery).
  net_.resync_offload(a_.rnic);
  EXPECT_TRUE(net_.offload_inconsistencies(a_.rnic).empty());
  EXPECT_FALSE(net_.offload_desynced(a_.rnic));
  // The flags are indexed by RNIC: an invalid id is refused, not sized for.
  EXPECT_THROW(net_.invalidate_offload(RnicId{}), std::invalid_argument);
}

TEST(Overlay, AttachRequiresUniqueEndpoint) {
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  EXPECT_THROW(net.attach_endpoint(ep(0, 0), HostId{0}, 1),
               std::invalid_argument);
}

TEST(Overlay, DifferentVniIsIsolated) {
  // VXLAN tenant isolation: endpoints of different tasks never reach each
  // other even on the same hosts.
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(1, 8), HostId{1}, 2);
  EXPECT_FALSE(net.same_vni(ep(0, 0), ep(1, 8)));
  const auto w = net.walk(ep(0, 0), ep(1, 8), 32);
  EXPECT_FALSE(w.reachable);
  EXPECT_FALSE(w.loop);
  EXPECT_EQ(w.failure_point, net.chain_of(ep(0, 0)).netns);  // no first hop
}

TEST(Overlay, SameContainerEndpointsDoNotUseOverlay) {
  // Intra-container RNIC pairs communicate over NVLink; the overlay
  // provides no chain for them.
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(0, 1), HostId{0}, 1);
  const auto w = net.walk(ep(0, 0), ep(0, 1), 32);
  EXPECT_FALSE(w.reachable);
  EXPECT_FALSE(w.loop);
  EXPECT_EQ(w.failure_point, net.chain_of(ep(0, 0)).netns);  // no first hop
}

TEST(Overlay, UnattachedQueriesThrow) {
  OverlayNetwork net;
  EXPECT_THROW((void)net.chain_of(ep(9, 9)), std::out_of_range);
  EXPECT_THROW((void)net.node(VPortId{42}), std::out_of_range);
}

TEST(Overlay, HostScopedNodesAreShared) {
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(0, 1), HostId{0}, 1);
  EXPECT_EQ(net.chain_of(ep(0, 0)).ovs, net.chain_of(ep(0, 1)).ovs);
  EXPECT_EQ(net.chain_of(ep(0, 0)).vxlan, net.chain_of(ep(0, 1)).vxlan);
  EXPECT_NE(net.chain_of(ep(0, 0)).vf, net.chain_of(ep(0, 1)).vf);
}

TEST(Overlay, OffNodeQueriesReturnNull) {
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(1, 8), HostId{1}, 1);
  net.attach_endpoint(ep(2, 16), HostId{2}, 1);
  // A node belonging to a third endpoint is not on the (0 -> 1) chain: a
  // rule that sends the flow there strands it.
  const VPortId foreign = net.chain_of(ep(2, 16)).veth;
  net.corrupt_rule_to_loop(net.chain_of(ep(0, 0)).veth, ep(1, 8), foreign);
  const auto w = net.walk(ep(0, 0), ep(1, 8), 32);
  EXPECT_FALSE(w.reachable);
  EXPECT_FALSE(w.loop);
  EXPECT_EQ(w.failure_point, foreign);
}

TEST(Overlay, ManyEndpointsFlowTableGrowth) {
  // Fig. 6 premise: flow tables grow with tenant endpoints on the host.
  OverlayNetwork net;
  for (std::uint32_t c = 0; c < 8; ++c) {
    net.attach_endpoint(ep(c, c), HostId{c / 2}, /*vni=*/1);
  }
  std::size_t total = 0;
  for (std::uint32_t h = 0; h < 4; ++h) {
    total += net.flow_table_size(HostId{h});
  }
  // 8 endpoints in one VNI, each with 7 peers: 8 x 7 x 9 = 504 rules.
  EXPECT_EQ(total, 504u);
}

TEST(Overlay, TableDumpReflectsCorruption) {
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(1, 8), HostId{1}, 1);
  const auto& chain = net.chain_of(ep(0, 0));
  net.corrupt_rule_to_loop(chain.vf, ep(1, 8), chain.veth);
  bool found = false;
  for (const auto& r : net.ovs_rules_for(RnicId{0})) {
    if (r.from == chain.vf && r.dst == ep(1, 8)) {
      EXPECT_EQ(r.to, chain.veth);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Overlay, WalkRejectsABoundBeyondItsLoopMemory) {
  OverlayNetwork net;
  net.attach_endpoint(ep(0, 0), HostId{0}, 1);
  net.attach_endpoint(ep(1, 8), HostId{1}, 1);
  EXPECT_TRUE(
      net.walk(ep(0, 0), ep(1, 8), OverlayNetwork::kMaxWalkSteps).reachable);
  EXPECT_THROW(
      (void)net.walk(ep(0, 0), ep(1, 8), OverlayNetwork::kMaxWalkSteps + 1),
      std::invalid_argument);
}

TEST(Overlay, WalkMatchesTheReferenceOffTheSameHostChain) {
  // Six containers of two endpoints on three hosts (two per host), all in
  // VNI 1 except container 5 (VNI 2). Each trial aims up to six random
  // broken or loop-corrupted rules at random flows' chains (some at random
  // nodes) and may detach an endpoint; then every flow walks like the
  // reference at bounds 0-9 (below the chain length), 32 and 64. The one
  // exception is a connected same-host flow: the reference's leg-blind
  // step sends it into a false loop (see SameHostOverlay).
  std::mt19937_64 gen(20261019);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  const std::size_t bounds[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 64};
  std::size_t reached = 0, broke = 0, looped = 0, detached = 0;
  for (int trial = 0; trial < 200; ++trial) {
    OverlayNetwork net;
    ReferenceWalker ref(net);
    std::vector<Endpoint> eps;
    for (std::uint32_t c = 0; c < 6; ++c) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        eps.push_back(ep(c, 2 * c + k));
        net.attach_endpoint(eps.back(), HostId{c / 2}, c == 5 ? 2 : 1);
      }
    }
    const std::size_t rules = pick(7);
    for (std::size_t r = 0; r < rules; ++r) {
      const Endpoint s = eps[pick(eps.size())];
      const Endpoint d = eps[pick(eps.size())];
      const auto chain = net.overlay_path(s, d);
      const auto any_node = [&] {
        return VPortId{static_cast<std::uint32_t>(pick(net.total_nodes()))};
      };
      const VPortId from = pick(4) == 0 ? any_node() : chain[pick(10)];
      const VPortId to = pick(2) == 0 ? any_node() : chain[pick(10)];
      if (pick(3) == 0) {
        ref.break_rule(from, d);
      } else {
        ref.corrupt_rule_to_loop(from, d, to);
      }
    }
    if (pick(5) == 0) ref.detach_endpoint(eps[pick(eps.size())]);
    for (const Endpoint& src : eps) {
      for (const Endpoint& dst : eps) {
        const bool live = net.attached(src) && net.attached(dst);
        if (live && src.container.value() / 2 == dst.container.value() / 2 &&
            src.container != dst.container && net.same_vni(src, dst)) {
          continue;
        }
        detached += live ? 0 : 1;
        for (const std::size_t bound : bounds) {
          const OverlayWalk want = ref.walk(src, dst, bound);
          const OverlayWalk got = net.walk(src, dst, bound);
          ASSERT_EQ(got.reachable, want.reachable)
              << "trial " << trial << " " << to_string(src) << " -> "
              << to_string(dst) << " bound " << bound;
          ASSERT_EQ(got.loop, want.loop)
              << "trial " << trial << " " << to_string(src) << " -> "
              << to_string(dst) << " bound " << bound;
          ASSERT_EQ(got.failure_point, want.failure_point)
              << "trial " << trial << " " << to_string(src) << " -> "
              << to_string(dst) << " bound " << bound;
          reached += want.reachable ? 1 : 0;
          looped += want.loop ? 1 : 0;
          broke += !want.reachable && !want.loop ? 1 : 0;
        }
      }
    }
  }
  // The draw exercised every outcome.
  EXPECT_GT(reached, 0u);
  EXPECT_GT(looped, 0u);
  EXPECT_GT(broke, 0u);
  EXPECT_GT(detached, 0u);
}

/// Two containers of one task on host 0 (a, b) and a third on host 1 (c).
class SameHostOverlay : public ::testing::Test {
 protected:
  void SetUp() override {
    net_.attach_endpoint(a_, HostId{0}, /*vni=*/7);
    net_.attach_endpoint(b_, HostId{0}, /*vni=*/7);
    net_.attach_endpoint(c_, HostId{1}, /*vni=*/7);
  }

  OverlayNetwork net_;
  Endpoint a_ = ep(0, 0);
  Endpoint b_ = ep(1, 4);
  Endpoint c_ = ep(2, 8);
};

TEST_F(SameHostOverlay, ContainersOnOneHostReachEachOther) {
  // Both legs cross host 0's OVS and VXLAN nodes; meeting them again on the
  // destination leg is not a loop.
  for (const auto& [s, d] : {std::pair{a_, b_}, std::pair{b_, a_},
                             std::pair{a_, c_}, std::pair{c_, b_}}) {
    const auto w = net_.walk(s, d, 32);
    EXPECT_TRUE(w.reachable) << to_string(s) << " -> " << to_string(d);
    EXPECT_FALSE(w.loop) << to_string(s) << " -> " << to_string(d);
  }
  // Still the nine-hop chain.
  EXPECT_TRUE(net_.walk(a_, b_, 9).reachable);
  const auto w8 = net_.walk(a_, b_, 8);
  EXPECT_FALSE(w8.reachable);
  EXPECT_EQ(w8.failure_point, net_.chain_of(b_).veth);
}

TEST_F(SameHostOverlay, JumpToASharedNodeLandsOnTheSourceLeg) {
  // A loop rule at b's VF (destination leg) pointing at host 0's OVS node:
  // the jump lands on the source leg, where the walk already met that
  // node, so the flow loops there.
  const EndpointChain cb = net_.chain_of(b_);
  net_.corrupt_rule_to_loop(cb.vf, b_, cb.ovs);
  const auto w = net_.walk(a_, b_, 32);
  EXPECT_FALSE(w.reachable);
  EXPECT_TRUE(w.loop);
  EXPECT_EQ(w.failure_point, cb.ovs);
  // Aimed at a node only the destination leg has, the rule is a shortcut.
  net_.corrupt_rule_to_loop(cb.vf, b_, cb.veth);
  EXPECT_TRUE(net_.walk(a_, b_, 32).reachable);
}

}  // namespace
}  // namespace skh::overlay
