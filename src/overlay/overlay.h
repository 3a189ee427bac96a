// The VXLAN/OVS overlay network model (§2, Figure 1).
//
// Each host runs one OVS instance; each endpoint (container, RNIC) attached
// to a host materializes a chain of virtual components:
//
//   container netns -> veth -> OVS bridge port -> VXLAN tunnel port -> RNIC
//   VF -> (underlay) -> peer RNIC VF -> VXLAN -> OVS -> veth -> netns
//
// Tenant isolation follows VXLAN semantics: endpoints attached under the
// same VNI (one VNI per training task) are mutually reachable; nothing else
// is. Forwarding between consecutive components is *derived* from this
// structure — per-pair flow rules are not materialized (a 2048-endpoint
// task would need ~38M of them) — while faults are stored as exceptions:
// deleted rules (unreachability), rules corrupted into loops, and
// RNIC-offload tables desynchronized from OVS (the Figure 18 case).
// Table dumps (`ovs_rules_for` / `offloaded_rules_for`) regenerate the
// rules a production `ovs-dpctl dump-flows` would show.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"

namespace skh::overlay {

enum class NodeKind : std::uint8_t {
  kContainerNs,  ///< container network namespace
  kVeth,         ///< CNI veth pair end
  kOvsPort,      ///< OVS bridge port
  kVxlanTunnel,  ///< VXLAN en/de-capsulation point
  kRnicVf,       ///< SR-IOV virtual function on the RNIC
};

[[nodiscard]] std::string_view to_string(NodeKind k) noexcept;

struct OverlayNode {
  VPortId id;
  NodeKind kind = NodeKind::kContainerNs;
  HostId host;
  ContainerId container;  ///< invalid for host-scoped nodes (OVS/VXLAN)
  RnicId rnic;            ///< valid for per-endpoint nodes
};

/// A flow-table rule as a dump would render it: at node `from`, traffic for
/// destination endpoint `dst` forwards to node `to`.
struct FlowRule {
  VPortId from;
  Endpoint dst;
  VPortId to;

  friend constexpr auto operator<=>(const FlowRule&,
                                    const FlowRule&) noexcept = default;
};

/// The chain of overlay nodes an endpoint contributes (send direction).
struct EndpointChain {
  VPortId netns;
  VPortId veth;
  VPortId ovs;     ///< host-scoped, shared by all endpoints on the host
  VPortId vxlan;   ///< host-scoped
  VPortId vf;
};

/// Outcome of replaying one flow's forwarding chain (Algorithm 1's
/// OverlayReachability over L_O).
struct OverlayWalk {
  bool reachable = false;
  bool loop = false;  ///< a rule sent the flow back to a node it had left
  /// Where the walk broke (the node with no rule for the flow), looped (the
  /// first node met twice) or ran out of steps; the source's netns when the
  /// destination is detached; invalid when reachable or the source is
  /// detached.
  VPortId failure_point;
};

class OverlayNetwork {
 public:
  /// Register a host: creates its OVS bridge and VXLAN tunnel nodes.
  void add_host(HostId host);

  /// Attach an endpoint on `host` under tenant/task VNI `vni`; endpoints
  /// sharing a VNI (except same-container ones, which ride NVLink) are
  /// mutually reachable.
  void attach_endpoint(Endpoint ep, HostId host, std::uint32_t vni);

  /// Remove an endpoint; fault exceptions touching it are dropped.
  void detach_endpoint(Endpoint ep);

  // --- the forwarding interface (probe engine and localizer) -------------
  /// Longest walk `walk` takes (its loop memory is a fixed array).
  static constexpr std::size_t kMaxWalkSteps = 64;

  /// Replay the (src, dst) flow's forwarding chain from src's netns for at
  /// most `max_steps` hops (<= kMaxWalkSteps, else std::invalid_argument).
  /// Each endpoint is looked up once. A step follows the flow's rule at the
  /// current node: deleted = broken there, loop-corrupted = jump to its
  /// target, otherwise the next chain position. The chain's source leg
  /// (netns, veth, ovs, vxlan, vf) runs up to the vf -> peer vf crossing and
  /// its destination leg (peer vf ... peer netns) after it; on a same-host
  /// flow the host's OVS and VXLAN nodes sit on both legs. A jump to such a
  /// shared node lands on the source leg, where chain order meets it first.
  /// A loop is a repeated (node, leg); nodes off the chain share one leg,
  /// and a flow with no chain (different VNIs, same container) has only
  /// that one, so its loops are repeated nodes.
  [[nodiscard]] OverlayWalk walk(const Endpoint& src, const Endpoint& dst,
                                 std::size_t max_steps) const;

  /// The ordered node list of the (src, dst) flow — the L_O of Algorithm 1.
  [[nodiscard]] std::vector<VPortId> overlay_path(Endpoint src,
                                                  Endpoint dst) const;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const OverlayNode& node(VPortId id) const;
  [[nodiscard]] bool attached(Endpoint ep) const;
  [[nodiscard]] bool same_vni(const Endpoint& a, const Endpoint& b) const;
  [[nodiscard]] const EndpointChain& chain_of(Endpoint ep) const;
  /// Number of flow-table items OVS would hold on `host` (Figure 6):
  /// nine rules per connected directed flow touching the host, minus
  /// deleted ones.
  [[nodiscard]] std::size_t flow_table_size(HostId host) const;
  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return nodes_.size();
  }

  // --- RNIC offload (eSwitch) ----------------------------------------------
  /// Dump the OVS-resident rules that involve `rnic`'s VFs.
  [[nodiscard]] std::vector<FlowRule> ovs_rules_for(RnicId rnic) const;
  /// Dump the RNIC-offloaded copy of those rules.
  [[nodiscard]] std::vector<FlowRule> offloaded_rules_for(RnicId rnic) const;
  /// Inconsistent rules: symmetric difference of the two dumps. Empty =
  /// consistent (the "validate RNICs" step of §5.3). O(rules of this RNIC).
  [[nodiscard]] std::vector<FlowRule> offload_inconsistencies(
      RnicId rnic) const;
  /// O(1): has this RNIC's offload copy been invalidated?
  [[nodiscard]] bool offload_desynced(RnicId rnic) const noexcept {
    return rnic.value() < desynced_.size() && desynced_[rnic.value()] != 0;
  }

  // --- fault hooks ----------------------------------------------------------
  /// Delete the rule at `from` for destination `dst` (broken chain).
  void break_rule(VPortId from, Endpoint dst);
  /// Redirect the rule at `from` for `dst` to `loop_to` (forwarding loop).
  void corrupt_rule_to_loop(VPortId from, Endpoint dst, VPortId loop_to);
  /// Invalidate the RNIC-offloaded copies of rules touching `rnic` without
  /// touching OVS state — the Fig. 18 inconsistency. Affected traffic is
  /// punted to the software slow path (high latency), which the probe layer
  /// models; this call only desynchronizes the dumped tables.
  void invalidate_offload(RnicId rnic);
  /// Re-synchronize the offload copy with OVS (repair / RNIC reset).
  void resync_offload(RnicId rnic);

 private:
  struct RuleKey {
    VPortId from;
    Endpoint dst;
    friend constexpr auto operator<=>(const RuleKey&,
                                      const RuleKey&) noexcept = default;
  };
  struct RuleKeyHash {
    std::size_t operator()(const RuleKey& k) const noexcept {
      return std::hash<skh::VPortId>{}(k.from) * 1315423911u ^
             std::hash<skh::Endpoint>{}(k.dst);
    }
  };

  /// Everything the overlay knows about one attached endpoint.
  struct EndpointRecord {
    EndpointChain chain;
    HostId host;
    std::uint32_t vni = 0;
  };

  VPortId new_node(NodeKind kind, HostId host, ContainerId container,
                   RnicId rnic);
  [[nodiscard]] const EndpointRecord* record_of(const Endpoint& ep) const;
  /// All endpoints an endpoint can talk to (same VNI, other containers).
  [[nodiscard]] std::vector<Endpoint> peers_of(const Endpoint& ep) const;

  std::vector<OverlayNode> nodes_;
  std::unordered_map<HostId, VPortId> ovs_of_host_;
  std::unordered_map<HostId, VPortId> vxlan_of_host_;
  std::unordered_map<Endpoint, EndpointRecord> endpoints_;
  /// VNI membership (for peer enumeration and table-size accounting).
  std::unordered_map<std::uint32_t, std::vector<Endpoint>> members_of_vni_;
  /// Fault exceptions.
  std::unordered_set<RuleKey, RuleKeyHash> broken_rules_;
  std::unordered_map<RuleKey, VPortId, RuleKeyHash> corrupted_rules_;
  std::unordered_map<HostId, std::size_t> broken_per_host_;
  /// 1 where the RNIC's offload copy is invalidated, indexed by RnicId.
  std::vector<std::uint8_t> desynced_;
};

}  // namespace skh::overlay
