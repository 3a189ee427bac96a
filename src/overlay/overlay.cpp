#include "overlay/overlay.h"

#include <algorithm>
#include <stdexcept>

namespace skh::overlay {

std::string_view to_string(NodeKind k) noexcept {
  switch (k) {
    case NodeKind::kContainerNs: return "netns";
    case NodeKind::kVeth: return "veth";
    case NodeKind::kOvsPort: return "ovs";
    case NodeKind::kVxlanTunnel: return "vxlan";
    case NodeKind::kRnicVf: return "vf";
  }
  return "unknown";
}

VPortId OverlayNetwork::new_node(NodeKind kind, HostId host,
                                 ContainerId container, RnicId rnic) {
  const VPortId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(OverlayNode{id, kind, host, container, rnic});
  return id;
}

void OverlayNetwork::add_host(HostId host) {
  if (ovs_of_host_.contains(host)) return;
  ovs_of_host_[host] =
      new_node(NodeKind::kOvsPort, host, ContainerId{}, RnicId{});
  vxlan_of_host_[host] =
      new_node(NodeKind::kVxlanTunnel, host, ContainerId{}, RnicId{});
}

void OverlayNetwork::attach_endpoint(Endpoint ep, HostId host,
                                     std::uint32_t vni) {
  add_host(host);
  if (endpoints_.contains(ep)) {
    throw std::invalid_argument("attach_endpoint: already attached");
  }
  EndpointChain c;
  c.netns = new_node(NodeKind::kContainerNs, host, ep.container, ep.rnic);
  c.veth = new_node(NodeKind::kVeth, host, ep.container, ep.rnic);
  c.ovs = ovs_of_host_.at(host);
  c.vxlan = vxlan_of_host_.at(host);
  c.vf = new_node(NodeKind::kRnicVf, host, ep.container, ep.rnic);
  endpoints_[ep] = EndpointRecord{c, host, vni};
  members_of_vni_[vni].push_back(ep);
}

void OverlayNetwork::detach_endpoint(Endpoint ep) {
  const auto it = endpoints_.find(ep);
  if (it == endpoints_.end()) return;
  const EndpointChain chain = it->second.chain;

  // Drop fault exceptions that reference this endpoint's nodes or that
  // target flows destined to it.
  auto touches = [&](const RuleKey& k) {
    if (k.dst == ep) return true;
    for (VPortId n : {chain.netns, chain.veth, chain.vf}) {
      if (k.from == n) return true;
    }
    return false;
  };
  for (auto bit = broken_rules_.begin(); bit != broken_rules_.end();) {
    if (touches(*bit)) {
      auto& count = broken_per_host_[node(bit->from).host];
      if (count > 0) --count;
      bit = broken_rules_.erase(bit);
    } else {
      ++bit;
    }
  }
  for (auto cit = corrupted_rules_.begin(); cit != corrupted_rules_.end();) {
    if (touches(cit->first)) {
      cit = corrupted_rules_.erase(cit);
    } else {
      ++cit;
    }
  }

  auto& members = members_of_vni_[it->second.vni];
  members.erase(std::remove(members.begin(), members.end(), ep),
                members.end());
  endpoints_.erase(it);
}

const OverlayNetwork::EndpointRecord* OverlayNetwork::record_of(
    const Endpoint& ep) const {
  const auto it = endpoints_.find(ep);
  return it == endpoints_.end() ? nullptr : &it->second;
}

std::vector<Endpoint> OverlayNetwork::peers_of(const Endpoint& ep) const {
  std::vector<Endpoint> out;
  const EndpointRecord* rec = record_of(ep);
  if (rec == nullptr) return out;
  for (const Endpoint& other : members_of_vni_.at(rec->vni)) {
    if (other.container != ep.container) out.push_back(other);
  }
  return out;
}

bool OverlayNetwork::same_vni(const Endpoint& a, const Endpoint& b) const {
  const EndpointRecord* ra = record_of(a);
  const EndpointRecord* rb = record_of(b);
  return ra != nullptr && rb != nullptr && ra->vni == rb->vni;
}

OverlayWalk OverlayNetwork::walk(const Endpoint& src, const Endpoint& dst,
                                 std::size_t max_steps) const {
  if (max_steps > kMaxWalkSteps) {
    throw std::invalid_argument("OverlayNetwork::walk: max_steps too large");
  }
  OverlayWalk w;
  const EndpointRecord* rs = record_of(src);
  const EndpointRecord* rd = record_of(dst);
  if (rs == nullptr || rd == nullptr) {
    // Endpoint gone entirely: the container-side chain is missing.
    if (rs != nullptr) w.failure_point = rs->chain.netns;
    return w;
  }
  const EndpointChain& cs = rs->chain;
  const EndpointChain& cd = rd->chain;
  // Chain positions 0-4 are the source leg, 5-9 the destination leg.
  constexpr std::uint8_t kLast = 9;
  constexpr std::uint8_t kOff = 10;  // off the chain
  const VPortId chain[kLast + 1] = {cs.netns, cs.veth, cs.ovs,  cs.vxlan,
                                    cs.vf,    cd.vf,   cd.vxlan, cd.ovs,
                                    cd.veth,  cd.netns};
  // Tenant isolation and NVLink-internal traffic: no chain to follow.
  const bool connected =
      rs->vni == rd->vni && src.container != dst.container;
  const bool any_broken = !broken_rules_.empty();
  // Without loop rules every step advances the position: no revisits.
  const bool may_loop = !corrupted_rules_.empty();
  auto leg = [](std::uint8_t pos) -> std::uint8_t {
    return pos < 5 ? 0 : pos <= kLast ? 1 : 2;
  };
  struct Seen {
    std::uint32_t node;
    std::uint8_t leg;
  };
  Seen seen[kMaxWalkSteps + 1]{};
  std::size_t n_seen = 0;

  VPortId current = chain[0];
  std::uint8_t pos = connected ? 0 : kOff;
  if (may_loop) seen[n_seen++] = {current.value(), leg(pos)};
  for (std::size_t step = 0; step < max_steps; ++step) {
    const RuleKey key{current, dst};
    if (any_broken && broken_rules_.contains(key)) {
      w.failure_point = current;  // broken chain at `current`
      return w;
    }
    const auto rule =
        may_loop ? corrupted_rules_.find(key) : corrupted_rules_.end();
    VPortId next;
    std::uint8_t next_pos = kOff;
    if (rule != corrupted_rules_.end()) {
      next = rule->second;
      if (connected) {
        next_pos = 0;  // first position in chain order, kOff if absent
        while (next_pos <= kLast && chain[next_pos] != next) ++next_pos;
      }
    } else if (pos < kLast) {
      next_pos = static_cast<std::uint8_t>(pos + 1);
      next = chain[next_pos];
    } else {
      w.failure_point = current;  // off the chain: no rule for the flow
      return w;
    }
    if (next == cd.netns) {
      w.reachable = true;
      return w;
    }
    if (may_loop) {
      const Seen here{next.value(), leg(next_pos)};
      for (std::size_t i = 0; i < n_seen; ++i) {
        if (seen[i].node == here.node && seen[i].leg == here.leg) {
          w.loop = true;
          w.failure_point = next;
          return w;
        }
      }
      seen[n_seen++] = here;
    }
    current = next;
    pos = next_pos;
  }
  w.failure_point = current;  // runaway chain
  return w;
}

std::vector<VPortId> OverlayNetwork::overlay_path(Endpoint src,
                                                  Endpoint dst) const {
  const EndpointChain& cs = chain_of(src);
  const EndpointChain& cd = chain_of(dst);
  return {cs.netns, cs.veth, cs.ovs,  cs.vxlan, cs.vf,
          cd.vf,    cd.vxlan, cd.ovs, cd.veth,  cd.netns};
}

const OverlayNode& OverlayNetwork::node(VPortId id) const {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::out_of_range("OverlayNetwork::node: bad id");
  }
  return nodes_[id.value()];
}

bool OverlayNetwork::attached(Endpoint ep) const {
  return endpoints_.contains(ep);
}

const EndpointChain& OverlayNetwork::chain_of(Endpoint ep) const {
  const EndpointRecord* rec = record_of(ep);
  if (rec == nullptr) {
    throw std::out_of_range("OverlayNetwork::chain_of: endpoint not attached");
  }
  return rec->chain;
}

std::size_t OverlayNetwork::flow_table_size(HostId host) const {
  // Per directed connected flow (s -> d): 5 rules on s's host (netns, veth,
  // ovs, vxlan, vf-tunnel) and 4 on d's host (vf, vxlan, ovs, veth).
  std::size_t total = 0;
  for (const auto& [ep, rec] : endpoints_) {
    if (rec.host != host) continue;
    const std::size_t peers = peers_of(ep).size();
    total += peers * 5   // this endpoint sending
             + peers * 4;  // this endpoint receiving
  }
  const auto bit = broken_per_host_.find(host);
  const std::size_t broken =
      bit == broken_per_host_.end() ? 0 : bit->second;
  return total > broken ? total - broken : 0;
}

std::vector<FlowRule> OverlayNetwork::ovs_rules_for(RnicId rnic) const {
  // Regenerate the rules whose from/to involves a VF of `rnic`: per peer
  // flow, the encap rule (vxlan -> vf), the tunnel rule (vf -> peer vf),
  // the peer-side tunnel arrival (peer vf -> vf) and the decap rule
  // (vf -> vxlan).
  std::vector<FlowRule> out;
  for (const auto& [ep, rec] : endpoints_) {
    if (ep.rnic != rnic) continue;
    const EndpointChain& chain = rec.chain;
    for (const Endpoint& peer : peers_of(ep)) {
      const EndpointChain& pc = endpoints_.at(peer).chain;
      const FlowRule candidates[] = {
          {chain.vxlan, peer, chain.vf},  // encap toward peer
          {chain.vf, peer, pc.vf},        // tunnel toward peer
          {pc.vf, ep, chain.vf},          // peer's tunnel toward us
          {chain.vf, ep, chain.vxlan},    // decap for inbound flow
      };
      for (const auto& r : candidates) {
        const RuleKey key{r.from, r.dst};
        if (broken_rules_.contains(key)) continue;
        const auto cit = corrupted_rules_.find(key);
        out.push_back(cit == corrupted_rules_.end()
                          ? r
                          : FlowRule{r.from, r.dst, cit->second});
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<FlowRule> OverlayNetwork::offloaded_rules_for(RnicId rnic) const {
  if (offload_desynced(rnic)) return {};
  return ovs_rules_for(rnic);
}

std::vector<FlowRule> OverlayNetwork::offload_inconsistencies(
    RnicId rnic) const {
  const auto ovs = ovs_rules_for(rnic);
  const auto off = offloaded_rules_for(rnic);
  std::vector<FlowRule> out;
  std::set_symmetric_difference(ovs.begin(), ovs.end(), off.begin(), off.end(),
                                std::back_inserter(out));
  return out;
}

void OverlayNetwork::break_rule(VPortId from, Endpoint dst) {
  const RuleKey key{from, dst};
  if (broken_rules_.insert(key).second) {
    ++broken_per_host_[node(from).host];
  }
  corrupted_rules_.erase(key);
}

void OverlayNetwork::corrupt_rule_to_loop(VPortId from, Endpoint dst,
                                          VPortId loop_to) {
  const RuleKey key{from, dst};
  if (broken_rules_.erase(key) > 0) {
    auto& count = broken_per_host_[node(from).host];
    if (count > 0) --count;
  }
  corrupted_rules_[key] = loop_to;
}

void OverlayNetwork::invalidate_offload(RnicId rnic) {
  if (!rnic.valid()) {
    throw std::invalid_argument("invalidate_offload: invalid RNIC");
  }
  if (rnic.value() >= desynced_.size()) desynced_.resize(rnic.value() + 1, 0);
  desynced_[rnic.value()] = 1;
}

void OverlayNetwork::resync_offload(RnicId rnic) {
  if (rnic.value() < desynced_.size()) desynced_[rnic.value()] = 0;
}

}  // namespace skh::overlay
