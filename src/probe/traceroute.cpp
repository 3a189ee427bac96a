#include "probe/traceroute.h"

namespace skh::probe {

std::optional<std::size_t> TracerouteResult::first_dead_hop() const {
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (!hops[i].responded) return i;
  }
  return std::nullopt;
}

namespace {

bool component_blocked(const sim::FaultInjector& faults,
                       sim::ComponentRef ref, SimTime t) {
  for (const sim::Fault* f : faults.active_on(ref, t)) {
    if (!sim::issue_info(f->type).probe_visible) continue;
    if (f->effect.unreachable) return true;
  }
  return false;
}

double component_extra_latency(const sim::FaultInjector& faults,
                               sim::ComponentRef ref, SimTime t) {
  double extra = 0.0;
  for (const sim::Fault* f : faults.active_on(ref, t)) {
    if (!sim::issue_info(f->type).probe_visible) continue;
    extra += f->effect.extra_latency_us;
  }
  return extra;
}

}  // namespace

TracerouteResult traceroute(const topo::Topology& topo,
                            const sim::FaultInjector& faults, RnicId src,
                            RnicId dst, SimTime t) {
  TracerouteResult res;
  res.src = src;
  res.dst = dst;
  const auto path = topo.route(src, dst);
  if (path.intra_host) {
    res.reached_destination = true;
    return res;
  }
  // Source-side NIC faults block everything.
  const bool src_blocked =
      component_blocked(faults, {sim::ComponentKind::kRnic, src.value()}, t) ||
      component_blocked(faults,
                        {sim::ComponentKind::kHost,
                         topo.host_of(src).value()}, t);

  bool alive = !src_blocked;
  double rtt = 2.0;  // host stack
  // Hop k: traverse link k, arrive at switch k (or the destination NIC for
  // the final link).
  for (std::size_t k = 0; k < path.links.size(); ++k) {
    TracerouteHop hop;
    hop.link = path.links[k];
    const bool last = k + 1 == path.links.size();
    if (!last) hop.sw = path.switches[k];

    if (alive) {
      alive = !component_blocked(
          faults, {sim::ComponentKind::kPhysicalLink, hop.link.value()}, t);
      rtt += 2.0 * topo::kLinkLatencyUs;
      rtt += component_extra_latency(
          faults, {sim::ComponentKind::kPhysicalLink, hop.link.value()}, t);
    }
    if (alive && hop.sw) {
      alive = !component_blocked(
          faults, {sim::ComponentKind::kPhysicalSwitch, hop.sw->value()}, t);
      rtt += 2.0 * topo::kSwitchLatencyUs;
    }
    if (alive && last) {
      alive = !component_blocked(
                  faults, {sim::ComponentKind::kRnic, dst.value()}, t) &&
              !component_blocked(faults,
                                 {sim::ComponentKind::kHost,
                                  topo.host_of(dst).value()}, t);
    }
    hop.responded = alive;
    hop.rtt_us = alive ? rtt : 0.0;
    res.hops.push_back(hop);
  }
  res.reached_destination = alive;
  return res;
}

TracerouteResult traceroute(const topo::Topology& topo,
                            const sim::FaultInjector& faults, RnicId src,
                            RnicId dst, SimTime t,
                            double hop_loss_probability, RngStream* rng) {
  TracerouteResult res = traceroute(topo, faults, src, dst, t);
  if (hop_loss_probability <= 0.0 || rng == nullptr) return res;
  for (std::size_t k = 0; k < res.hops.size(); ++k) {
    if (!res.hops[k].responded) continue;
    if (rng->uniform() < hop_loss_probability) {
      res.hops[k].responded = false;
      res.hops[k].rtt_us = 0.0;
      if (k + 1 == res.hops.size()) res.reached_destination = false;
    }
  }
  return res;
}

}  // namespace skh::probe
