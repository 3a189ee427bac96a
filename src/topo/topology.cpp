#include "topo/topology.h"

#include <stdexcept>
#include <utility>

#include "common/rng.h"

namespace skh::topo {
namespace {

constexpr double kIntraHostLatencyUs = 1.0;  ///< NVLink/PCIe hop

}  // namespace

const char* to_string(RoutingMode m) noexcept {
  switch (m) {
    case RoutingMode::kStaticEcmp: return "static-ecmp";
    case RoutingMode::kAdaptive: return "adaptive";
    case RoutingMode::kSpray: return "spray";
  }
  return "?";
}

std::uint64_t ecmp_hash(std::uint32_t a, std::uint32_t b,
                        std::uint32_t salt) noexcept {
  std::uint64_t z = (static_cast<std::uint64_t>(a) << 32) | b;
  z ^= static_cast<std::uint64_t>(salt) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Topology Topology::build(const TopologyConfig& cfg) {
  if (cfg.num_hosts == 0 || cfg.rails_per_host == 0 ||
      cfg.hosts_per_segment == 0 || cfg.spines_per_rail == 0 ||
      cfg.num_cores == 0) {
    throw std::invalid_argument("Topology::build: all counts must be > 0");
  }
  Topology t;
  t.cfg_ = cfg;
  const std::uint32_t segments =
      (cfg.num_hosts + cfg.hosts_per_segment - 1) / cfg.hosts_per_segment;

  // ToR switches: one per (segment, rail).
  t.tor_index_.assign(segments, std::vector<SwitchId>(cfg.rails_per_host));
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    for (std::uint32_t rail = 0; rail < cfg.rails_per_host; ++rail) {
      const SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
      t.switches_.push_back(Switch{id, SwitchKind::kTor, rail, seg});
      t.tor_index_[seg][rail] = id;
    }
  }
  // Spine switches: spines_per_rail per rail plane.
  for (std::uint32_t rail = 0; rail < cfg.rails_per_host; ++rail) {
    for (std::uint32_t s = 0; s < cfg.spines_per_rail; ++s) {
      const SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
      t.switches_.push_back(Switch{id, SwitchKind::kSpine, rail, 0});
      t.spines_.push_back(id);
    }
  }
  // Core switches.
  for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
    const SwitchId id{static_cast<std::uint32_t>(t.switches_.size())};
    t.switches_.push_back(Switch{id, SwitchKind::kCore, 0, 0});
    t.cores_.push_back(id);
  }

  // Host-to-ToR links: one per RNIC.
  t.uplink_index_.resize(static_cast<std::size_t>(cfg.num_hosts) *
                         cfg.rails_per_host);
  for (std::uint32_t h = 0; h < cfg.num_hosts; ++h) {
    const std::uint32_t seg = h / cfg.hosts_per_segment;
    for (std::uint32_t rail = 0; rail < cfg.rails_per_host; ++rail) {
      const RnicId rnic{h * cfg.rails_per_host + rail};
      const LinkId id{static_cast<std::uint32_t>(t.links_.size())};
      t.links_.push_back(Link{id, LinkTier::kHostToTor, rnic,
                              t.tor_index_[seg][rail], SwitchId{}});
      t.uplink_index_[rnic.value()] = id;
    }
  }
  // ToR-to-spine links: every ToR connects to all spines of its rail.
  t.tor_spine_links_.assign(static_cast<std::size_t>(segments) *
                                cfg.rails_per_host,
                            std::vector<LinkId>(cfg.spines_per_rail));
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    for (std::uint32_t rail = 0; rail < cfg.rails_per_host; ++rail) {
      const std::size_t tor_dense = static_cast<std::size_t>(seg) *
                                        cfg.rails_per_host + rail;
      for (std::uint32_t s = 0; s < cfg.spines_per_rail; ++s) {
        const SwitchId spine = t.spines_[rail * cfg.spines_per_rail + s];
        const LinkId id{static_cast<std::uint32_t>(t.links_.size())};
        t.links_.push_back(Link{id, LinkTier::kTorToSpine, RnicId{},
                                t.tor_index_[seg][rail], spine});
        t.tor_spine_links_[tor_dense][s] = id;
      }
    }
  }
  // Spine-to-core links: every spine connects to all cores.
  t.spine_core_links_.assign(t.spines_.size(),
                             std::vector<LinkId>(cfg.num_cores));
  for (std::size_t sp = 0; sp < t.spines_.size(); ++sp) {
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
      const LinkId id{static_cast<std::uint32_t>(t.links_.size())};
      t.links_.push_back(Link{id, LinkTier::kSpineToCore, RnicId{},
                              t.spines_[sp], t.cores_[c]});
      t.spine_core_links_[sp][c] = id;
    }
  }
  // Per-tier dense indices: O(1) adjacency resolution in switch_link.
  t.dense_.assign(t.switches_.size(), 0);
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    for (std::uint32_t rail = 0; rail < cfg.rails_per_host; ++rail) {
      t.dense_[t.tor_index_[seg][rail].value()] =
          seg * cfg.rails_per_host + rail;
    }
  }
  for (std::size_t sp = 0; sp < t.spines_.size(); ++sp) {
    t.dense_[t.spines_[sp].value()] = static_cast<std::uint32_t>(sp);
  }
  for (std::size_t c = 0; c < t.cores_.size(); ++c) {
    t.dense_[t.cores_[c].value()] = static_cast<std::uint32_t>(c);
  }
  return t;
}

std::uint32_t Topology::num_segments() const noexcept {
  return static_cast<std::uint32_t>(tor_index_.size());
}

const Switch& Topology::switch_at(SwitchId id) const {
  if (!id.valid() || id.value() >= switches_.size()) {
    throw std::out_of_range("Topology::switch_at: bad id");
  }
  return switches_[id.value()];
}

const Link& Topology::link_at(LinkId id) const {
  if (!id.valid() || id.value() >= links_.size()) {
    throw std::out_of_range("Topology::link_at: bad id");
  }
  return links_[id.value()];
}

RnicId Topology::rnic_of(HostId host, std::uint32_t rail) const {
  if (!host.valid() || host.value() >= cfg_.num_hosts ||
      rail >= cfg_.rails_per_host) {
    throw std::out_of_range("Topology::rnic_of: bad host/rail");
  }
  return RnicId{host.value() * cfg_.rails_per_host + rail};
}

HostId Topology::host_of(RnicId rnic) const {
  if (!rnic.valid() || rnic.value() >= num_rnics()) {
    throw std::out_of_range("Topology::host_of: bad rnic");
  }
  return HostId{rnic.value() / cfg_.rails_per_host};
}

std::uint32_t Topology::rail_of(RnicId rnic) const {
  if (!rnic.valid() || rnic.value() >= num_rnics()) {
    throw std::out_of_range("Topology::rail_of: bad rnic");
  }
  return rnic.value() % cfg_.rails_per_host;
}

std::uint32_t Topology::segment_of(HostId host) const {
  if (!host.valid() || host.value() >= cfg_.num_hosts) {
    throw std::out_of_range("Topology::segment_of: bad host");
  }
  return host.value() / cfg_.hosts_per_segment;
}

SwitchId Topology::tor_at(std::uint32_t segment, std::uint32_t rail) const {
  if (segment >= tor_index_.size() || rail >= cfg_.rails_per_host) {
    throw std::out_of_range("Topology::tor_at: bad segment/rail");
  }
  return tor_index_[segment][rail];
}

LinkId Topology::uplink_of(RnicId rnic) const {
  if (!rnic.valid() || rnic.value() >= uplink_index_.size()) {
    throw std::out_of_range("Topology::uplink_of: bad rnic");
  }
  return uplink_index_[rnic.value()];
}

void Topology::make_path(RnicId src, RnicId dst,
                         std::span<const SwitchId> via, Path& out) const {
  out.switches.assign(via.begin(), via.end());
  out.links.push_back(uplink_of(src));
  for (std::size_t i = 0; i + 1 < via.size(); ++i) {
    out.links.push_back(switch_link(via[i], via[i + 1]));
  }
  out.links.push_back(uplink_of(dst));
  out.one_way_latency_us =
      static_cast<double>(out.links.size()) * kLinkLatencyUs +
      static_cast<double>(out.switches.size()) * kSwitchLatencyUs;
}

LinkId Topology::switch_link(SwitchId a, SwitchId b) const {
  // Normalize to (lower tier first).
  const Switch* lower = &switch_at(a);
  const Switch* upper = &switch_at(b);
  if (lower->kind > upper->kind) std::swap(lower, upper);
  const std::uint32_t lo = dense_[lower->id.value()];
  const std::uint32_t up = dense_[upper->id.value()];
  if (lower->kind == SwitchKind::kTor && upper->kind == SwitchKind::kSpine &&
      lower->rail == upper->rail) {
    return tor_spine_links_[lo][up % cfg_.spines_per_rail];
  }
  if (lower->kind == SwitchKind::kSpine && upper->kind == SwitchKind::kCore) {
    return spine_core_links_[lo][up];
  }
  throw std::logic_error("Topology::switch_link: no such adjacency");
}

std::uint32_t Topology::num_paths(RnicId src, RnicId dst) const {
  const HostId hs = host_of(src);
  const HostId hd = host_of(dst);
  if (hs == hd) return 1;
  const std::uint32_t rs = rail_of(src);
  const std::uint32_t rd = rail_of(dst);
  if (rs == rd) {
    return segment_of(hs) == segment_of(hd) ? 1 : cfg_.spines_per_rail;
  }
  return cfg_.spines_per_rail * cfg_.spines_per_rail * cfg_.num_cores;
}

std::uint32_t Topology::static_path_id(RnicId src, RnicId dst) const {
  const HostId hs = host_of(src);
  const HostId hd = host_of(dst);
  if (hs == hd) return 0;
  const std::uint32_t rs = rail_of(src);
  const std::uint32_t rd = rail_of(dst);
  if (rs == rd) {
    if (segment_of(hs) == segment_of(hd)) return 0;
    return static_cast<std::uint32_t>(
        ecmp_hash(src.value(), dst.value(), 1) % cfg_.spines_per_rail);
  }
  const std::uint32_t s1 = static_cast<std::uint32_t>(
      ecmp_hash(src.value(), dst.value(), 2) % cfg_.spines_per_rail);
  const std::uint32_t s2 = static_cast<std::uint32_t>(
      ecmp_hash(src.value(), dst.value(), 3) % cfg_.spines_per_rail);
  const std::uint32_t c = static_cast<std::uint32_t>(
      ecmp_hash(src.value(), dst.value(), 4) % cfg_.num_cores);
  return (s1 * cfg_.num_cores + c) * cfg_.spines_per_rail + s2;
}

void Topology::route_via(RnicId src, RnicId dst, std::uint32_t path_id,
                         Path& out) const {
  const HostId hs = host_of(src);
  const HostId hd = host_of(dst);
  if (path_id >= num_paths(src, dst)) {
    throw std::out_of_range("Topology::route_via: bad path id");
  }
  out.links.clear();
  out.switches.clear();
  out.intra_host = hs == hd;
  if (hs == hd) {
    out.one_way_latency_us = kIntraHostLatencyUs;
    return;
  }
  const std::uint32_t rs = rail_of(src);
  const std::uint32_t rd = rail_of(dst);
  const std::uint32_t ss = segment_of(hs);
  const std::uint32_t sd = segment_of(hd);

  if (rs == rd && ss == sd) {
    // Same ToR: two hops.
    const SwitchId via[] = {tor_at(ss, rs)};
    make_path(src, dst, via, out);
    return;
  }
  if (rs == rd) {
    // In-rail across segments: ToR -> spine member `path_id` -> ToR.
    const SwitchId via[] = {tor_at(ss, rs),
                            spines_[rs * cfg_.spines_per_rail + path_id],
                            tor_at(sd, rd)};
    make_path(src, dst, via, out);
    return;
  }
  // Cross-rail: decompose (s1 * num_cores + c) * spines_per_rail + s2.
  const std::uint32_t s2 = path_id % cfg_.spines_per_rail;
  const std::uint32_t c = (path_id / cfg_.spines_per_rail) % cfg_.num_cores;
  const std::uint32_t s1 = path_id / (cfg_.spines_per_rail * cfg_.num_cores);
  const SwitchId via[] = {tor_at(ss, rs),
                          spines_[rs * cfg_.spines_per_rail + s1], cores_[c],
                          spines_[rd * cfg_.spines_per_rail + s2],
                          tor_at(sd, rd)};
  make_path(src, dst, via, out);
}

Path Topology::route_via(RnicId src, RnicId dst,
                         std::uint32_t path_id) const {
  Path p;
  route_via(src, dst, path_id, p);
  return p;
}

Path Topology::route(RnicId src, RnicId dst) const {
  return route_via(src, dst, static_path_id(src, dst));
}

std::vector<Path> Topology::equal_cost_paths(RnicId src, RnicId dst) const {
  // Enumerated strictly in path-id order, so index i here IS path id i —
  // the stability contract the detector and localizer rely on.
  const std::uint32_t n = num_paths(src, dst);
  std::vector<Path> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(route_via(src, dst, i));
  }
  return out;
}

}  // namespace skh::topo
