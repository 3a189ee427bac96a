// Rail-optimized data-center topology (Figure 10) and ECMP routing.
//
// Hosts carry `rails_per_host` RNICs; RNIC r of every host in a segment
// connects to that segment's rail-r ToR switch. ToRs of the same rail across
// segments are joined by a per-rail spine plane; spine planes are joined by a
// core layer so that (rare, suboptimal) cross-rail paths exist too — the
// full-mesh probing baseline exercises them even though collective libraries
// keep training traffic in-rail.
//
// Routing is deterministic ECMP: among equal-cost candidates, the spine/core
// is picked by a hash of the (src, dst) RNIC pair, mirroring five-tuple ECMP.
// The underlay localizer both replays the selected path (traceroute) and
// enumerates all equal-cost candidates (tomography coverage).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"

namespace skh::topo {

/// One-way propagation + serialization delay of a fabric link.
inline constexpr double kLinkLatencyUs = 1.2;
/// Per-switch forwarding delay.
inline constexpr double kSwitchLatencyUs = 0.4;

struct TopologyConfig {
  std::uint32_t num_hosts = 64;
  std::uint32_t rails_per_host = 8;   ///< RNICs (and GPUs) per host
  std::uint32_t hosts_per_segment = 16;
  std::uint32_t spines_per_rail = 2;  ///< ECMP width within a rail plane
  std::uint32_t num_cores = 4;        ///< ECMP width across rail planes
};

/// How a flow maps probes onto its equal-cost path set.
///
///  - kStaticEcmp: the classic five-tuple hash — every probe of a pair rides
///    the single `route()` member forever (production default, and the mode
///    all pre-existing seeds replay under).
///  - kAdaptive: per-flow re-hash on fault signals — a flow sticks to its
///    current member until that member crosses a degraded link/switch, then
///    deterministically walks to the next clean member.
///  - kSpray: per-packet spray — successive probes of a flow fan over up to
///    `spray_ways` members of `equal_cost_paths()`, chosen by a deterministic
///    per-packet hash (no RNG draws, so the delivery/jitter streams are
///    unchanged versus static routing).
enum class RoutingMode : std::uint8_t { kStaticEcmp, kAdaptive, kSpray };

[[nodiscard]] const char* to_string(RoutingMode m) noexcept;

/// Deterministic pair hash used for ECMP member selection (splitmix-style
/// avalanche; asymmetric in (a, b), mirroring five-tuple ECMP). Exposed so
/// the probe engine's spray/adaptive selectors and the routing property
/// tests share the exact production hash.
[[nodiscard]] std::uint64_t ecmp_hash(std::uint32_t a, std::uint32_t b,
                                      std::uint32_t salt) noexcept;

enum class SwitchKind : std::uint8_t { kTor, kSpine, kCore };

struct Switch {
  SwitchId id;
  SwitchKind kind = SwitchKind::kTor;
  std::uint32_t rail = 0;     ///< rail plane (ToR, Spine); unused for core
  std::uint32_t segment = 0;  ///< segment (ToR only)
};

enum class LinkTier : std::uint8_t { kHostToTor, kTorToSpine, kSpineToCore };

/// An undirected physical link. For kHostToTor, `rnic` is set; otherwise the
/// two switch endpoints are `lower` (closer to hosts) and `upper`.
struct Link {
  LinkId id;
  LinkTier tier = LinkTier::kHostToTor;
  RnicId rnic;      ///< valid iff tier == kHostToTor
  SwitchId lower;   ///< ToR for host links; ToR/Spine otherwise
  SwitchId upper;   ///< unused for kHostToTor
};

/// A routed path between two RNICs.
struct Path {
  bool intra_host = false;
  std::vector<LinkId> links;        ///< in traversal order
  std::vector<SwitchId> switches;   ///< in traversal order
  double one_way_latency_us = 0.0;  ///< healthy baseline latency
};

class Topology {
 public:
  [[nodiscard]] static Topology build(const TopologyConfig& cfg);

  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }

  // --- entity enumeration -------------------------------------------------
  [[nodiscard]] std::uint32_t num_hosts() const noexcept {
    return cfg_.num_hosts;
  }
  [[nodiscard]] std::uint32_t num_rnics() const noexcept {
    return cfg_.num_hosts * cfg_.rails_per_host;
  }
  [[nodiscard]] std::uint32_t num_segments() const noexcept;
  [[nodiscard]] std::span<const Switch> switches() const noexcept {
    return switches_;
  }
  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }
  [[nodiscard]] const Switch& switch_at(SwitchId id) const;
  [[nodiscard]] const Link& link_at(LinkId id) const;

  // --- RNIC addressing ----------------------------------------------------
  [[nodiscard]] RnicId rnic_of(HostId host, std::uint32_t rail) const;
  [[nodiscard]] HostId host_of(RnicId rnic) const;
  [[nodiscard]] std::uint32_t rail_of(RnicId rnic) const;
  [[nodiscard]] std::uint32_t segment_of(HostId host) const;

  /// The ToR switch serving (segment, rail).
  [[nodiscard]] SwitchId tor_at(std::uint32_t segment,
                                std::uint32_t rail) const;
  /// The uplink (host-to-ToR) link of an RNIC.
  [[nodiscard]] LinkId uplink_of(RnicId rnic) const;

  /// The physical link joining two directly adjacent switches (ToR-spine or
  /// spine-core). Throws std::logic_error when no such adjacency exists.
  [[nodiscard]] LinkId switch_link(SwitchId a, SwitchId b) const;

  // --- routing ------------------------------------------------------------
  // Path-id stability contract: for a given (src, dst) ordered pair,
  // `equal_cost_paths(src, dst)[i] == route_via(src, dst, i)` for every
  // i < num_paths(src, dst), and the index layout is fixed by construction:
  // in-rail paths are indexed by spine member s, cross-rail paths by
  // (s1 * num_cores + c) * spines_per_rail + s2. Path ids are therefore
  // stable across runs, shards, and threads — the detector's per-path
  // sub-series and the localizer's path-scoped votes key on them directly.

  /// Deterministic ECMP-selected path from src to dst (the "traceroute").
  /// Identical to `route_via(src, dst, static_path_id(src, dst))`.
  [[nodiscard]] Path route(RnicId src, RnicId dst) const;

  /// Number of equal-cost members between the pair: 1 (intra-host and
  /// same-ToR), spines_per_rail (in-rail), spines_per_rail^2 * num_cores
  /// (cross-rail).
  [[nodiscard]] std::uint32_t num_paths(RnicId src, RnicId dst) const;

  /// The equal-cost member the static five-tuple hash selects — the index of
  /// `route(src, dst)` within `equal_cost_paths(src, dst)`.
  [[nodiscard]] std::uint32_t static_path_id(RnicId src, RnicId dst) const;

  /// Materialize the path at `path_id` in equal_cost_paths order without
  /// enumerating the whole set. Throws std::out_of_range on a bad index.
  [[nodiscard]] Path route_via(RnicId src, RnicId dst,
                               std::uint32_t path_id) const;
  /// The same path written into `out`, whose vectors keep their capacity:
  /// a caller that reuses one `Path` routes without allocating.
  void route_via(RnicId src, RnicId dst, std::uint32_t path_id,
                 Path& out) const;

  /// All equal-cost paths between the pair (bounded fan-out; used by the
  /// tomography analysis to reason about ECMP coverage).
  [[nodiscard]] std::vector<Path> equal_cost_paths(RnicId src,
                                                   RnicId dst) const;

 private:
  Topology() = default;

  void make_path(RnicId src, RnicId dst, std::span<const SwitchId> via,
                 Path& out) const;

  TopologyConfig cfg_;
  std::vector<Switch> switches_;
  std::vector<Link> links_;
  // Lookup tables (built once): tor_index_[segment][rail], uplink of rnic,
  // tor-spine link index, spine-core link index.
  std::vector<std::vector<SwitchId>> tor_index_;
  std::vector<LinkId> uplink_index_;
  std::vector<std::vector<LinkId>> tor_spine_links_;  // [tor dense idx][spine]
  std::vector<std::vector<LinkId>> spine_core_links_; // [spine dense idx][core]
  std::vector<SwitchId> spines_;  // [rail * spines_per_rail + s]
  std::vector<SwitchId> cores_;
  // SwitchId -> index within its tier's table (ToR: tor_spine_links_ row,
  // spine: spines_/spine_core_links_ row, core: cores_), so switch_link
  // resolves an adjacency with two array reads.
  std::vector<std::uint32_t> dense_;  // [SwitchId.value()]
};

}  // namespace skh::topo
