#include "workload/traffic.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace skh::workload {
namespace {

constexpr double kSampleHz = 1.0;
constexpr double kIterationS = 30.0;  ///< one training iteration
constexpr double kDpBurstS = 6.0;     ///< gradient-sync burst width
constexpr double kPeakGbps = 15.0;    ///< DP burst amplitude (1 s averaging)
constexpr double kPpAmplitudeGbps = 4.0;

}  // namespace

TrafficMatrix::TrafficMatrix(std::vector<CommEdge> edges)
    : edges_(merge_edges(std::move(edges))) {}

bool TrafficMatrix::communicates(const Endpoint& a, const Endpoint& b) const {
  Endpoint lo = a, hi = b;
  if (hi < lo) std::swap(lo, hi);
  return std::any_of(edges_.begin(), edges_.end(), [&](const CommEdge& e) {
    return e.a == lo && e.b == hi;
  });
}

double TrafficMatrix::density(std::size_t num_endpoints) const {
  if (num_endpoints < 2) return 0.0;
  const double all_pairs = static_cast<double>(num_endpoints) *
                           static_cast<double>(num_endpoints - 1) / 2.0;
  return static_cast<double>(edges_.size()) / all_pairs;
}

std::vector<Endpoint> TrafficMatrix::peers_of(const Endpoint& e) const {
  std::vector<Endpoint> out;
  for (const auto& edge : edges_) {
    if (edge.a == e) out.push_back(edge.b);
    if (edge.b == e) out.push_back(edge.a);
  }
  return out;
}

TrafficMatrix build_traffic_matrix(const TaskLayout& layout,
                                   const TrafficVolumes& volumes) {
  std::vector<CommEdge> edges;
  const auto& par = layout.par;

  // DP: ring all-reduce across each (stage, rail) position group. Members
  // are ordered by dp_rank so the ring is the canonical 0-1-...-(dp-1)-0.
  for (std::uint32_t stage = 0; stage < par.pp; ++stage) {
    for (std::uint32_t rail = 0; rail < par.tp; ++rail) {
      std::vector<Endpoint> members(par.dp, Endpoint{});
      for (const auto& r : layout.roles) {
        if (r.stage == stage && r.rail == rail) {
          members[r.dp_rank] = r.endpoint;
        }
      }
      auto ring = ring_allreduce(members, volumes.dp_allreduce);
      edges.insert(edges.end(), ring.begin(), ring.end());
      if (volumes.dp_tree) {
        auto tree = double_binary_tree(members, volumes.dp_tree_volume);
        edges.insert(edges.end(), tree.begin(), tree.end());
      }
    }
  }

  // PP: stage chain for every (dp_rank, rail).
  for (std::uint32_t d = 0; d < par.dp; ++d) {
    for (std::uint32_t rail = 0; rail < par.tp; ++rail) {
      std::vector<Endpoint> stages(par.pp, Endpoint{});
      for (const auto& r : layout.roles) {
        if (r.dp_rank == d && r.rail == rail) stages[r.stage] = r.endpoint;
      }
      auto chain = pipeline_p2p(stages, volumes.pp_p2p);
      edges.insert(edges.end(), chain.begin(), chain.end());
    }
  }

  // EP (MoE): all-to-all inside each expert group. Expert groups partition
  // the DP dimension into blocks of `ep` consecutive replicas, per
  // (stage, rail) position.
  if (par.moe && par.ep > 1) {
    for (std::uint32_t stage = 0; stage < par.pp; ++stage) {
      for (std::uint32_t rail = 0; rail < par.tp; ++rail) {
        for (std::uint32_t g = 0; g < par.dp / par.ep; ++g) {
          std::vector<Endpoint> group;
          for (const auto& r : layout.roles) {
            if (r.stage == stage && r.rail == rail &&
                r.dp_rank / par.ep == g) {
              group.push_back(r.endpoint);
            }
          }
          auto a2a = all_to_all(group, volumes.ep_all_to_all);
          edges.insert(edges.end(), a2a.begin(), a2a.end());
        }
      }
    }
  }
  return TrafficMatrix(std::move(edges));
}

std::vector<double> burst_series(const EndpointRole& role,
                                 const ParallelismConfig& par,
                                 const BurstConfig& cfg, RngStream& rng) {
  const auto n = static_cast<std::size_t>(cfg.duration_s * kSampleHz);
  std::vector<double> out(n, 0.0);
  const double dt = 1.0 / kSampleHz;
  // Pipeline stage s starts its activity later than stage s-1: the forward
  // pass reaches it after the earlier stages compute (§5.1 time shift).
  const double stage_shift =
      par.pp > 1 ? 0.5 * kIterationS * static_cast<double>(role.stage) /
                       static_cast<double>(par.pp)
                 : 0.0;
  // Stage-dependent micro-burst cadence: deeper stages exchange at a
  // different micro-batch rhythm, so positions differ in harmonic content
  // (Figure 13's two feature classes).
  const double pp_period =
      kIterationS / (6.0 + 2.0 * static_cast<double>(role.stage));
  // Rail-dependent chunk-scheduling signature frequency.
  const double rail_period =
      kIterationS / (3.0 + 1.5 * static_cast<double>(role.rail));

  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * dt;
    double v = std::max(0.0, rng.normal(0.05, cfg.noise_gbps));
    if (!cfg.idle) {
      const double phase =
          std::fmod(t - stage_shift + 10.0 * kIterationS, kIterationS);
      const bool in_dp_burst = phase >= kIterationS - kDpBurstS;
      if (in_dp_burst) {
        // Gradient synchronization: the dominant burst.
        v += kPeakGbps * (0.85 + 0.15 * rng.uniform());
      } else {
        // Pipeline micro-bursts (half-duty square wave at the stage cadence).
        const double pp_phase = std::fmod(t - stage_shift + 1e3, pp_period);
        if (pp_phase < pp_period * 0.5) {
          v += kPpAmplitudeGbps * (0.9 + 0.1 * rng.uniform());
        }
        // Rail chunk-scheduling signature (small, position-identifying).
        const double rail_phase = std::fmod(t + 1e3, rail_period);
        if (rail_phase < rail_period * 0.4) v += cfg.rail_signature_gbps;
        // MoE expert all-to-all: extra fast cadence during compute phase.
        if (par.moe && par.ep > 1) {
          const double ep_period = kIterationS / 12.0;
          const double ep_phase = std::fmod(t - stage_shift + 1e3, ep_period);
          if (ep_phase < ep_period * 0.5) v += 2.0;
        }
      }
    }
    out[i] = v;
  }
  return out;
}

std::vector<std::vector<double>> burst_series_for_layout(
    const TaskLayout& layout, const BurstConfig& cfg, RngStream& rng) {
  std::vector<std::vector<double>> out;
  out.reserve(layout.roles.size());
  for (std::size_t i = 0; i < layout.roles.size(); ++i) {
    RngStream sub = rng.fork(static_cast<std::uint64_t>(i));
    out.push_back(burst_series(layout.roles[i], layout.par, cfg, sub));
  }
  return out;
}

}  // namespace skh::workload
