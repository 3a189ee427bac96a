// Traffic matrix construction and RNIC burst time-series synthesis.
//
// The traffic matrix is the union of the collective patterns a layout
// implies (DP ring all-reduce, PP point-to-point, MoE all-to-all) — the
// sparse structure of Figure 9. The burst synthesizer produces each RNIC's
// 1 Hz throughput series (Figure 7): per-iteration pipeline micro-bursts
// whose cadence depends on the pipeline stage, a large end-of-iteration
// gradient-sync burst, a small rail-dependent chunk-scheduling signature
// (ring all-reduce shards chunks differently per rail, giving each rail a
// distinct harmonic fingerprint), and measurement noise. RNICs in the same
// (stage, rail) position across DP replicas therefore share burst cycles up
// to noise — the property traffic-skeleton inference relies on (§5.1).
#pragma once

#include <vector>

#include "common/rng.h"
#include "workload/collectives.h"
#include "workload/parallelism.h"

namespace skh::workload {

/// Sparse undirected traffic matrix of a training task.
class TrafficMatrix {
 public:
  explicit TrafficMatrix(std::vector<CommEdge> edges);

  [[nodiscard]] const std::vector<CommEdge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] bool communicates(const Endpoint& a, const Endpoint& b) const;
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }
  /// Fraction of all unordered endpoint pairs that carry traffic.
  [[nodiscard]] double density(std::size_t num_endpoints) const;
  /// Endpoints this endpoint communicates with.
  [[nodiscard]] std::vector<Endpoint> peers_of(const Endpoint& e) const;

 private:
  std::vector<CommEdge> edges_;
};

/// Relative volumes of the collective patterns (bytes per iteration, in
/// arbitrary units; DP gradient sync dominates).
struct TrafficVolumes {
  double dp_allreduce = 8.0;
  double pp_p2p = 3.0;
  double ep_all_to_all = 4.0;
  /// Also include NCCL's double-binary-tree all-reduce edges across DP
  /// (true reproduces Figure 9a's ~9 connected destinations per GPU).
  bool dp_tree = true;
  double dp_tree_volume = 2.0;
};

/// Build the task's traffic matrix from its layout:
///  - ring all-reduce across each (stage, rail) position group (DP),
///  - p2p chains across stages for each (dp_rank, rail) (PP),
///  - all-to-all within expert groups for MoE layouts (EP).
[[nodiscard]] TrafficMatrix build_traffic_matrix(
    const TaskLayout& layout, const TrafficVolumes& volumes = {});

/// Burst-series synthesis parameters (Figure 7's axes: 900 s at 1 Hz with
/// ~15 Gbps peaks and a ~30 s iteration period; the sampling rate, the
/// iteration's shape and the DP/PP amplitudes are fixed in traffic.cpp).
struct BurstConfig {
  double duration_s = 900.0;
  double rail_signature_gbps = 1.2;
  double noise_gbps = 0.25;
  bool idle = false;  ///< true = container not training (debug shell)
};

/// Synthesize the throughput series (Gbps per sample) of one endpoint.
[[nodiscard]] std::vector<double> burst_series(const EndpointRole& role,
                                               const ParallelismConfig& par,
                                               const BurstConfig& cfg,
                                               RngStream& rng);

/// Synthesize series for every endpoint of the layout (index-aligned with
/// layout.roles). Noise streams are forked per endpoint for determinism.
[[nodiscard]] std::vector<std::vector<double>> burst_series_for_layout(
    const TaskLayout& layout, const BurstConfig& cfg, RngStream& rng);

}  // namespace skh::workload
