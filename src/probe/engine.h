// The probe engine: simulates one RDMA ping through overlay and underlay.
//
// A probe from endpoint S to endpoint D
//   1. walks S's and D's logical overlay chains (flow-table rules; a missing
//      rule or loop drops the probe),
//   2. rides the ECMP-selected underlay path of (S.rnic, D.rnic),
//   3. accumulates per-component degradation from the fault injector —
//      extra latency, loss probability, hard unreachability — for every
//      physical link/switch, the two RNICs, the two hosts (kernel/board/
//      config scope), the two virtual switches, and the two containers,
//   4. adds the RNIC-offload slow-path penalty when the offloaded flow
//      tables have been invalidated (the Figure 18 case), and
//   5. returns an RTT with multiplicative log-normal jitter, or a drop.
//
// Per probe that is one overlay walk (two endpoint lookups), one pass over
// the injected faults, a flow-state lookup only when the routing mode or an
// attached registry needs one, and no heap allocation once every flow has
// been probed: the live faults and the routed path go into engine-owned
// scratch that keeps its capacity.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/context.h"
#include "overlay/overlay.h"
#include "probe/probe_types.h"
#include "sim/fault.h"
#include "topo/topology.h"

namespace skh::probe {

struct EngineConfig {
  // --- routing mode (path diversity) ---------------------------------------
  // How a flow maps probes onto its equal-cost members (see
  // topo::RoutingMode). kStaticEcmp keeps the historical single-path
  // behavior and draws the exact same RNG stream as before the knob
  // existed, so pre-existing seeds replay bit-identically. Spray and
  // adaptive selection are hash-driven and consume no RNG either.
  topo::RoutingMode routing_mode = topo::RoutingMode::kStaticEcmp;
  std::uint32_t spray_ways = 8;  ///< max members a sprayed flow fans over
};

class ProbeEngine {
 public:
  ProbeEngine(const topo::Topology& topo,
              const overlay::OverlayNetwork& overlay,
              const sim::FaultInjector& faults, RngStream rng,
              EngineConfig cfg = {});

  /// Attach the observability context (nullptr detaches). Binds this
  /// engine's metric handles on the calling thread — the thread that will
  /// drive `probe()`.
  void attach_obs(obs::Context* ctx);

  /// Send one probe at simulated time `t`.
  [[nodiscard]] ProbeResult probe(Endpoint src, Endpoint dst, SimTime t);

  /// Healthy-baseline RTT of the pair (no faults, no jitter); used by tests
  /// and the case-study bench.
  [[nodiscard]] double baseline_rtt_us(Endpoint src, Endpoint dst) const;

 private:
  struct PathDegradation {
    bool unreachable = false;
    double extra_latency_us = 0.0;
    double delivery_probability = 1.0;
  };
  /// Per-flow routing state, keyed by packed (src rnic, dst rnic). Not part
  /// of checkpoints (the engine is a sidecar that keeps running through
  /// analyzer blackouts), and it affects no RNG draw.
  struct FlowState {
    std::uint32_t spray_packets = 0;   ///< spray: probes sent so far
    std::uint32_t adaptive_member = 0; ///< adaptive: the pinned member
    std::uint64_t paths_seen = 0;      ///< members probed, bit (id & 63)
  };

  /// Refill live_ with the probe-visible faults degrading at `t`.
  void collect_live_faults(SimTime t);
  [[nodiscard]] PathDegradation degradation(Endpoint src, Endpoint dst,
                                            const topo::Path& path) const;
  void accumulate(sim::ComponentRef ref, PathDegradation& d) const;

  /// Pick the equal-cost member this probe rides, per cfg_.routing_mode.
  /// `flow` is the pair's state, or nullptr when the mode needs none.
  /// Hash/state driven — never draws from rng_.
  [[nodiscard]] std::uint32_t select_path(RnicId src, RnicId dst,
                                          std::uint32_t n, FlowState* flow);
  /// Does a live fault sit on a link or switch of member `path_id`?
  [[nodiscard]] bool member_faulted(RnicId src, RnicId dst,
                                    std::uint32_t path_id);
  void note_path_used(FlowState& flow, std::uint32_t path_id);

  const topo::Topology& topo_;
  const overlay::OverlayNetwork& overlay_;
  const sim::FaultInjector& faults_;
  RngStream rng_;
  EngineConfig cfg_;

  std::unordered_map<std::uint64_t, FlowState> flows_;
  /// Per-probe scratch: the live faults in injection order, and the routed
  /// member (also the adaptive candidates).
  std::vector<const sim::Fault*> live_;
  topo::Path path_;

  obs::Context* obs_ = nullptr;
  obs::Counter m_issued_;
  obs::Counter m_delivered_;
  obs::Counter m_drop_overlay_;
  obs::Counter m_drop_unreachable_;
  obs::Counter m_drop_loss_;
  obs::Counter m_paths_used_;
  obs::Histogram m_rtt_us_;
};

}  // namespace skh::probe
