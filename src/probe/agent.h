// The per-container probing agent (§6: sidecar container sharing the
// training container's network namespace).
//
// An agent receives its basic ping list from the controller at container
// start but keeps every target *inactive* until the destination container
// registers itself as ready — the incremental activation that prevents
// startup-phase false positives (§5.1). Registration and deregistration are
// driven by the orchestrator's running/stopped callbacks, i.e. by the data
// plane, not the controller.
#pragma once

#include <unordered_map>
#include <vector>

#include "probe/engine.h"
#include "probe/probe_types.h"

namespace skh::probe {

class Agent {
 public:
  Agent(ContainerId owner, std::vector<Endpoint> own_endpoints);

  /// Install or replace the ping list (preload, then runtime skeleton
  /// replans). A target starts active only if its destination has already
  /// registered, so replacing the list preserves registered peers'
  /// activation. Pairs whose source is not one of this agent's endpoints are
  /// rejected with std::invalid_argument.
  void set_ping_list(std::vector<EndpointPair> pairs);

  /// Registration: activate all targets destined to `peer`'s endpoints.
  void activate_destination(ContainerId peer);
  /// Deregistration (peer stopping/crashed): deactivate its targets.
  void deactivate_destination(ContainerId peer);

  /// Probe every active target once, appending the results to `round` in
  /// target order after whatever it already holds (the caller owns and
  /// reuses the buffer across agents and ticks). A failing target is
  /// probed every round like any other: the anomaly detector's loss-streak
  /// and unreachability rules need every round sampled.
  void run_round(ProbeEngine& engine, SimTime now,
                 std::vector<ProbeResult>& round);

  [[nodiscard]] ContainerId owner() const noexcept { return owner_; }
  [[nodiscard]] std::size_t total_targets() const noexcept {
    return targets_.size();
  }
  [[nodiscard]] std::size_t active_targets() const;
  [[nodiscard]] std::size_t probes_sent() const noexcept {
    return probes_sent_;
  }

 private:
  struct Target {
    EndpointPair pair;
    bool active = false;
    std::uint64_t next_seq = 1;  ///< next ProbeResult.seq for this pair
  };

  ContainerId owner_;
  std::vector<Endpoint> own_endpoints_;
  std::vector<Target> targets_;
  std::unordered_map<ContainerId, bool> peer_registered_;
  std::size_t probes_sent_ = 0;
};

}  // namespace skh::probe
