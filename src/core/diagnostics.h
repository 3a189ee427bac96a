// Secondary diagnostic signals used to confirm a localization.
//
// End-to-end probing narrows a failure to a small candidate set, but some
// candidates are observationally equivalent from the edge (an RNIC port and
// its ToR uplink degrade exactly the same probe set). Production resolves
// these with out-of-band signals: switch warning logs ("most link/switch
// anomalies can be immediately verified by warning logs", §7.2), RNIC
// flow-table dumps, OVS configuration inspection, and host config checks.
// The oracle models those signals against the fault injector's ground truth
// with a per-check confirmation probability (logs are occasionally missing
// or ambiguous) — imperfect confirmations are one source of the ~4%
// localization misses.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/rng.h"
#include "sim/fault.h"

namespace skh::core {

class DiagnosticsOracle {
 public:
  DiagnosticsOracle(const sim::FaultInjector& faults, RngStream rng);

  /// Does the named component show a confirming diagnostic at time `t`?
  /// Deterministic per (component, fault): the same inspection repeated
  /// returns the same answer.
  [[nodiscard]] bool confirms(sim::ComponentRef ref, SimTime t);

 private:
  const sim::FaultInjector& faults_;
  RngStream rng_;
  /// Memoized per-fault coin flips (stable answers across re-inspection).
  std::unordered_map<std::uint32_t, bool> decided_;
};

}  // namespace skh::core
