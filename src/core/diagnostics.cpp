#include "core/diagnostics.h"

namespace skh::core {
namespace {

// Probability that a real fault shows a confirming diagnostic, per kind of
// component inspected.
constexpr double kLinkLogConfidence = 0.97;  ///< CRC / port-down counters
constexpr double kSwitchLogConfidence = 0.95;
constexpr double kRnicCheckConfidence = 0.92;  ///< firmware/port state queries
constexpr double kVSwitchCheckConfidence = 0.93;  ///< OVS config inspection
constexpr double kHostCheckConfidence = 0.90;  ///< kernel logs, hugepage config

double confidence_for(sim::ComponentKind kind) {
  switch (kind) {
    case sim::ComponentKind::kPhysicalLink: return kLinkLogConfidence;
    case sim::ComponentKind::kPhysicalSwitch: return kSwitchLogConfidence;
    case sim::ComponentKind::kRnic: return kRnicCheckConfidence;
    case sim::ComponentKind::kVSwitch: return kVSwitchCheckConfidence;
    case sim::ComponentKind::kHost: return kHostCheckConfidence;
    case sim::ComponentKind::kContainer: return kHostCheckConfidence;
  }
  return 0.0;
}

}  // namespace

DiagnosticsOracle::DiagnosticsOracle(const sim::FaultInjector& faults,
                                     RngStream rng)
    : faults_(faults), rng_(std::move(rng)) {}

bool DiagnosticsOracle::confirms(sim::ComponentRef ref, SimTime t) {
  for (const sim::Fault* f : faults_.active_on(ref, t)) {
    if (!f->ground_truth) continue;  // phantom faults leave no diagnostics
    const auto it = decided_.find(f->id);
    if (it != decided_.end()) {
      if (it->second) return true;
      continue;
    }
    const bool confirmed = rng_.bernoulli(confidence_for(ref.kind));
    decided_.emplace(f->id, confirmed);
    if (confirmed) return true;
  }
  // Flapping faults are inactive half the time but their logs persist: check
  // the enclosing active window too.
  for (const sim::Fault& f : faults_.faults()) {
    if (f.target == ref && f.active_at(t) && f.effect.flap_period &&
        f.ground_truth) {
      const auto it = decided_.find(f.id);
      if (it != decided_.end()) {
        if (it->second) return true;
        continue;
      }
      const bool confirmed = rng_.bernoulli(confidence_for(ref.kind));
      decided_.emplace(f.id, confirmed);
      if (confirmed) return true;
    }
  }
  return false;
}

}  // namespace skh::core
