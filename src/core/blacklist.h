// Component blacklist (§8, "Handling Detected Failures").
//
// When SkeletonHunter closes a localized failure case it adds the culprit
// components to a blacklist so that no new training task is scheduled onto
// them until they are repaired. The orchestrator consults the blacklist
// through its placement filter.
//
// Flap hysteresis: a port that alternates down/up (kSwitchPortFlapping,
// kRnicPortFlapping) gets blacklisted, repaired, and re-blacklisted in
// quick succession. The first ban is an alert; a re-ban within the
// hysteresis window of its clear is the SAME incident flapping and must
// not page anyone again — the component is still banned, only the alert
// is suppressed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "sim/fault.h"

namespace skh::core {

/// What Blacklist::add did, so the caller can tell a fresh alert from a
/// duplicate or a dampened flap.
enum class BanOutcome : std::uint8_t {
  kNewBan,        ///< fresh alert: newly banned (or re-banned after quiet)
  kAlreadyBanned, ///< no-op: the component is already actively banned
  kFlapReban,     ///< banned again within hysteresis of its clear: active
                  ///< again, but the alert is suppressed
};

class Blacklist {
 public:
  /// Ban a component from `at` until explicitly cleared.
  BanOutcome add(sim::ComponentRef ref, SimTime at);
  /// Repair finished: lift the ban. `at` feeds the flap-hysteresis clock.
  void clear(sim::ComponentRef ref, SimTime at);

  /// One short-window span by default: a ban/clear/ban cycle faster than
  /// the detector can even produce a new window of evidence is a flap.
  void set_flap_hysteresis(SimTime h) noexcept { flap_hysteresis_ = h; }
  [[nodiscard]] std::uint64_t flap_rebans() const noexcept {
    return flap_rebans_;
  }

  /// Active bans only; cleared components (tombstones) do not count.
  [[nodiscard]] bool contains(sim::ComponentRef ref) const;
  [[nodiscard]] std::size_t size() const noexcept { return active_; }
  [[nodiscard]] std::vector<sim::ComponentRef> entries() const;

  /// Is this host schedulable? False when the host itself, its virtual
  /// switch, or any of its RNICs (given `rails_per_host` and the host's
  /// dense RNIC numbering) is blacklisted.
  [[nodiscard]] bool host_schedulable(HostId host,
                                      std::uint32_t rails_per_host) const;

 private:
  struct Entry {
    SimTime banned_at;
    SimTime cleared_at;
    bool active = false;
  };

  std::unordered_map<sim::ComponentRef, Entry> entries_;
  std::size_t active_ = 0;
  SimTime flap_hysteresis_ = SimTime::seconds(30);
  std::uint64_t flap_rebans_ = 0;
};

}  // namespace skh::core
