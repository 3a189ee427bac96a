#include "probe/agent.h"

#include <algorithm>
#include <stdexcept>

namespace skh::probe {

Agent::Agent(ContainerId owner, std::vector<Endpoint> own_endpoints)
    : owner_(owner), own_endpoints_(std::move(own_endpoints)) {}

void Agent::set_ping_list(std::vector<EndpointPair> pairs) {
  // Sequence numbers survive replans: a pair that persists across a new
  // ping list keeps counting, so the analyzer's duplicate/stale rejection
  // never sees a spurious reset for a live target.
  std::unordered_map<EndpointPair, std::uint64_t> carried_seq;
  carried_seq.reserve(targets_.size());
  for (const auto& t : targets_) carried_seq.emplace(t.pair, t.next_seq);
  targets_.clear();
  for (auto& p : pairs) {
    const bool mine = std::any_of(
        own_endpoints_.begin(), own_endpoints_.end(),
        [&](const Endpoint& e) { return e == p.src; });
    if (!mine) {
      throw std::invalid_argument("set_ping_list: pair source is not ours");
    }
    const auto reg = peer_registered_.find(p.dst.container);
    Target t;
    t.pair = p;
    t.active = reg != peer_registered_.end() && reg->second;
    const auto seq = carried_seq.find(p);
    if (seq != carried_seq.end()) t.next_seq = seq->second;
    targets_.push_back(t);
  }
}

void Agent::activate_destination(ContainerId peer) {
  peer_registered_[peer] = true;
  for (auto& t : targets_) {
    if (t.pair.dst.container == peer) t.active = true;
  }
}

void Agent::deactivate_destination(ContainerId peer) {
  peer_registered_[peer] = false;
  for (auto& t : targets_) {
    if (t.pair.dst.container == peer) t.active = false;
  }
}

void Agent::run_round(ProbeEngine& engine, SimTime now,
                      std::vector<ProbeResult>& round) {
  for (auto& t : targets_) {
    if (!t.active) continue;
    round.push_back(engine.probe(t.pair.src, t.pair.dst, now));
    round.back().seq = t.next_seq++;
    ++probes_sent_;
  }
}

std::size_t Agent::active_targets() const {
  return static_cast<std::size_t>(
      std::count_if(targets_.begin(), targets_.end(),
                    [](const Target& t) { return t.active; }));
}

}  // namespace skh::probe
