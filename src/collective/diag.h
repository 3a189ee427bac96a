// Collective-level slow/hang diagnosis: the second signal plane.
//
// Consumes the per-step traces of workload/collective_trace.h and emits
// verdicts in CCL-D's two classes:
//   hang — a rank whose step's dependencies were satisfied but whose step
//          never completed within the timeout. The blocked ranks behind it
//          form its wait-for chain (Mycroft's dependency tracing): the
//          verdict names the stalled root and implicates the chain, not
//          the other way round.
//   slow — a rank whose step durations keep exceeding the sibling median
//          by the straggler ratio. Sibling-relative timing is the point:
//          an absolute threshold would alias model-size effects; the
//          siblings run the same step of the same collective, so the
//          median is the perfect control group.
// State is bounded per registered group (a few vectors sized by rank
// count, a pending set bounded by one iteration's incomplete steps),
// mirroring the detector's flat-table discipline: no per-ingest
// allocation in steady state, value-semantic so the hunter's blackout
// checkpoint copies it wholesale.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "workload/collective_trace.h"

namespace skh::collective {

enum class VerdictKind : std::uint8_t {
  kHang,  ///< dependency-aware timeout: root stalled, chain blocked
  kSlow,  ///< sibling-relative straggler (strike-confirmed)
};

[[nodiscard]] std::string_view to_string(VerdictKind k) noexcept;

/// One diagnosis: which rank of which group stalled or straggled, and who
/// waits behind it.
struct CollectiveVerdict {
  std::uint32_t group = 0;
  VerdictKind kind = VerdictKind::kHang;
  std::uint32_t iteration = 0;
  std::uint32_t step = 0;
  std::uint32_t root_rank = 0;
  Endpoint root;                     ///< the implicated rank's endpoint
  std::uint32_t root_container = 0;  ///< its container index in the task
  /// The wait-for chain: blocked ranks' endpoints in (step, rank) order,
  /// bounded by CollectiveDiagConfig::max_waiters. Empty for kSlow.
  std::vector<Endpoint> waiters;
  SimTime detected_at;
  /// Seconds stalled for kHang; duration/median ratio for kSlow.
  double severity = 0.0;
};

/// A started-but-incomplete step older than this is a hang. Must be
/// shorter than the emitter's iteration period or hangs are only seen one
/// iteration late.
inline constexpr SimTime kHangTimeout = SimTime::seconds(25);

struct CollectiveDiagConfig {
  /// Wait-for chain length cap in a verdict (bounded evidence).
  std::size_t max_waiters = 16;
};

/// Per-group diagnosis state machine. Copyable by design: the hunter's
/// blackout checkpoint snapshots it by value, exactly like the monitors.
class CollectiveDiagnoser {
 public:
  explicit CollectiveDiagnoser(CollectiveDiagConfig cfg = {}) : cfg_(cfg) {}

  /// Register a communicator; sizes its per-rank state once (plan time),
  /// so ingest allocates nothing. Groups must be registered in id order
  /// (build_collective_groups emits them that way).
  void register_group(const workload::CollectiveGroup& g);

  /// Feed one emitted batch (typically one iteration) and append any
  /// verdicts to `out`. `now` is the ingest instant the hang timeout is
  /// measured against. Verdict order is deterministic: groups ascending,
  /// hang before slow within a group.
  void ingest(std::span<const workload::StepRecord> records, SimTime now,
              std::vector<CollectiveVerdict>& out);

  /// Cold reset: drop strike counters, latches, and pending records but
  /// keep registrations — the analyzer process died, the communicators
  /// didn't. Warm restarts restore the full object from a checkpoint
  /// instead (it is copyable for exactly that).
  void reset_state();

  [[nodiscard]] std::size_t num_groups() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] std::uint64_t steps_ingested() const noexcept {
    return steps_ingested_;
  }
  [[nodiscard]] std::uint64_t hang_verdicts() const noexcept {
    return hang_verdicts_;
  }
  [[nodiscard]] std::uint64_t slow_verdicts() const noexcept {
    return slow_verdicts_;
  }

 private:
  struct GroupState {
    workload::CollectiveKind kind = workload::CollectiveKind::kRingAllReduce;
    std::vector<Endpoint> members;
    std::vector<std::uint32_t> container_index;
    /// Straggler strike counter and reported-latch per rank.
    std::vector<std::uint16_t> strikes;
    std::vector<std::uint8_t> slow_reported;
    /// One hang verdict per stall episode; cleared when an iteration of
    /// the group completes fully again.
    bool hang_reported = false;
    /// Incomplete records of the most recent ingested iteration (bounded
    /// by the group's step x rank grid; typically empty).
    std::vector<workload::StepRecord> pending;
    /// Scratch (reused across ingests, no steady-state allocation):
    /// per-step sibling durations and per-rank worst ratios.
    std::vector<double> durations;
    std::vector<double> ratio_scratch;
    std::vector<std::uint8_t> seen_scratch;
  };

  void diagnose_group(GroupState& g, std::uint32_t gid, SimTime now,
                      std::vector<CollectiveVerdict>& out);

  CollectiveDiagConfig cfg_;
  std::vector<GroupState> groups_;
  std::uint64_t steps_ingested_ = 0;
  std::uint64_t hang_verdicts_ = 0;
  std::uint64_t slow_verdicts_ = 0;
};

}  // namespace skh::collective
