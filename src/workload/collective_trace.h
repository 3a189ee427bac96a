// Per-collective step-timing/dependency traces (the second signal plane).
//
// The probe mesh sees the network; it is structurally blind to failures
// that never touch it — an NCCL-level hang, a straggling rank, a slow
// host. CCL-D diagnoses those at collective-step granularity and Mycroft
// traces the wait-for dependencies between steps; this header gives the
// workload generator the same vocabulary. Each DP ring / PP chain / EP
// all-to-all group the traffic matrix already synthesizes becomes a
// CollectiveGroup whose per-iteration execution is a deterministic
// schedule of StepRecords: who ran which step when, gated by which ranks'
// previous steps. The trace is a pure function of (layout, config, rng
// stream), so campaigns replay bit-identically at any thread or shard
// count — the same discipline as every other plane in this repo.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "workload/parallelism.h"

namespace skh::workload {

/// The collective patterns that emit step traces. Mirrors the traffic
/// matrix: DP rings, PP stage chains, EP all-to-all fan-in.
enum class CollectiveKind : std::uint8_t {
  kRingAllReduce,
  kPipelineP2p,
  kAllToAll,
};

[[nodiscard]] std::string_view to_string(CollectiveKind k) noexcept;

/// One communicator: an ordered rank list plus the pattern it runs.
struct CollectiveGroup {
  std::uint32_t id = 0;
  CollectiveKind kind = CollectiveKind::kRingAllReduce;
  std::vector<Endpoint> members;  ///< rank order (dp_rank / stage order)
  /// Per-rank container index within the task (`index_in_task`), the
  /// coordinate host-side fault plans address victims by.
  std::vector<std::uint32_t> container_index;

  /// Steps one iteration of this pattern executes.
  [[nodiscard]] std::uint32_t num_steps() const noexcept;
};

/// Ranks whose completion of `step - 1` gates (step, rank). Static pure
/// dependency structure (Mycroft's wait-for graph):
///   ring      — a rank waits on itself and its ring predecessor (the
///               chunk it reduces next comes from (rank-1) mod n),
///   pipeline  — stage handoff s waits on handoff s-1 (one participant
///               per step; see `pipeline_participant`),
///   all2all   — a rank waits on itself and its current exchange peer,
///               so every rank transitively fans into every other.
/// Empty at step 0. Results are sorted ascending.
[[nodiscard]] std::vector<std::uint32_t> dep_ranks(CollectiveKind kind,
                                                   std::uint32_t n,
                                                   std::uint32_t step,
                                                   std::uint32_t rank);

/// The single rank performing pipeline handoff `step` (receiver side):
/// forward steps 0..n-2 are stages 1..n-1, backward steps n-1..2n-3 walk
/// back down. Other kinds involve every rank each step.
[[nodiscard]] std::uint32_t pipeline_participant(std::uint32_t n,
                                                 std::uint32_t step);

/// Build every communicator of a layout, id-dense in deterministic order:
/// DP rings per (stage, rail) with members ordered by dp_rank, then PP
/// chains per (dp_rank, rail) in stage order, then (MoE) EP all-to-all
/// groups per (stage, rail, expert block). Degenerate dimensions (dp<2,
/// pp<2) emit no groups for that pattern.
[[nodiscard]] std::vector<CollectiveGroup> build_collective_groups(
    const TaskLayout& layout);

/// One rank's execution of one step of one iteration.
struct StepRecord {
  std::uint32_t group = 0;
  std::uint32_t iteration = 0;
  std::uint32_t step = 0;
  std::uint32_t rank = 0;
  Endpoint endpoint;
  SimTime start;  ///< when its dependencies were satisfied
  SimTime end;    ///< completion; valid only when `done`
  bool started = false;  ///< deps satisfied (false == blocked by the chain)
  bool done = false;     ///< false + started == this rank is the stall root
};

struct CollectiveTraceConfig {
  double jitter_frac = 0.15;  ///< uniform duration jitter
};

/// Simulates group iterations into StepRecords. Host-side fault effects
/// and network coupling come in as callbacks so this stays a pure
/// workload-layer object (the harness wires them to sim::FaultInjector
/// and sim::CollectiveFaultPlan).
class CollectiveTraceGenerator {
 public:
  /// Extra per-step delay (us) the network imposes on an endpoint at a
  /// time, or nullopt when the endpoint is unreachable (the step hangs).
  using NetworkDelayFn =
      std::function<std::optional<double>(const Endpoint&, SimTime)>;
  /// Host-side fault state for a container at a time.
  struct HostEffect {
    bool hang = false;        ///< the rank never completes its step
    double slowdown = 1.0;    ///< duration multiplier (>= 1)
  };
  using HostFaultFn =
      std::function<HostEffect(std::uint32_t container_index, SimTime)>;

  CollectiveTraceGenerator(std::vector<CollectiveGroup> groups,
                           CollectiveTraceConfig cfg, RngStream rng);

  void set_network_delay_fn(NetworkDelayFn fn) { net_ = std::move(fn); }
  void set_host_fault_fn(HostFaultFn fn) { host_ = std::move(fn); }

  [[nodiscard]] const std::vector<CollectiveGroup>& groups() const noexcept {
    return groups_;
  }

  /// Emit every group's records for iteration `iteration` starting at
  /// `at`. Jitter draws come from a per-iteration named fork in a fixed
  /// (group, step, rank) order — and are drawn for hung/blocked ranks
  /// too — so the stream alignment (hence every later iteration) is
  /// independent of which faults were active.
  [[nodiscard]] std::vector<StepRecord> emit_iteration(
      std::uint32_t iteration, SimTime at);

 private:
  std::vector<CollectiveGroup> groups_;
  CollectiveTraceConfig cfg_;
  RngStream rng_;
  NetworkDelayFn net_;
  HostFaultFn host_;
};

/// Order-sensitive FNV-1a fold over a record span, chained through `h` —
/// the byte-identity witness the determinism gates compare across runner
/// thread counts and analyzer shard counts.
[[nodiscard]] std::uint64_t fingerprint_records(
    std::span<const StepRecord> records,
    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace skh::workload
