#include "workload/collective_trace.h"

#include <algorithm>

namespace skh::workload {

std::string_view to_string(CollectiveKind k) noexcept {
  switch (k) {
    case CollectiveKind::kRingAllReduce: return "ring-allreduce";
    case CollectiveKind::kPipelineP2p: return "pipeline-p2p";
    case CollectiveKind::kAllToAll: return "all-to-all";
  }
  return "unknown";
}

std::uint32_t CollectiveGroup::num_steps() const noexcept {
  const auto n = static_cast<std::uint32_t>(members.size());
  if (n < 2) return 0;
  switch (kind) {
    case CollectiveKind::kRingAllReduce:
      // Reduce-scatter + all-gather: 2(n-1) ring rotations.
      return 2 * (n - 1);
    case CollectiveKind::kPipelineP2p:
      // Forward activations down the chain, gradients back up.
      return 2 * (n - 1);
    case CollectiveKind::kAllToAll:
      // n-1 pairwise exchange rounds.
      return n - 1;
  }
  return 0;
}

std::uint32_t pipeline_participant(std::uint32_t n, std::uint32_t step) {
  // Forward handoffs 0..n-2 are received by stages 1..n-1; backward
  // handoffs n-1..2n-3 are received by stages n-2..0.
  if (step < n - 1) return step + 1;
  return (n - 2) - (step - (n - 1));
}

std::vector<std::uint32_t> dep_ranks(CollectiveKind kind, std::uint32_t n,
                                     std::uint32_t step, std::uint32_t rank) {
  std::vector<std::uint32_t> deps;
  if (step == 0 || n < 2) return deps;
  switch (kind) {
    case CollectiveKind::kRingAllReduce: {
      const std::uint32_t pred = (rank + n - 1) % n;
      deps.push_back(rank);
      if (pred != rank) deps.push_back(pred);
      break;
    }
    case CollectiveKind::kPipelineP2p:
      deps.push_back(pipeline_participant(n, step - 1));
      break;
    case CollectiveKind::kAllToAll: {
      // Exchange peer at step s: (rank + s + 1) mod n. The previous round
      // must have finished on both ends of the current exchange.
      const std::uint32_t peer = (rank + step + 1) % n;
      deps.push_back(rank);
      if (peer != rank) deps.push_back(peer);
      break;
    }
  }
  std::sort(deps.begin(), deps.end());
  return deps;
}

namespace {

constexpr SimTime kStepBase = SimTime::millis(4);  ///< nominal step duration

void push_group(std::vector<CollectiveGroup>& out, CollectiveKind kind,
                std::vector<Endpoint> members, const TaskLayout& layout) {
  if (members.size() < 2) return;
  CollectiveGroup g;
  g.id = static_cast<std::uint32_t>(out.size());
  g.kind = kind;
  g.container_index.reserve(members.size());
  for (const Endpoint& ep : members) {
    const EndpointRole* role = layout.role_of(ep);
    // Container index within the task: the PP x DP grid coordinate
    // (dp_rank * pp + stage) — the address host-side fault plans use.
    g.container_index.push_back(role == nullptr
                                    ? 0u
                                    : role->dp_rank * layout.par.pp +
                                          role->stage);
  }
  g.members = std::move(members);
  out.push_back(std::move(g));
}

}  // namespace

std::vector<CollectiveGroup> build_collective_groups(
    const TaskLayout& layout) {
  std::vector<CollectiveGroup> out;
  const auto& par = layout.par;

  // DP rings per (stage, rail), members ordered by dp_rank — the same
  // canonical 0-1-...-(dp-1)-0 ring the traffic matrix builds.
  if (par.dp > 1) {
    for (std::uint32_t stage = 0; stage < par.pp; ++stage) {
      for (std::uint32_t rail = 0; rail < par.tp; ++rail) {
        std::vector<Endpoint> members(par.dp, Endpoint{});
        for (const auto& r : layout.roles) {
          if (r.stage == stage && r.rail == rail) {
            members[r.dp_rank] = r.endpoint;
          }
        }
        push_group(out, CollectiveKind::kRingAllReduce, std::move(members),
                   layout);
      }
    }
  }

  // PP chains per (dp_rank, rail) in stage order.
  if (par.pp > 1) {
    for (std::uint32_t d = 0; d < par.dp; ++d) {
      for (std::uint32_t rail = 0; rail < par.tp; ++rail) {
        std::vector<Endpoint> stages(par.pp, Endpoint{});
        for (const auto& r : layout.roles) {
          if (r.dp_rank == d && r.rail == rail) stages[r.stage] = r.endpoint;
        }
        push_group(out, CollectiveKind::kPipelineP2p, std::move(stages),
                   layout);
      }
    }
  }

  // EP (MoE): all-to-all per (stage, rail, expert block of `ep`
  // consecutive DP replicas).
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
          push_group(out, CollectiveKind::kAllToAll, std::move(group),
                     layout);
        }
      }
    }
  }
  return out;
}

CollectiveTraceGenerator::CollectiveTraceGenerator(
    std::vector<CollectiveGroup> groups, CollectiveTraceConfig cfg,
    RngStream rng)
    : groups_(std::move(groups)), cfg_(cfg), rng_(rng) {}

std::vector<StepRecord> CollectiveTraceGenerator::emit_iteration(
    std::uint32_t iteration, SimTime at) {
  std::vector<StepRecord> out;
  RngStream iter_rng = rng_.fork("iteration").fork(iteration);
  for (const CollectiveGroup& g : groups_) {
    const auto n = static_cast<std::uint32_t>(g.members.size());
    const std::uint32_t steps = g.num_steps();
    if (steps == 0) continue;
    // Completion state of the previous step per rank. Step 0 has no
    // dependencies, so "previous" starts as all-done at `at`.
    std::vector<char> prev_done(n, 1);
    std::vector<SimTime> prev_end(n, at);
    std::vector<char> cur_done(n, 0);
    std::vector<SimTime> cur_end(n, at);
    for (std::uint32_t step = 0; step < steps; ++step) {
      std::fill(cur_done.begin(), cur_done.end(), 0);
      const bool pipeline = g.kind == CollectiveKind::kPipelineP2p;
      const std::uint32_t lone =
          pipeline ? pipeline_participant(n, step) : 0;
      for (std::uint32_t rank = 0; rank < n; ++rank) {
        if (pipeline && rank != lone) continue;
        // Draw jitter unconditionally: the stream must stay aligned
        // whether or not this rank hangs or is blocked, so a fault in
        // iteration i never perturbs iteration i+1's durations.
        const double jitter = iter_rng.uniform(-cfg_.jitter_frac,
                                               cfg_.jitter_frac);
        StepRecord rec;
        rec.group = g.id;
        rec.iteration = iteration;
        rec.step = step;
        rec.rank = rank;
        rec.endpoint = g.members[rank];
        const auto deps = dep_ranks(g.kind, n, step, rank);
        SimTime ready = at;
        bool blocked = false;
        for (const std::uint32_t d : deps) {
          if (!prev_done[d]) {
            blocked = true;
            break;
          }
          ready = std::max(ready, prev_end[d]);
        }
        if (blocked) {
          rec.start = at;
          rec.end = at;
          out.push_back(rec);
          continue;
        }
        rec.started = true;
        rec.start = ready;
        // Host-side fault: a hung rank's step starts but never ends —
        // exactly the signature the probe mesh cannot see.
        const HostEffect host =
            host_ ? host_(g.container_index[rank], ready) : HostEffect{};
        std::optional<double> net_us{0.0};
        if (net_) net_us = net_(rec.endpoint, ready);
        if (host.hang || !net_us.has_value()) {
          rec.end = ready;
          out.push_back(rec);
          continue;
        }
        double dur_us = kStepBase.to_seconds() * 1e6 * (1.0 + jitter);
        dur_us *= std::max(1.0, host.slowdown);
        dur_us += *net_us;
        rec.end = ready + SimTime::micros(dur_us);
        rec.done = true;
        cur_done[rank] = 1;
        cur_end[rank] = rec.end;
        out.push_back(rec);
      }
      if (pipeline) {
        // Non-participants idle through the step; their previous state
        // carries forward so later handoffs see the chain correctly.
        for (std::uint32_t rank = 0; rank < n; ++rank) {
          if (rank == lone) continue;
          cur_done[rank] = prev_done[rank];
          cur_end[rank] = prev_end[rank];
        }
      }
      prev_done = cur_done;
      prev_end = cur_end;
    }
  }
  return out;
}

namespace {

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::uint64_t fingerprint_records(std::span<const StepRecord> records,
                                  std::uint64_t h) {
  for (const StepRecord& r : records) {
    h = fnv_mix(h, r.group);
    h = fnv_mix(h, r.iteration);
    h = fnv_mix(h, r.step);
    h = fnv_mix(h, r.rank);
    h = fnv_mix(h, r.endpoint.container.value());
    h = fnv_mix(h, r.endpoint.rnic.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(r.start.raw_nanos()));
    h = fnv_mix(h, static_cast<std::uint64_t>(r.end.raw_nanos()));
    h = fnv_mix(h, (r.started ? 1u : 0u) | (r.done ? 2u : 0u));
  }
  return h;
}

}  // namespace skh::workload
