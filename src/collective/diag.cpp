#include "collective/diag.h"

#include <algorithm>

namespace skh::collective {
namespace {

/// A step duration beyond this many times the sibling median is a
/// straggler strike.
constexpr double kStragglerRatio = 3.0;
/// Consecutive strikes before a kSlow verdict (transient filtering — one
/// slow step is noise, a streak is a sick host).
constexpr std::uint32_t kStragglerStrikes = 3;

}  // namespace

std::string_view to_string(VerdictKind k) noexcept {
  switch (k) {
    case VerdictKind::kHang: return "hang";
    case VerdictKind::kSlow: return "slow";
  }
  return "unknown";
}

void CollectiveDiagnoser::register_group(const workload::CollectiveGroup& g) {
  if (groups_.size() <= g.id) groups_.resize(g.id + 1);
  GroupState& s = groups_[g.id];
  s.kind = g.kind;
  s.members = g.members;
  s.container_index = g.container_index;
  const std::size_t n = g.members.size();
  s.strikes.assign(n, 0);
  s.slow_reported.assign(n, 0);
  s.hang_reported = false;
  s.pending.clear();
  // Plan-time reservations: one iteration's grid bounds the batch slice.
  s.pending.reserve(n * std::max<std::uint32_t>(1, g.num_steps()));
  s.durations.reserve(n);
  s.ratio_scratch.assign(n, 0.0);
  s.seen_scratch.assign(n, 0);
}

void CollectiveDiagnoser::reset_state() {
  for (GroupState& g : groups_) {
    std::fill(g.strikes.begin(), g.strikes.end(), std::uint16_t{0});
    std::fill(g.slow_reported.begin(), g.slow_reported.end(),
              std::uint8_t{0});
    g.hang_reported = false;
    g.pending.clear();
  }
}

void CollectiveDiagnoser::ingest(std::span<const workload::StepRecord> records,
                                 SimTime now,
                                 std::vector<CollectiveVerdict>& out) {
  steps_ingested_ += records.size();
  // Records arrive in emit order: group ascending, then step, then rank.
  // Walk the group segments and diagnose each as a unit.
  std::size_t i = 0;
  while (i < records.size()) {
    const std::uint32_t gid = records[i].group;
    std::size_t j = i;
    while (j < records.size() && records[j].group == gid) ++j;
    if (gid < groups_.size() && !groups_[gid].members.empty()) {
      GroupState& g = groups_[gid];
      g.pending.assign(records.begin() + static_cast<std::ptrdiff_t>(i),
                       records.begin() + static_cast<std::ptrdiff_t>(j));
      diagnose_group(g, gid, now, out);
    }
    i = j;
  }
}

void CollectiveDiagnoser::diagnose_group(GroupState& g, std::uint32_t gid,
                                         SimTime now,
                                         std::vector<CollectiveVerdict>& out) {
  const std::size_t n = g.members.size();

  // --- hang: dependency-aware timeout --------------------------------------
  // The stall root is the smallest (step, rank) record whose dependencies
  // were satisfied (started) but which never completed past the timeout.
  // Everything blocked behind it is its wait-for chain, not a root: a
  // naive per-rank timeout would page every rank of the communicator.
  const workload::StepRecord* root = nullptr;
  bool all_done = true;
  for (const auto& r : g.pending) {
    if (r.done) continue;
    all_done = false;
    if (r.started && now - r.start >= kHangTimeout) {
      if (root == nullptr || r.step < root->step ||
          (r.step == root->step && r.rank < root->rank)) {
        root = &r;
      }
    }
  }
  if (all_done) g.hang_reported = false;
  if (root != nullptr && !g.hang_reported) {
    g.hang_reported = true;
    ++hang_verdicts_;
    CollectiveVerdict v;
    v.group = gid;
    v.kind = VerdictKind::kHang;
    v.iteration = root->iteration;
    v.step = root->step;
    v.root_rank = root->rank;
    v.root = root->endpoint;
    v.root_container = g.container_index[root->rank];
    v.detected_at = now;
    v.severity = (now - root->start).to_seconds();
    // Wait-for chain: blocked ranks of the same iteration in (step, rank)
    // order, each rank once, bounded.
    std::vector<std::uint8_t>& seen = g.seen_scratch;
    std::fill(seen.begin(), seen.end(), std::uint8_t{0});
    seen[root->rank] = 1;
    for (const auto& r : g.pending) {
      if (r.iteration != root->iteration || r.done || r.started) continue;
      if (seen[r.rank]) continue;
      seen[r.rank] = 1;
      v.waiters.push_back(r.endpoint);
      if (v.waiters.size() >= cfg_.max_waiters) break;
    }
    out.push_back(std::move(v));
  }

  // --- slow: per-step sibling-relative timing -------------------------------
  // For each step, the siblings that completed it form the control group;
  // a rank repeatedly landing beyond ratio * median accumulates strikes.
  std::vector<double>& worst_ratio = g.ratio_scratch;
  std::fill(worst_ratio.begin(), worst_ratio.end(), 0.0);
  std::size_t i = 0;
  while (i < g.pending.size()) {
    const std::uint32_t step = g.pending[i].step;
    std::size_t j = i;
    g.durations.clear();
    while (j < g.pending.size() && g.pending[j].step == step) {
      if (g.pending[j].done) {
        g.durations.push_back(
            (g.pending[j].end - g.pending[j].start).to_seconds());
      }
      ++j;
    }
    if (g.durations.size() >= 3) {
      const auto mid = g.durations.begin() +
                       static_cast<std::ptrdiff_t>(g.durations.size() / 2);
      std::nth_element(g.durations.begin(), mid, g.durations.end());
      const double median = *mid;
      if (median > 0.0) {
        for (std::size_t k = i; k < j; ++k) {
          if (!g.pending[k].done) continue;
          const double ratio =
              (g.pending[k].end - g.pending[k].start).to_seconds() / median;
          worst_ratio[g.pending[k].rank] =
              std::max(worst_ratio[g.pending[k].rank], ratio);
        }
      }
    }
    i = j;
  }
  if (g.pending.empty()) return;
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    if (worst_ratio[rank] > kStragglerRatio) {
      if (g.strikes[rank] < 0xffff) ++g.strikes[rank];
      if (g.strikes[rank] >= kStragglerStrikes &&
          !g.slow_reported[rank]) {
        g.slow_reported[rank] = 1;
        ++slow_verdicts_;
        CollectiveVerdict v;
        v.group = gid;
        v.kind = VerdictKind::kSlow;
        v.iteration = g.pending.front().iteration;
        v.step = 0;
        v.root_rank = rank;
        v.root = g.members[rank];
        v.root_container = g.container_index[rank];
        v.detected_at = now;
        v.severity = worst_ratio[rank];
        out.push_back(std::move(v));
      }
    } else {
      // Recovery resets both the streak and the latch: a relapse is a new
      // incident and deserves a new verdict.
      g.strikes[rank] = 0;
      g.slow_reported[rank] = 0;
    }
  }
}

}  // namespace skh::collective
