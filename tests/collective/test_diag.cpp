// CollectiveDiagnoser unit semantics: dependency-aware hang timeouts,
// sibling-relative straggler strikes, per-episode latching, and the
// copyability the hunter's blackout checkpoint depends on.
#include <vector>

#include <gtest/gtest.h>

#include "collective/diag.h"

namespace skh::collective {
namespace {

using workload::CollectiveGroup;
using workload::CollectiveKind;
using workload::StepRecord;

CollectiveGroup ring(std::uint32_t id, std::uint32_t n) {
  CollectiveGroup g;
  g.id = id;
  g.kind = CollectiveKind::kRingAllReduce;
  for (std::uint32_t i = 0; i < n; ++i) {
    g.members.push_back(Endpoint{ContainerId{i}, RnicId{i}});
    g.container_index.push_back(i);
  }
  return g;
}

StepRecord rec(std::uint32_t group, std::uint32_t step, std::uint32_t rank,
               SimTime start, SimTime end, bool started, bool done) {
  StepRecord r;
  r.group = group;
  r.iteration = 0;
  r.step = step;
  r.rank = rank;
  r.endpoint = Endpoint{ContainerId{rank}, RnicId{rank}};
  r.start = start;
  r.end = end;
  r.started = started;
  r.done = done;
  return r;
}

StepRecord ok(std::uint32_t group, std::uint32_t step, std::uint32_t rank,
              double start_s, double dur_s) {
  return rec(group, step, rank, SimTime::seconds(start_s),
             SimTime::seconds(start_s) + SimTime::micros(dur_s * 1e6),
             true, true);
}

/// A healthy full iteration of a ring of `n`: every (step, rank) done in
/// `dur_s` seconds.
std::vector<StepRecord> healthy_iteration(std::uint32_t group,
                                          std::uint32_t n,
                                          double dur_s = 0.004) {
  std::vector<StepRecord> out;
  for (std::uint32_t step = 0; step < 2 * (n - 1); ++step) {
    for (std::uint32_t rank = 0; rank < n; ++rank) {
      out.push_back(ok(group, step, rank, step * dur_s, dur_s));
    }
  }
  return out;
}

/// One iteration where `victim` straggles: its steps take `factor` times
/// the sibling duration, but everything completes.
std::vector<StepRecord> straggler_iteration(std::uint32_t group,
                                            std::uint32_t n,
                                            std::uint32_t victim,
                                            double factor) {
  std::vector<StepRecord> out;
  for (std::uint32_t step = 0; step < 2 * (n - 1); ++step) {
    for (std::uint32_t rank = 0; rank < n; ++rank) {
      const double dur = rank == victim ? 0.004 * factor : 0.004;
      out.push_back(ok(group, step, rank, step * 0.004, dur));
    }
  }
  return out;
}

/// A stalled iteration: `root` started step 0 at t=0 and never finished;
/// every other rank of steps >= 1 is blocked behind it.
std::vector<StepRecord> stalled_iteration(std::uint32_t group,
                                          std::uint32_t n,
                                          std::uint32_t root) {
  std::vector<StepRecord> out;
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    if (rank == root) {
      out.push_back(rec(group, 0, rank, SimTime::seconds(0),
                        SimTime::seconds(0), true, false));
    } else {
      out.push_back(ok(group, 0, rank, 0.0, 0.004));
    }
  }
  for (std::uint32_t step = 1; step < 2 * (n - 1); ++step) {
    for (std::uint32_t rank = 0; rank < n; ++rank) {
      out.push_back(rec(group, step, rank, SimTime::seconds(0),
                        SimTime::seconds(0), false, false));
    }
  }
  return out;
}

TEST(Diagnoser, HealthyIterationRaisesNothing) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  EXPECT_EQ(diag.num_groups(), 1u);
  std::vector<CollectiveVerdict> out;
  const auto batch = healthy_iteration(0, 4);
  diag.ingest(batch, SimTime::seconds(30), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(diag.steps_ingested(), batch.size());
  EXPECT_EQ(diag.hang_verdicts(), 0u);
  EXPECT_EQ(diag.slow_verdicts(), 0u);
}

TEST(Diagnoser, HangNamesTheRootNotTheChain) {
  CollectiveDiagnoser diag;  // kHangTimeout: 25 s
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  const auto batch = stalled_iteration(0, 4, /*root=*/2);
  diag.ingest(batch, SimTime::seconds(30), out);
  ASSERT_EQ(out.size(), 1u);
  const auto& v = out[0];
  EXPECT_EQ(v.kind, VerdictKind::kHang);
  EXPECT_EQ(v.group, 0u);
  EXPECT_EQ(v.step, 0u);
  EXPECT_EQ(v.root_rank, 2u);
  EXPECT_EQ(v.root.container.value(), 2u);
  EXPECT_EQ(v.root_container, 2u);
  EXPECT_DOUBLE_EQ(v.severity, 30.0);  // stalled since t=0, seen at t=30
  // The wait-for chain holds each blocked rank once, not once per step.
  ASSERT_EQ(v.waiters.size(), 3u);
  std::vector<std::uint32_t> waiter_ranks;
  for (const auto& w : v.waiters) waiter_ranks.push_back(w.container.value());
  EXPECT_EQ(waiter_ranks, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(diag.hang_verdicts(), 1u);
}

TEST(Diagnoser, NoHangBeforeTimeout) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  const auto batch = stalled_iteration(0, 4, 2);
  diag.ingest(batch, SimTime::seconds(10), out);  // 10 s < 25 s timeout
  EXPECT_TRUE(out.empty());
}

TEST(Diagnoser, HangLatchesUntilTheGroupCompletesAgain) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  const auto stalled = stalled_iteration(0, 4, 2);
  diag.ingest(stalled, SimTime::seconds(30), out);
  diag.ingest(stalled, SimTime::seconds(60), out);
  EXPECT_EQ(out.size(), 1u);  // same episode, one verdict
  // A fully-done iteration clears the latch; a relapse is a new episode.
  diag.ingest(healthy_iteration(0, 4), SimTime::seconds(90), out);
  diag.ingest(stalled, SimTime::seconds(120), out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(diag.hang_verdicts(), 2u);
}

TEST(Diagnoser, WaitChainIsBounded) {
  CollectiveDiagConfig cfg;
  cfg.max_waiters = 2;
  CollectiveDiagnoser diag(cfg);
  diag.register_group(ring(0, 8));
  std::vector<CollectiveVerdict> out;
  diag.ingest(stalled_iteration(0, 8, 5), SimTime::seconds(30), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].waiters.size(), 2u);
}

TEST(Diagnoser, StragglerNeedsThreeConsecutiveStrikes) {
  CollectiveDiagnoser diag;  // ratio 3.0, strikes 3
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(30), out);
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(60), out);
  EXPECT_TRUE(out.empty());  // two strikes: still could be transient
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(90), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, VerdictKind::kSlow);
  EXPECT_EQ(out[0].root_rank, 3u);
  EXPECT_TRUE(out[0].waiters.empty());
  EXPECT_NEAR(out[0].severity, 10.0, 1e-9);  // duration / sibling median
  EXPECT_EQ(diag.slow_verdicts(), 1u);
  // The latch holds while the rank keeps straggling: no duplicate pages.
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(120), out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Diagnoser, RecoveryResetsStrikesAndLatch) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  // Two strikes, a recovery, two more: never enough consecutively.
  for (const double f : {10.0, 10.0, 1.0, 10.0, 10.0}) {
    diag.ingest(straggler_iteration(0, 4, 3, f), SimTime::seconds(30), out);
  }
  EXPECT_TRUE(out.empty());
  // Third consecutive strike finally pages...
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(30), out);
  EXPECT_EQ(out.size(), 1u);
  // ...and after a recovery clears the latch, a relapse pages again.
  diag.ingest(straggler_iteration(0, 4, 3, 1.0), SimTime::seconds(30), out);
  for (int i = 0; i < 3; ++i) {
    diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(30),
                out);
  }
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(diag.slow_verdicts(), 2u);
}

TEST(Diagnoser, TwoSiblingsAreNoControlGroup) {
  // A pair has no meaningful median: with fewer than three completed
  // siblings per step the straggler test must stay silent rather than
  // compare a rank against itself.
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 2));
  std::vector<CollectiveVerdict> out;
  for (int i = 0; i < 5; ++i) {
    std::vector<StepRecord> batch;
    for (std::uint32_t step = 0; step < 2; ++step) {
      batch.push_back(ok(0, step, 0, step * 0.004, 0.004));
      batch.push_back(ok(0, step, 1, step * 0.004, 0.4));  // 100x slower
    }
    diag.ingest(batch, SimTime::seconds(30 * (i + 1)), out);
  }
  EXPECT_TRUE(out.empty());
}

TEST(Diagnoser, UnregisteredGroupsAreSkippedSafely) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  diag.ingest(stalled_iteration(7, 4, 2), SimTime::seconds(30), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(diag.hang_verdicts(), 0u);
}

TEST(Diagnoser, VerdictOrderIsGroupAscending) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  diag.register_group(ring(1, 4));
  std::vector<CollectiveVerdict> out;
  auto batch = stalled_iteration(0, 4, 2);
  const auto second = stalled_iteration(1, 4, 1);
  batch.insert(batch.end(), second.begin(), second.end());
  diag.ingest(batch, SimTime::seconds(30), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].group, 0u);
  EXPECT_EQ(out[1].group, 1u);
  EXPECT_EQ(out[0].root_rank, 2u);
  EXPECT_EQ(out[1].root_rank, 1u);
}

TEST(Diagnoser, ResetKeepsRegistrationsDropsEpisodeState) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  const auto stalled = stalled_iteration(0, 4, 2);
  diag.ingest(stalled, SimTime::seconds(30), out);
  EXPECT_EQ(out.size(), 1u);
  diag.reset_state();
  EXPECT_EQ(diag.num_groups(), 1u);
  // The cold restart forgot the latch: the still-live stall re-pages
  // (better a duplicate page than a swallowed hang).
  diag.ingest(stalled, SimTime::seconds(60), out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Diagnoser, CopyCheckpointsStrikeState) {
  CollectiveDiagnoser diag;
  diag.register_group(ring(0, 4));
  std::vector<CollectiveVerdict> out;
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(30), out);
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(60), out);
  const CollectiveDiagnoser snapshot = diag;  // blackout checkpoint
  // The live object pages on strike three; the snapshot, restored later,
  // replays the same third strike to the same verdict.
  diag.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(90), out);
  ASSERT_EQ(out.size(), 1u);
  CollectiveDiagnoser restored = snapshot;
  std::vector<CollectiveVerdict> replay;
  restored.ingest(straggler_iteration(0, 4, 3, 10.0), SimTime::seconds(90),
                  replay);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].kind, out[0].kind);
  EXPECT_EQ(replay[0].root_rank, out[0].root_rank);
  EXPECT_EQ(restored.slow_verdicts(), diag.slow_verdicts());
}

TEST(Verdict, KindStrings) {
  EXPECT_EQ(to_string(VerdictKind::kHang), "hang");
  EXPECT_EQ(to_string(VerdictKind::kSlow), "slow");
}

}  // namespace
}  // namespace skh::collective
