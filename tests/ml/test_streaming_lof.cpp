#include "ml/streaming_lof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "ml/lof.h"

namespace skh::ml {
namespace {

/// One look-back as the detector keeps it: a caller-owned block of ring
/// slots plus the ring state naming the live ones.
struct Lookback {
  explicit Lookback(const StreamingLof& lof)
      : pts(lof.slots() * lof.dim(), 0.0) {}
  LofRing ring;
  std::vector<double> pts;
};

std::vector<std::vector<double>> as_batch(
    const std::deque<std::vector<double>>& mirror) {
  return {mirror.begin(), mirror.end()};
}

/// The detector's path: push `q` as the newest point, then score it
/// in-ring. The contract is *equality* with the batch scorer over the
/// reference as it stood before the push; the tolerance only absorbs
/// platform FP quirks, not algorithmic drift. Returns the in-ring score.
double push_and_expect_batch(StreamingLof& lof, Lookback& lb,
                             std::deque<std::vector<double>>& mirror,
                             const std::vector<double>& q,
                             const LofConfig& cfg) {
  const double batch = lof_score_of(q, as_batch(mirror), cfg);
  lof.push(lb.ring, lb.pts.data(), q);
  mirror.push_back(q);
  const double streaming = lof.last_score(lb.ring, lb.pts.data());
  EXPECT_NEAR(streaming, batch, 1e-9 * std::max(1.0, std::abs(batch)));
  return streaming;
}

/// Score `q` against the look-back as it stands without consuming it: the
/// ring state is a value, so a copy takes the push (into the dead slot
/// after the newest, which no live point occupies) and the original ring
/// is untouched.
void expect_query_matches_batch(StreamingLof& lof, Lookback& lb,
                                const std::deque<std::vector<double>>& mirror,
                                const std::vector<double>& q,
                                const LofConfig& cfg) {
  LofRing probe = lb.ring;
  lof.push(probe, lb.pts.data(), q);
  const double streaming = lof.last_score(probe, lb.pts.data());
  const double batch = lof_score_of(q, as_batch(mirror), cfg);
  EXPECT_NEAR(streaming, batch, 1e-9 * std::max(1.0, std::abs(batch)));
}

TEST(StreamingLof, SmallReferenceIsNeutralLikeBatch) {
  const LofConfig cfg{3, 1.5};
  StreamingLof lof(cfg, 8, 2);
  Lookback lb(lof);
  std::deque<std::vector<double>> mirror;
  for (int i = 0; i < 4; ++i) {
    // <= k reference points: both scorers return the neutral 1.0.
    const double s =
        push_and_expect_batch(lof, lb, mirror, {1.0 + i, 2.0}, cfg);
    EXPECT_DOUBLE_EQ(s, 1.0);
  }
  EXPECT_EQ(lb.ring.size, 4u);
  LofRing empty;
  EXPECT_DOUBLE_EQ(lof.last_score(empty, lb.pts.data()), 1.0);
}

TEST(StreamingLof, ThrowsOnZeroK) {
  EXPECT_THROW(StreamingLof(LofConfig{0, 1.5}, 4, 2), std::invalid_argument);
}

TEST(StreamingLof, RejectsBadGeometry) {
  EXPECT_THROW(StreamingLof(LofConfig{}, 0, 2), std::invalid_argument);
  EXPECT_THROW(StreamingLof(LofConfig{}, StreamingLof::kMaxSlots + 1, 2),
               std::invalid_argument);
  EXPECT_THROW(StreamingLof(LofConfig{}, 4, 0), std::invalid_argument);

  StreamingLof lof(LofConfig{}, 2, 2);
  Lookback lb(lof);
  const std::vector<double> p{1.0, 2.0};
  EXPECT_THROW(lof.push(lb.ring, lb.pts.data(), std::vector<double>{1.0}),
               std::invalid_argument);
  lof.push(lb.ring, lb.pts.data(), p);
  lof.push(lb.ring, lb.pts.data(), p);
  EXPECT_THROW(lof.push(lb.ring, lb.pts.data(), p), std::length_error);
  EXPECT_EQ(lb.ring.size, 2u);
  lof.pop_front(lb.ring);
  lof.pop_front(lb.ring);
  lof.pop_front(lb.ring);  // no-op on an empty ring
  EXPECT_EQ(lb.ring.size, 0u);
  EXPECT_EQ(lb.ring.head, 0u);  // wrapped past both slots
}

TEST(StreamingLof, DuplicatePointsUseDistanceFloor) {
  const LofConfig cfg{3, 1.5};
  StreamingLof lof(cfg, 8, 2);
  Lookback lb(lof);
  std::deque<std::vector<double>> mirror;
  const std::vector<double> p{2.0, 2.0};
  for (int i = 0; i < 6; ++i) {
    lof.push(lb.ring, lb.pts.data(), p);
    mirror.push_back(p);
  }
  expect_query_matches_batch(lof, lb, mirror, p, cfg);  // duplicate query
  expect_query_matches_batch(lof, lb, mirror, {2.0, 2.5}, cfg);
  // Pushed for real (the detector's path), it matches the batch scorer too.
  (void)push_and_expect_batch(lof, lb, mirror, p, cfg);
}

TEST(StreamingLof, MatchesBatchAcrossRandomizedSlidingWindow) {
  // Property test: detector-shaped streams — 7-dim window features, a
  // look-back of 10 in an 11-slot ring, one push, a score and (when full)
  // one pop per step — with healthy / shifted / spiky windows mixed in.
  // Two look-backs share the one workspace, alternating, the way a
  // detector scores all its pairs. Every score must match the batch
  // scorer over the reference before the push.
  for (const std::size_t k : {1u, 3u}) {
    const LofConfig cfg{k, 1.8};
    const std::size_t dim = 7;
    StreamingLof lof(cfg, 11, dim);
    std::vector<Lookback> lbs(2, Lookback(lof));
    std::vector<std::deque<std::vector<double>>> mirrors(2);
    RngStream rng{42 + k};
    std::size_t outliers = 0, inliers = 0;
    for (int step = 0; step < 800; ++step) {
      const std::size_t which = static_cast<std::size_t>(step) % 2;
      std::vector<double> q(dim);
      const double regime = rng.uniform();
      const double base = regime < 0.7 ? 16.0    // healthy
                          : regime < 0.9 ? 24.0  // shifted
                                         : 90.0; // hard spike
      for (auto& x : q) x = base * std::exp(rng.normal(0.0, 0.08));
      const double s =
          push_and_expect_batch(lof, lbs[which], mirrors[which], q, cfg);
      (s > cfg.outlier_threshold ? outliers : inliers) += 1;
      if (mirrors[which].size() > 10) {
        lof.pop_front(lbs[which].ring);
        mirrors[which].pop_front();
        EXPECT_EQ(lbs[which].ring.size, mirrors[which].size());
      }
    }
    // Both verdicts must actually occur for the property to mean much.
    EXPECT_GT(outliers, 0u);
    EXPECT_GT(inliers, 0u);
  }
}

TEST(StreamingLof, MatchesBatchWhileDrainingToEmpty) {
  const LofConfig cfg{2, 1.5};
  StreamingLof lof(cfg, 8, 1);
  Lookback lb(lof);
  std::deque<std::vector<double>> mirror;
  RngStream rng{11};
  for (int i = 0; i < 7; ++i) {
    const std::vector<double> p{rng.normal(5.0, 1.0)};
    lof.push(lb.ring, lb.pts.data(), p);
    mirror.push_back(p);
  }
  const std::vector<double> q{5.5};
  while (!mirror.empty()) {
    expect_query_matches_batch(lof, lb, mirror, q, cfg);
    lof.pop_front(lb.ring);
    mirror.pop_front();
  }
  EXPECT_EQ(lb.ring.size, 0u);
  expect_query_matches_batch(lof, lb, mirror, q, cfg);
}

}  // namespace
}  // namespace skh::ml
