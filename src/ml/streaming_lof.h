// Sliding-window Local Outlier Factor over caller-owned look-back storage.
//
// The §5.2 hot path scores every closed 30-second window against a
// look-back population that changes by exactly one point per window close
// (the new window enters, the oldest leaves). `lof_score_of` rebuilds the
// whole model from scratch for each query — O(n²) distances plus ~2n heap
// allocations per close. The detector instead keeps every pair's look-back
// resident, and almost none of them ever scores: its O(1) magnitude gate
// skips the scoring pass on nearly every close. So storage and scoring
// are split apart:
//
//  - A look-back is a block of `slots` points (row-major, `dim` doubles
//    each) that the caller owns — the detector lays one fixed-stride block
//    per pair in a flat arena — plus a `LofRing` saying which slots are
//    live. Points stay in their slots and age by the head index, so
//    nothing is ever shifted: a push copies one point into the slot after
//    the newest, a pop advances the head. Neither computes a distance,
//    and a look-back carries no derived state at all.
//  - A `StreamingLof` is the scoring workspace: the pairwise distance
//    matrix and the k-distance table, sized for `slots` points once, at
//    construction. One serves every look-back its owner keeps (the
//    detector holds one, so a sharded analyzer has one per shard and
//    never shares one across threads). The rare close that scores
//    materializes the matrix from the live points — O(size² · dim), but
//    size is the look-back depth and the matrix is L1-resident.
//
// Diagonal and dead-slot cells carry a huge finite sentinel, which keeps
// every scoring sweep dense and branch-light (masked slots contribute an
// exact 0.0).
//
// Scoring contract: `last_score(ring, pts)` returns what
// `lof_score_of(newest, older live points, cfg)` returns, to
// floating-point rounding: reach distances are summed in slot order rather
// than the batch scorer's distance order (pinned by
// tests/ml/test_streaming_lof.cpp). A score reads nothing an earlier
// call left in the workspace, and the slot order is a pure function of the
// push/pop history, so the same history yields the same bits whichever
// workspace scores it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/lof.h"

namespace skh::ml {

/// Which slots of a look-back block hold live points. A plain value, so
/// the detector keeps it on the pair's hot line and snapshots copy it as
/// bytes; a default-constructed ring is empty.
struct LofRing {
  std::uint16_t head = 0;  ///< slot of the oldest live point
  std::uint16_t size = 0;  ///< live points, oldest first from `head`
};

/// Sliding-window LOF scorer. Points enter newest-last via `push` and leave
/// oldest-first via `pop_front`, mirroring the detector's look-back window.
class StreamingLof {
 public:
  /// Largest block a `LofRing` can index.
  static constexpr std::size_t kMaxSlots = UINT16_MAX;

  /// Scoring workspace for look-back blocks of `slots` points of `dim`
  /// coordinates. Throws std::invalid_argument when k is 0, `slots` is 0
  /// or above kMaxSlots, or `dim` is 0.
  StreamingLof(LofConfig cfg, std::size_t slots, std::size_t dim);

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Slot of the point `age` pushes younger than the oldest live one
  /// (`age` <= slots; `slot(ring, ring.size)` is where the next push
  /// lands).
  [[nodiscard]] std::size_t slot(const LofRing& ring,
                                 std::size_t age) const noexcept {
    const std::size_t s = ring.head + age;
    return s >= slots_ ? s - slots_ : s;
  }

  /// Append the newest point: copy `point` into its slot of `pts` (a
  /// block of slots x dim doubles). Throws std::invalid_argument on a
  /// point of the wrong dimension and std::length_error on a full ring.
  void push(LofRing& ring, double* pts, std::span<const double> point) const;

  /// Drop the oldest point: advance the head. No-op on an empty ring.
  void pop_front(LofRing& ring) const noexcept;

  /// LOF score of the newest point against the older live ones — exactly
  /// `lof_score_of(newest, older)`, because the batch scorer also appends
  /// its query to the reference before scoring. Returns the neutral score
  /// 1.0 when <= k older points are live, like the batch scorer.
  [[nodiscard]] double last_score(const LofRing& ring, const double* pts);

 private:
  /// Fill `dmat_` with the pairwise squared distances of the live points;
  /// diagonal and dead-slot cells carry the sentinel.
  void build_matrix(const LofRing& ring, const double* pts);
  /// k-th smallest entry (duplicates counted) of matrix row `i`.
  [[nodiscard]] double kth_of_row(std::size_t i);
  /// One slot's reachability density and neighborhood size from the
  /// current k-distances — one branch-light row sweep.
  [[nodiscard]] std::pair<double, std::size_t> density_of(
      std::size_t i) const noexcept;

  LofConfig cfg_;
  std::size_t slots_;
  std::size_t dim_;
  // Scoring scratch, allocated once at construction. The distance-valued
  // entries hold *squared* distances — see streaming_lof.cpp for the
  // exactness argument.
  std::vector<double> dmat_;   ///< slots x slots pairwise distances
  std::vector<double> kdist_;  ///< per-slot k-distance (0 for dead slots)
  std::vector<double> kbuf_;   ///< k-smallest selection buffer
};

}  // namespace skh::ml
