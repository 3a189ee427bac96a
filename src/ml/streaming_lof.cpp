#include "ml/streaming_lof.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace skh::ml {

namespace {
// Slot-mask sentinel: orders of magnitude above any real distance, so the
// self-distance and dead-slot cells never rank as neighbors, yet finite
// so the branch-free masked arithmetic below cannot produce 0 * inf = NaN.
constexpr double kDiagonal = 1e300;

// The matrix stores *squared* distances, clamped to the squared floor, and
// every consumer takes sqrt at the last moment. This is exact, not an
// approximation: for any double x, sqrt(fl(x*x)) == x (the squaring error
// is below half an ulp of the square root), so max(floor, sqrt(sq)) is
// bit-identical to the max(floor, euclidean_distance(...)) the batch
// scorer computes — while the scoring-time matrix build does one sqrt per
// consumed value instead of one per cell. Ordering comparisons
// (k-distance gates, k-th smallest selection) are monotone under
// squaring, so they run directly in the squared domain.
constexpr double kFloorSq = kLofDistanceFloor * kLofDistanceFloor;

// Same accumulation order as dsp::euclidean_distance, minus the final
// sqrt, so the deferred sqrt reproduces its result bit-for-bit. Symmetric
// in its arguments (negating a difference is exact), so the matrix build
// may compute each unordered pair once.
inline double squared_distance(const double* __restrict a,
                               const double* __restrict b,
                               std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}
}  // namespace

StreamingLof::StreamingLof(LofConfig cfg, std::size_t slots, std::size_t dim)
    : cfg_(cfg), slots_(slots), dim_(dim) {
  if (cfg_.k_neighbors == 0) {
    throw std::invalid_argument("StreamingLof: k_neighbors must be > 0");
  }
  if (slots_ == 0 || slots_ > kMaxSlots || dim_ == 0) {
    throw std::invalid_argument(
        "StreamingLof: a look-back needs 1..65535 slots of dimension > 0");
  }
  dmat_.assign(slots_ * slots_, kDiagonal);
  kdist_.assign(slots_, 0.0);
  // Scoring needs more than k live points, so a selection never holds
  // more than slots of them.
  kbuf_.assign(std::min(cfg_.k_neighbors, slots_), 0.0);
}

void StreamingLof::push(LofRing& ring, double* pts,
                        std::span<const double> point) const {
  if (point.size() != dim_) {
    throw std::invalid_argument("StreamingLof: point of the wrong dimension");
  }
  if (ring.size == slots_) {
    throw std::length_error("StreamingLof: push onto a full look-back");
  }
  // The whole push: copy the point into its slot. The slot's stale
  // contents from an earlier occupant need no scrubbing — every score
  // derives from live slots only.
  std::copy_n(point.data(), dim_, pts + slot(ring, ring.size) * dim_);
  ++ring.size;
}

void StreamingLof::pop_front(LofRing& ring) const noexcept {
  if (ring.size == 0) return;
  ring.head = static_cast<std::uint16_t>(slot(ring, 1));
  --ring.size;
}

void StreamingLof::build_matrix(const LofRing& ring, const double* pts) {
  std::fill(dmat_.begin(), dmat_.end(), kDiagonal);
  const double* __restrict P = pts;
  double* __restrict D = dmat_.data();
  for (std::size_t a = 1; a < ring.size; ++a) {
    const std::size_t i = slot(ring, a);
    const double* pi = P + i * dim_;
    std::size_t j = ring.head;  // increment-wrap through the older slots
    for (std::size_t b = 0; b < a; ++b) {
      const double d =
          std::max(kFloorSq, squared_distance(pi, P + j * dim_, dim_));
      D[i * slots_ + j] = d;
      D[j * slots_ + i] = d;
      if (++j == slots_) j = 0;
    }
  }
}

double StreamingLof::kth_of_row(std::size_t i) {
  const std::size_t k = cfg_.k_neighbors;
  const double* __restrict row = dmat_.data() + i * slots_;
  double* __restrict buf = kbuf_.data();
  // Streaming k-smallest over the full row via a branch-free insertion
  // network; the sentinel on the diagonal and dead cells sorts past every
  // real distance, and can never be the k-th smallest while more than k
  // points are live.
  for (std::size_t p = 0; p < k; ++p) buf[p] = kDiagonal;
  for (std::size_t j = 0; j < slots_; ++j) {
    double d = row[j];
    for (std::size_t p = 0; p < k; ++p) {
      const double lo = std::min(buf[p], d);
      d = std::max(buf[p], d);
      buf[p] = lo;
    }
  }
  return buf[k - 1];
}

std::pair<double, std::size_t> StreamingLof::density_of(
    std::size_t i) const noexcept {
  // Restrict-qualified locals: the buffers provably never alias, but the
  // compiler cannot see that through `this`. Reach distances are summed
  // in slot rather than distance order — addition reordering only, within
  // the documented FP tolerance of the batch scorer. The arithmetic mask
  // adds an exact 0.0 for excluded slots (diagonal and dead cells carry
  // the sentinel), so included terms are bit-identical to a branchy
  // gather.
  const double* __restrict row = dmat_.data() + i * slots_;
  const double* __restrict kds = kdist_.data();
  const double kd = kds[i];
  double reach = 0.0;
  std::size_t nn = 0;
  for (std::size_t j = 0; j < slots_; ++j) {
    const double d = row[j];
    const bool in = d <= kd;
    // sqrt(max(sq_a, sq_b)) == max(a, b); masked slots add an exact 0.0
    // (the sentinel's sqrt is finite, and `in` is 0).
    reach += static_cast<double>(in) * std::sqrt(std::max(kds[j], d));
    nn += in;
  }
  return {static_cast<double>(nn) / std::max(reach, kLofDistanceFloor), nn};
}

double StreamingLof::last_score(const LofRing& ring, const double* pts) {
  const std::size_t k = cfg_.k_neighbors;
  // Reference = everything but the newest point; <= k of those is the
  // batch scorer's neutral regime.
  if (ring.size == 0 || ring.size - 1u <= k) return 1.0;
  build_matrix(ring, pts);
  // Zero keeps dead slots finite for the masked reach arithmetic; their
  // sentinel distances never pass a k-distance gate.
  std::fill(kdist_.begin(), kdist_.end(), 0.0);
  for (std::size_t a = 0; a < ring.size; ++a) {
    const std::size_t i = slot(ring, a);
    kdist_[i] = kth_of_row(i);
  }
  const std::size_t q = slot(ring, ring.size - 1u);
  const double* __restrict row = dmat_.data() + q * slots_;
  const double kd = kdist_[q];
  // Only the newest point's own density and its neighbors' densities feed
  // the score, so compute just those. The sweep covers every slot: the
  // diagonal and dead cells carry the sentinel and can never pass the
  // k-distance gate.
  const auto [lrd_q, nn_q] = density_of(q);
  double ratio_sum = 0.0;
  for (std::size_t m = 0; m < slots_; ++m) {
    if (row[m] <= kd) ratio_sum += density_of(m).first / lrd_q;
  }
  return ratio_sum / static_cast<double>(nn_q);
}

}  // namespace skh::ml
