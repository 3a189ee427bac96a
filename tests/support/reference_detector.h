// Batch reference for the §5.2 anomaly detector: the verdicts of
// core::AnomalyDetector, recomputed from retained raw samples.
//
// Per pair it keeps every delivered RTT of the open short and long windows
// and the look-back as a list of feature vectors. Every short-window close
// copies and sorts the window's samples and refits LOF over the look-back
// from scratch (`ml::lof_score_of`); every long-window close fits the
// log-normal and runs the Z-test over the raw long-window samples
// (`ml::fit_lognormal`, `ml::z_test`). Each ingest resolves its pair with
// a hash lookup. None of the production detector's incremental state
// (sample strips, resident LOF model, median ring, log-domain moments) is
// reused, so the differential suites in tests/core and
// bench_anomaly_throughput compare two independent computations of the
// same rules. Per-path sub-series, churn retirement, snapshots, the window
// log and observability are left out: no differential check needs them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/flat_table.h"
#include "common/ids.h"
#include "common/time.h"
#include "core/anomaly.h"
#include "ml/stats_tests.h"

namespace skh::testutil {

class ReferenceDetector {
 public:
  explicit ReferenceDetector(core::DetectorConfig cfg = {});

  /// Feed one observation of `pair`; events it fired are appended to
  /// `out`. Returns how many. Same rejection and window rules as
  /// core::AnomalyDetector::ingest.
  std::size_t ingest(const EndpointPair& pair, const core::Observation& o,
                     std::vector<core::AnomalyEvent>& out);

  /// Close every window that reached its span by `now`, in pair discovery
  /// order, and return the events.
  [[nodiscard]] std::vector<core::AnomalyEvent> flush(SimTime now);

  /// Window and rejection accounting; the LOF path split stays zero (no
  /// incremental model here).
  [[nodiscard]] const core::DetectorCounters& counters() const noexcept {
    return counters_;
  }

 private:
  struct PairState {
    EndpointPair pair;
    SimTime short_start;
    SimTime long_start;
    bool short_open = false;
    bool long_open = false;
    std::uint64_t last_seq = 0;
    SimTime last_sent;
    std::uint32_t short_sent = 0;
    std::uint32_t short_lost = 0;
    int fail_streak = 0;
    bool unreachable_alarmed = false;
    std::vector<double> short_rtts;
    std::vector<double> long_rtts;
    std::deque<std::vector<double>> lookback;
    std::optional<ml::LogNormalModel> baseline;
  };

  void close_short_window(PairState& p, SimTime at,
                          std::vector<core::AnomalyEvent>& out);
  void close_long_window(PairState& p, SimTime at,
                         std::vector<core::AnomalyEvent>& out);

  core::DetectorConfig cfg_;
  common::FlatPairTable index_;
  std::vector<PairState> pairs_;  ///< by table id (discovery order)
  core::DetectorCounters counters_;
};

}  // namespace skh::testutil
