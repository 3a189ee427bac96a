#include "core/fidelity.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "dsp/fft.h"

namespace skh::core {

double burstiness(std::span<const double> series) {
  if (series.empty()) return 0.0;
  double mean = 0.0;
  double peak = 0.0;
  for (double v : series) {
    mean += v;
    peak = std::max(peak, v);
  }
  mean /= static_cast<double>(series.size());
  if (mean <= 1e-9) return 0.0;
  return peak / mean;
}

namespace {

/// An endpoint counts as "actively training" when its peak throughput
/// reaches this level (idle/debug endpoints never leave noise range)...
constexpr double kMinPeakGbps = 5.0;
/// ...and its peak/mean ratio shows burst structure rather than a flat
/// constant load.
constexpr double kMinBurstiness = 2.0;
/// Minimum cross-correlation (at the best lag) between paired endpoints'
/// series for the pair to count as aligned.
constexpr double kMinPairCorrelation = 0.35;

/// Writes the fft_real spectrum of `series` minus its mean into `spectrum`
/// (sized next_pow2(series.size())) and returns the demeaned sum of squares:
/// everything best_correlation needs of one side of a pair.
double demeaned_spectrum(std::span<const double> series,
                         std::span<dsp::Complex> spectrum) {
  const std::size_t n = series.size();
  double mean = 0.0;
  for (double v : series) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = series[i] - mean;
    spectrum[i] = dsp::Complex{d, 0.0};
    var += d * d;
  }
  std::fill(spectrum.begin() + static_cast<std::ptrdiff_t>(n), spectrum.end(),
            dsp::Complex{});
  dsp::fft_inplace(spectrum);
  return var;
}

/// best_correlation of two n-sample series from their demeaned spectra and
/// sums of squares.
double correlation_peak(std::span<const dsp::Complex> fa, double va,
                        std::span<const dsp::Complex> fb, double vb,
                        std::size_t n) {
  if (va <= 1e-12 || vb <= 1e-12) return 0.0;
  // Max over lags of the circular cross-correlation, normalized.
  const auto corr = dsp::circular_xcorr(fa, fb, n);
  double best = 0.0;
  for (double c : corr) best = std::max(best, c);
  return best / std::sqrt(va * vb);
}

}  // namespace

double best_correlation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const std::size_t padded = dsp::next_pow2(a.size());
  std::vector<dsp::Complex> fa(padded), fb(padded);
  const double va = demeaned_spectrum(a, fa);
  const double vb = demeaned_spectrum(b, fb);
  return correlation_peak(fa, va, fb, vb, a.size());
}

FidelityReport validate_skeleton(
    const std::vector<EndpointPair>& skeleton_pairs,
    const std::vector<EndpointObservation>& observations) {
  FidelityReport rep;
  if (observations.empty()) return rep;

  std::map<Endpoint, const EndpointObservation*> by_endpoint;
  std::set<Endpoint> active;
  for (const auto& o : observations) {
    by_endpoint[o.endpoint] = &o;
    const double peak =
        o.throughput.empty()
            ? 0.0
            : *std::max_element(o.throughput.begin(), o.throughput.end());
    if (peak >= kMinPeakGbps && burstiness(o.throughput) >= kMinBurstiness) {
      active.insert(o.endpoint);
    }
  }
  rep.active_fraction = static_cast<double>(active.size()) /
                        static_cast<double>(observations.size());

  // Pair alignment: paired endpoints' series should correlate. A run of
  // pairs that share a source (skeleton pairs come sorted) transforms the
  // source once. Only two spectra are live at a time: every endpoint's
  // would be 2 MB at 128 endpoints, held through set-up.
  std::size_t aligned = 0;
  std::size_t judged = 0;
  std::set<Endpoint> covered;
  std::vector<dsp::Complex> src_spectrum, dst_spectrum;
  const EndpointObservation* src = nullptr;  // whose spectrum src_spectrum is
  double src_var = 0.0;
  for (const auto& p : skeleton_pairs) {
    const auto sit = by_endpoint.find(p.src);
    const auto dit = by_endpoint.find(p.dst);
    if (sit == by_endpoint.end() || dit == by_endpoint.end()) continue;
    covered.insert(p.src);
    covered.insert(p.dst);
    ++judged;
    const auto& a = sit->second->throughput;
    const auto& b = dit->second->throughput;
    double corr = 0.0;
    if (!a.empty() && a.size() == b.size()) {
      const std::size_t padded = dsp::next_pow2(a.size());
      if (sit->second != src) {
        src_spectrum.resize(padded);
        src_var = demeaned_spectrum(a, src_spectrum);
        src = sit->second;
      }
      dst_spectrum.resize(padded);
      const double dst_var = demeaned_spectrum(b, dst_spectrum);
      corr = correlation_peak(src_spectrum, src_var, dst_spectrum, dst_var,
                              a.size());
    }
    if (corr >= kMinPairCorrelation) ++aligned;
  }
  rep.pair_alignment =
      judged == 0 ? 0.0
                  : static_cast<double>(aligned) / static_cast<double>(judged);

  // Active coverage: every training endpoint must be probed by something.
  if (!active.empty()) {
    std::size_t hit = 0;
    for (const Endpoint& e : active) {
      if (covered.contains(e)) ++hit;
    }
    rep.active_coverage =
        static_cast<double>(hit) / static_cast<double>(active.size());
  } else {
    rep.active_coverage = 0.0;
  }

  // An idle cluster (§7.3's debug case) yields no trustworthy skeleton.
  rep.score = rep.active_fraction < 0.25
                  ? 0.0
                  : std::min(rep.pair_alignment, rep.active_coverage);
  return rep;
}

}  // namespace skh::core
