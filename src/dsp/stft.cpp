#include "dsp/stft.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"

namespace skh::dsp {

Spectrogram stft(std::span<const double> signal, const StftConfig& cfg) {
  if (!is_pow2(cfg.frame_size)) {
    throw std::invalid_argument("stft: frame_size must be a power of two");
  }
  if (cfg.hop == 0) throw std::invalid_argument("stft: hop must be > 0");

  Spectrogram out;
  out.frame_size = cfg.frame_size;
  out.hop = cfg.hop;
  const auto window = make_window(cfg.window, cfg.frame_size);

  std::vector<Complex> frame(cfg.frame_size);
  for (std::size_t start = 0; start < signal.size(); start += cfg.hop) {
    const std::size_t avail = std::min(cfg.frame_size, signal.size() - start);
    // Demean the frame before windowing: mean throughput reflects message
    // sizes, not periodicity, and would otherwise leak through the window
    // into the low bins.
    double mean = 0.0;
    for (std::size_t i = 0; i < avail; ++i) mean += signal[start + i];
    if (avail > 0) mean /= static_cast<double>(avail);
    for (std::size_t i = 0; i < avail; ++i) {
      frame[i] = Complex{(signal[start + i] - mean) * window[i], 0.0};
    }
    std::fill(frame.begin() + static_cast<std::ptrdiff_t>(avail), frame.end(),
              Complex{});
    fft_inplace(frame);
    std::vector<double> mags(cfg.frame_size / 2 + 1);
    for (std::size_t k = 0; k < mags.size(); ++k) mags[k] = std::abs(frame[k]);
    out.frames.push_back(std::move(mags));
    if (start + cfg.frame_size >= signal.size()) break;
  }
  return out;
}

std::vector<double> stft_feature(const Spectrogram& spec) {
  if (spec.frames.empty()) return {};
  std::vector<double> feat(spec.num_bins(), 0.0);
  for (const auto& frame : spec.frames) {
    for (std::size_t k = 0; k < feat.size(); ++k) feat[k] += frame[k];
  }
  // Drop the DC bin from the similarity signal: it only encodes mean
  // throughput, which differs with message sizes even within one
  // parallelism group. Periodicity lives in the non-DC bins.
  if (!feat.empty()) feat[0] = 0.0;
  double norm = 0.0;
  for (double v : feat) norm += v * v;
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& v : feat) v /= norm;
  }
  return feat;
}

std::vector<double> stft_feature(std::span<const double> signal,
                                 const StftConfig& cfg) {
  return stft_feature(stft(signal, cfg));
}

double cosine_similarity(std::span<const double> a,
                         std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("cosine_similarity: size mismatch");
  }
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace skh::dsp
