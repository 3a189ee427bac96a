#include "dsp/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace skh::dsp {

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft_inplace: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  // Iterative butterflies. A stage's twiddles are filled once, by the
  // w *= wlen recurrence that each of its blocks would otherwise rerun, so
  // every block multiplies by the same values bit for bit.
  std::vector<Complex> twiddles(n / 2);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1.0 : -1.0);
    const Complex wlen{std::cos(angle), std::sin(angle)};
    Complex w{1.0, 0.0};
    for (std::size_t k = 0; k < half; ++k) {
      twiddles[k] = w;
      w *= wlen;
    }
    for (Complex* lo = data.data(); lo != data.data() + n; lo += len) {
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex v = hi[k] * twiddles[k];
        hi[k] = lo[k] - v;
        lo[k] += v;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<Complex> fft_real(std::span<const double> signal) {
  const std::size_t padded = next_pow2(std::max<std::size_t>(signal.size(), 1));
  std::vector<Complex> data(padded, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i) data[i] = Complex{signal[i], 0.0};
  fft_inplace(data);
  return data;
}

std::vector<Complex> dft_real(std::span<const double> signal) {
  const std::size_t n = signal.size();
  std::vector<Complex> out(n, Complex{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += signal[t] * Complex{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> magnitude_spectrum(std::span<const Complex> spectrum) {
  const std::size_t half = spectrum.size() / 2 + 1;
  std::vector<double> mags(half);
  for (std::size_t k = 0; k < half; ++k) mags[k] = std::abs(spectrum[k]);
  return mags;
}

std::vector<double> circular_xcorr(std::span<const Complex> fa,
                                   std::span<const Complex> fb,
                                   std::size_t n) {
  if (fa.size() != fb.size() || !is_pow2(fa.size()) || n > fa.size()) {
    throw std::invalid_argument("circular_xcorr: spectra do not match");
  }
  std::vector<Complex> prod(fa.size());
  for (std::size_t i = 0; i < prod.size(); ++i) {
    prod[i] = std::conj(fa[i]) * fb[i];
  }
  fft_inplace(prod, /*inverse=*/true);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = prod[i].real();
  return out;
}

std::vector<double> circular_xcorr(std::span<const double> a,
                                   std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("circular_xcorr: size mismatch");
  }
  return circular_xcorr(fft_real(a), fft_real(b), a.size());
}

namespace {

/// Index of the first maximum of `corr`, read as a signed lag in
/// [-n/2, n/2) of an n-periodic correlation, n = corr.size().
int signed_peak_lag(const std::vector<double>& corr) {
  const std::size_t n = corr.size();
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (corr[i] > corr[best]) best = i;
  }
  auto lag = static_cast<long>(best);
  if (lag >= static_cast<long>(n / 2)) lag -= static_cast<long>(n);
  return static_cast<int>(lag);
}

}  // namespace

int best_lag(std::span<const Complex> fa, std::span<const Complex> fb,
             std::size_t n) {
  return signed_peak_lag(circular_xcorr(fa, fb, n));
}

int best_lag(std::span<const double> a, std::span<const double> b) {
  return signed_peak_lag(circular_xcorr(a, b));
}

}  // namespace skh::dsp
