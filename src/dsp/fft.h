// Fourier transforms.
//
// Traffic-skeleton inference converts each RNIC's throughput burst series to
// the frequency domain (§5.1). The paper evaluated STFT, plain DFT, and
// wavelets; we provide all three (the latter two for the ablation bench).
// The FFT is an in-place iterative radix-2 Cooley-Tukey over power-of-two
// sizes; `dft` is the O(n^2) reference used for arbitrary sizes and testing.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace skh::dsp {

using Complex = std::complex<double>;

/// True iff n is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// In-place radix-2 FFT. `data.size()` must be a power of two.
/// `inverse` applies the conjugate transform and 1/N scaling.
void fft_inplace(std::span<Complex> data, bool inverse = false);

/// Forward FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum (length = padded size).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> signal);

/// Reference O(n^2) DFT of a real signal (no padding). Used in tests and as
/// the paper's "plain DFT" ablation alternative.
[[nodiscard]] std::vector<Complex> dft_real(std::span<const double> signal);

/// Magnitude spectrum |X[k]| for k in [0, N/2] (one-sided).
[[nodiscard]] std::vector<double> magnitude_spectrum(
    std::span<const Complex> spectrum);

/// Cross-correlation of two equal-length real signals via FFT. Both are
/// zero-padded to P = next_pow2(N) and correlated over P samples:
///   result[lag] = sum_t a[t] * b_P[(t + lag) mod P],  lag in [0, N),
/// where b_P is b zero-padded to P. For a power-of-two N this is the
/// N-periodic circular correlation. For any other N the lags in [N, P),
/// which hold b's negative shifts, are not returned. Throws
/// std::invalid_argument on a size mismatch.
[[nodiscard]] std::vector<double> circular_xcorr(std::span<const double> a,
                                                 std::span<const double> b);

/// The same correlation from precomputed spectra: `fa` and `fb` are the
/// fft_real spectra of two n-sample signals, and the result holds the first
/// `n` real values of IFFT(conj(fa) * fb). Callers that correlate one
/// series against many transform it once. Throws std::invalid_argument
/// unless both spectra have one power-of-two size of at least n.
[[nodiscard]] std::vector<double> circular_xcorr(std::span<const Complex> fa,
                                                 std::span<const Complex> fb,
                                                 std::size_t n);

/// Lag of b behind a (§5.1 orders pipeline stages by burst time shifts):
/// the index of the first maximum of circular_xcorr(a, b), read as if the
/// correlation were N-periodic, so an index >= N/2 reads as index - N and
/// the result lies in [-N/2, N/2). Exact when N is a power of two. For
/// other N a negative shift of b sits among the dropped lags, so the result
/// is whichever returned lag correlates best instead. One aperiodic pulse
/// train read shifts of -3 and -7 as +62 and +58 at 900 samples (padded to
/// 1024), and exactly at 128 samples.
[[nodiscard]] int best_lag(std::span<const double> a,
                           std::span<const double> b);

/// best_lag from precomputed spectra, as circular_xcorr above.
[[nodiscard]] int best_lag(std::span<const Complex> fa,
                           std::span<const Complex> fb, std::size_t n);

}  // namespace skh::dsp
