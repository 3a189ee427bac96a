#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <span>

#include "common/rng.h"
#include "support/reference_kernels.h"

namespace skh::dsp {
namespace {

std::vector<double> sine(std::size_t n, double cycles, double amp = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = amp * std::sin(2.0 * std::numbers::pi * cycles *
                          static_cast<double>(i) / static_cast<double>(n));
  }
  return v;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(3);
  EXPECT_THROW(fft_inplace(data), std::invalid_argument);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(900), 1024u);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> data(8, Complex{});
  data[0] = Complex{1.0, 0.0};
  fft_inplace(data);
  for (const auto& x : data) {
    EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
  }
}

TEST(Fft, InverseRecoversSignal) {
  RngStream rng{1};
  std::vector<Complex> data(64);
  std::vector<Complex> orig(64);
  for (auto i = 0u; i < 64; ++i) {
    data[i] = Complex{rng.normal(0, 1), rng.normal(0, 1)};
    orig[i] = data[i];
  }
  fft_inplace(data);
  fft_inplace(data, /*inverse=*/true);
  for (auto i = 0u; i < 64; ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, MatchesReferenceDft) {
  RngStream rng{2};
  std::vector<double> sig(32);
  for (auto& x : sig) x = rng.normal(0, 1);
  const auto fast = fft_real(sig);
  const auto slow = dft_real(sig);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8);
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8);
  }
}

TEST(Fft, SinePeaksAtItsFrequencyBin) {
  const auto sig = sine(128, 16.0);
  const auto spec = fft_real(sig);
  const auto mags = magnitude_spectrum(spec);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] > mags[peak]) peak = k;
  }
  EXPECT_EQ(peak, 16u);
}

TEST(Fft, ParsevalHolds) {
  RngStream rng{3};
  std::vector<double> sig(64);
  for (auto& x : sig) x = rng.uniform(-1, 1);
  const auto spec = fft_real(sig);
  double time_energy = 0.0;
  for (double x : sig) time_energy += x * x;
  double freq_energy = 0.0;
  for (const auto& X : spec) freq_energy += std::norm(X);
  EXPECT_NEAR(freq_energy / 64.0, time_energy, 1e-8);
}

TEST(Xcorr, RejectsSizeMismatch) {
  const std::vector<double> a(8, 1.0);
  const std::vector<double> b(4, 1.0);
  EXPECT_THROW(circular_xcorr(a, b), std::invalid_argument);
}

TEST(Xcorr, SelfCorrelationPeaksAtZero) {
  const auto sig = sine(64, 5.0);
  EXPECT_EQ(best_lag(sig, sig), 0);
}

class LagSweep : public ::testing::TestWithParam<int> {};

TEST_P(LagSweep, RecoverShift) {
  // b = a delayed by `shift` samples (circularly).
  const int shift = GetParam();
  const std::size_t n = 128;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A non-sinusoidal pulse train so the lag is unambiguous.
    a[i] = (i % 16 < 3) ? 1.0 : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[(i + static_cast<std::size_t>(shift)) % n] = a[i];
  }
  // Pulse train period is 16, so lags are recoverable modulo 16; all tested
  // shifts stay below that.
  EXPECT_EQ(best_lag(a, b), shift);
}

INSTANTIATE_TEST_SUITE_P(Shifts, LagSweep, ::testing::Values(0, 1, 2, 5, 7));

template <class T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(FftReference, StageTwiddlesMatchThePerBlockRecurrenceBitForBit) {
  RngStream rng{11};
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    std::vector<Complex> data(n);
    for (auto& x : data) x = Complex{rng.normal(0, 1), rng.normal(0, 1)};
    for (const bool inverse : {false, true}) {
      auto fast = data;
      auto slow = data;
      fft_inplace(fast, inverse);
      reference::fft_inplace(slow, inverse);
      EXPECT_TRUE(same_bits<Complex>(fast, slow))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(XcorrReference, SpectrumFormMatchesPairwiseTransformsBitForBit) {
  // 900 samples: the 15-minute, 1 Hz burst series inference correlates.
  RngStream rng{12};
  const std::size_t n = 900;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<double> a(n), b(n);
    const auto shift = static_cast<std::size_t>(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = ((i % 30) > 24 ? 15.0 : 2.0) + rng.normal(0, 0.5);
    }
    for (std::size_t i = 0; i < n; ++i) {
      b[(i + shift) % n] = a[i] + rng.normal(0, trial % 4 == 0 ? 5.0 : 0.3);
    }
    const auto want = reference::circular_xcorr(a, b);
    const auto fa = fft_real(a);
    const auto fb = fft_real(b);
    EXPECT_TRUE(same_bits<double>(circular_xcorr(a, b), want)) << trial;
    EXPECT_TRUE(same_bits<double>(circular_xcorr(fa, fb, n), want)) << trial;
    EXPECT_EQ(best_lag(a, b), reference::best_lag(a, b)) << trial;
    EXPECT_EQ(best_lag(fa, fb, n), reference::best_lag(a, b)) << trial;
  }
}

TEST(Xcorr, SpectrumFormRejectsMismatchedSpectra) {
  const std::vector<Complex> a(8), b(16), odd(12);
  EXPECT_THROW((void)circular_xcorr(a, b, 8), std::invalid_argument);
  EXPECT_THROW((void)circular_xcorr(odd, odd, 12), std::invalid_argument);
  EXPECT_THROW((void)circular_xcorr(a, a, 9), std::invalid_argument);
}

}  // namespace
}  // namespace skh::dsp
