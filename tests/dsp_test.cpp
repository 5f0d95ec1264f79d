// Tests for the DSP library: windows, FFT, STFT, Welch PSD, Morlet CWT,
// filters and spectral features.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/spectrum.h"
#include "dsp/stft.h"
#include "dsp/wavelet.h"
#include "dsp/window.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sid::dsp {
namespace {

std::vector<double> make_tone(double freq_hz, double fs, std::size_t n,
                              double amplitude = 1.0, double phase = 0.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(2.0 * std::numbers::pi * freq_hz *
                                      static_cast<double>(i) / fs +
                                  phase);
  }
  return out;
}

// ---------------------------------------------------------------- window

TEST(WindowTest, RectangularIsAllOnes) {
  const auto w = make_window(WindowType::kRectangular, 8);
  for (double v : w) EXPECT_EQ(v, 1.0);
}

TEST(WindowTest, HannStartsAtZeroPeaksAtCentre) {
  const auto w = make_window(WindowType::kHann, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);  // periodic window peaks at n/2
}

TEST(WindowTest, HammingEndsAboveZero) {
  const auto w = make_window(WindowType::kHamming, 64);
  EXPECT_NEAR(w[0], 0.08, 1e-12);
}

TEST(WindowTest, BlackmanNonNegative) {
  const auto w = make_window(WindowType::kBlackman, 128);
  for (double v : w) EXPECT_GE(v, -1e-12);
}

TEST(WindowTest, WindowPowerMatchesManualSum) {
  const auto w = make_window(WindowType::kHann, 32);
  double sum = 0.0;
  for (double v : w) sum += v * v;
  EXPECT_NEAR(window_power(w), sum, 1e-12);
}

TEST(WindowTest, ApplyWindowSizeMismatchThrows) {
  const auto w = make_window(WindowType::kHann, 8);
  const std::vector<double> frame(9, 1.0);
  EXPECT_THROW(apply_window(frame, w), util::InvalidArgument);
}

TEST(WindowTest, ZeroLengthThrows) {
  EXPECT_THROW(make_window(WindowType::kHann, 0), util::InvalidArgument);
}

TEST(WindowTest, NamesAreStable) {
  EXPECT_STREQ(window_name(WindowType::kHann), "hann");
  EXPECT_STREQ(window_name(WindowType::kRectangular), "rectangular");
}

// ---------------------------------------------------------------- fft

TEST(FftTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(1000));
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  EXPECT_EQ(next_power_of_two(1), 1u);
}

TEST(FftTest, NonPowerOfTwoThrows) {
  std::vector<std::complex<double>> data(100);
  EXPECT_THROW(fft_inplace(data), util::InvalidArgument);
}

TEST(FftTest, DeltaHasFlatSpectrum) {
  std::vector<double> delta(64, 0.0);
  delta[0] = 1.0;
  const auto spec = fft_real(delta);
  for (const auto& bin : spec) {
    EXPECT_NEAR(std::abs(bin), 1.0, 1e-12);
  }
}

TEST(FftTest, PureToneLandsInOneBin) {
  constexpr std::size_t kN = 512;
  constexpr double kFs = 50.0;
  // Bin 32 -> 32 * 50 / 512 = 3.125 Hz exactly on a bin.
  const auto tone = make_tone(bin_frequency(32, kN, kFs), kFs, kN);
  const auto power = power_spectrum(tone);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[peak]) peak = k;
  }
  EXPECT_EQ(peak, 32u);
  // Energy elsewhere is negligible.
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (k != 32) {
      EXPECT_LT(power[k], power[32] * 1e-12);
    }
  }
}

TEST(FftTest, RoundTripRecoversSignal) {
  util::Rng rng(99);
  std::vector<std::complex<double>> data(256);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto original = data;
  fft_inplace(data);
  ifft_inplace(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(FftTest, ParsevalHolds) {
  util::Rng rng(7);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.normal();
  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;
  const auto spec = fft_real(x);
  double freq_energy = 0.0;
  for (const auto& bin : spec) freq_energy += std::norm(bin);
  freq_energy /= static_cast<double>(x.size());
  EXPECT_NEAR(freq_energy, time_energy, time_energy * 1e-10);
}

TEST(FftTest, LinearityOfSpectrum) {
  const auto a = make_tone(2.0, 50.0, 256);
  const auto b = make_tone(5.0, 50.0, 256);
  std::vector<double> sum(256);
  for (std::size_t i = 0; i < 256; ++i) sum[i] = a[i] + b[i];
  const auto sa = fft_real(a);
  const auto sb = fft_real(b);
  const auto ss = fft_real(sum);
  for (std::size_t k = 0; k < ss.size(); ++k) {
    EXPECT_NEAR(std::abs(ss[k] - sa[k] - sb[k]), 0.0, 1e-9);
  }
}

TEST(FftTest, BinFrequencyScalesWithRate) {
  EXPECT_NEAR(bin_frequency(1, 2048, 50.0), 50.0 / 2048.0, 1e-15);
  EXPECT_NEAR(bin_frequency(1024, 2048, 50.0), 25.0, 1e-12);
}

// ---------------------------------------------------------------- stft

TEST(StftTest, FrameCountMatchesHop) {
  StftConfig cfg;
  cfg.frame_size = 256;
  cfg.hop = 128;
  const auto sig = make_tone(3.0, 50.0, 1024);
  const auto spec = stft(sig, cfg);
  // Frames start at 0,128,...,768 -> 7 frames.
  EXPECT_EQ(spec.frames.size(), 7u);
  EXPECT_EQ(spec.bins(), 129u);
}

TEST(StftTest, FrameTimesAreAnchored) {
  StftConfig cfg;
  cfg.frame_size = 256;
  cfg.hop = 256;
  cfg.sample_rate_hz = 50.0;
  const auto sig = make_tone(3.0, 50.0, 512);
  const auto spec = stft(sig, cfg);
  ASSERT_EQ(spec.frames.size(), 2u);
  EXPECT_NEAR(spec.frames[0].start_time_s, 0.0, 1e-12);
  EXPECT_NEAR(spec.frames[1].start_time_s, 256.0 / 50.0, 1e-12);
  EXPECT_NEAR(spec.frames[0].center_time_s, 128.0 / 50.0, 1e-12);
}

TEST(StftTest, DetectsToneInCorrectBin) {
  StftConfig cfg;
  cfg.frame_size = 512;
  cfg.hop = 512;
  const double f = bin_frequency(40, 512, 50.0);
  const auto sig = make_tone(f, 50.0, 512);
  const auto spec = stft(sig, cfg);
  const auto& power = spec.frames[0].power;
  std::size_t peak = 1;
  for (std::size_t k = 2; k < power.size(); ++k) {
    if (power[k] > power[peak]) peak = k;
  }
  EXPECT_EQ(peak, 40u);
  EXPECT_NEAR(spec.frequency(peak), f, 1e-9);
}

TEST(StftTest, ShortSignalThrows) {
  StftConfig cfg;
  cfg.frame_size = 512;
  const auto sig = make_tone(3.0, 50.0, 100);
  EXPECT_THROW(stft(sig, cfg), util::InvalidArgument);
}

TEST(StftTest, BadConfigThrows) {
  const auto sig = make_tone(3.0, 50.0, 1024);
  StftConfig bad_frame;
  bad_frame.frame_size = 1000;
  EXPECT_THROW(stft(sig, bad_frame), util::InvalidArgument);
  StftConfig bad_hop;
  bad_hop.hop = 0;
  EXPECT_THROW(stft(sig, bad_hop), util::InvalidArgument);
}

TEST(StftTest, WindowNormalizationKeepsTonePowerComparable) {
  // The same tone analyzed with different windows should give peak power
  // of the same order of magnitude (normalization by window power).
  const double f = bin_frequency(40, 512, 50.0);
  const auto sig = make_tone(f, 50.0, 512);
  const auto hann = frame_power_spectrum(sig, WindowType::kHann);
  const auto rect = frame_power_spectrum(sig, WindowType::kRectangular);
  const double peak_hann = *std::max_element(hann.begin(), hann.end());
  const double peak_rect = *std::max_element(rect.begin(), rect.end());
  EXPECT_GT(peak_hann / peak_rect, 0.2);
  EXPECT_LT(peak_hann / peak_rect, 5.0);
}

// ---------------------------------------------------------------- welch

TEST(WelchTest, WhiteNoisePsdIsFlat) {
  util::Rng rng(5);
  std::vector<double> noise(50000);
  for (auto& v : noise) v = rng.normal();
  WelchConfig cfg;
  cfg.segment_size = 512;
  cfg.overlap = 256;
  cfg.sample_rate_hz = 50.0;
  const auto psd = welch_psd(noise, cfg);
  // Unit-variance white noise at 50 Hz -> PSD = 1/25 = 0.04 per Hz.
  const double expected = 1.0 / 25.0;
  double mean_psd = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 5; k + 5 < psd.psd.size(); ++k) {
    mean_psd += psd.psd[k];
    ++count;
  }
  mean_psd /= static_cast<double>(count);
  EXPECT_NEAR(mean_psd, expected, expected * 0.1);
}

TEST(WelchTest, TotalPowerMatchesVariance) {
  util::Rng rng(6);
  std::vector<double> noise(40000);
  for (auto& v : noise) v = rng.normal(0.0, 2.0);
  WelchConfig cfg;
  const auto psd = welch_psd(noise, cfg);
  const double band = psd.band_power(0.0, 25.0);
  EXPECT_NEAR(band, 4.0, 0.5);
}

TEST(WelchTest, PeakFrequencyFindsTone) {
  auto sig = make_tone(2.5, 50.0, 20000);
  WelchConfig cfg;
  cfg.segment_size = 1024;
  const auto psd = welch_psd(sig, cfg);
  EXPECT_NEAR(psd.peak_frequency_hz(), 2.5, 0.1);
}

TEST(WelchTest, ShortSignalThrows) {
  const std::vector<double> sig(100, 0.0);
  WelchConfig cfg;
  cfg.segment_size = 1024;
  EXPECT_THROW(welch_psd(sig, cfg), util::InvalidArgument);
}

// ---------------------------------------------------------------- cwt

TEST(CwtTest, FrequenciesAreLogSpacedAscending) {
  CwtConfig cfg;
  cfg.min_frequency_hz = 0.1;
  cfg.max_frequency_hz = 5.0;
  cfg.num_scales = 16;
  const auto freqs = cwt_frequencies(cfg);
  ASSERT_EQ(freqs.size(), 16u);
  EXPECT_NEAR(freqs.front(), 0.1, 1e-9);
  EXPECT_NEAR(freqs.back(), 5.0, 1e-9);
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    EXPECT_GT(freqs[i], freqs[i - 1]);
    // Constant ratio.
    if (i >= 2) {
      EXPECT_NEAR(freqs[i] / freqs[i - 1], freqs[i - 1] / freqs[i - 2], 1e-9);
    }
  }
}

TEST(CwtTest, DominantFrequencyMatchesTone) {
  CwtConfig cfg;
  cfg.min_frequency_hz = 0.1;
  cfg.max_frequency_hz = 5.0;
  cfg.num_scales = 48;
  const auto sig = make_tone(0.8, 50.0, 4096);
  const auto scalogram = cwt_morlet(sig, cfg);
  EXPECT_NEAR(scalogram.dominant_frequency(), 0.8, 0.1);
}

TEST(CwtTest, BandEnergySeparatesTwoTones) {
  CwtConfig cfg;
  cfg.min_frequency_hz = 0.1;
  cfg.max_frequency_hz = 8.0;
  cfg.num_scales = 48;
  auto sig = make_tone(0.5, 50.0, 4096, 1.0);
  const auto high = make_tone(4.0, 50.0, 4096, 1.0);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] += high[i];
  const auto scalogram = cwt_morlet(sig, cfg);
  const double low_band = scalogram.band_energy(0.2, 1.0);
  const double high_band = scalogram.band_energy(2.0, 8.0);
  EXPECT_GT(low_band, 0.0);
  EXPECT_GT(high_band, 0.0);
  // Both tones should carry comparable energy, and together dominate.
  const double total = scalogram.total_energy();
  EXPECT_GT((low_band + high_band) / total, 0.8);
}

TEST(CwtTest, LocalizesTransientInTime) {
  // A burst in the middle of the record should put its scale energy
  // there.
  std::vector<double> sig(4096, 0.0);
  for (std::size_t i = 2000; i < 2100; ++i) {
    sig[i] = std::sin(2.0 * std::numbers::pi * 2.0 *
                      static_cast<double>(i) / 50.0);
  }
  CwtConfig cfg;
  cfg.min_frequency_hz = 1.0;
  cfg.max_frequency_hz = 4.0;
  cfg.num_scales = 8;
  const auto scalogram = cwt_morlet(sig, cfg);
  // Find the scale with max energy, then its max-time index.
  double best = -1.0;
  std::size_t best_scale = 0;
  for (std::size_t s = 0; s < scalogram.power.size(); ++s) {
    double sum = 0.0;
    for (double p : scalogram.power[s]) sum += p;
    if (sum > best) {
      best = sum;
      best_scale = s;
    }
  }
  const auto& row = scalogram.power[best_scale];
  std::size_t t_peak = 0;
  for (std::size_t t = 1; t < row.size(); ++t) {
    if (row[t] > row[t_peak]) t_peak = t;
  }
  EXPECT_GT(t_peak, 1900u);
  EXPECT_LT(t_peak, 2200u);
}

TEST(CwtTest, BadConfigThrows) {
  const auto sig = make_tone(1.0, 50.0, 512);
  CwtConfig above_nyquist;
  above_nyquist.max_frequency_hz = 30.0;
  EXPECT_THROW(cwt_morlet(sig, above_nyquist), util::InvalidArgument);
  CwtConfig inverted;
  inverted.min_frequency_hz = 2.0;
  inverted.max_frequency_hz = 1.0;
  EXPECT_THROW(cwt_morlet(sig, inverted), util::InvalidArgument);
  EXPECT_THROW(cwt_morlet({}, CwtConfig{}), util::InvalidArgument);
}

// ---------------------------------------------------------------- filter

TEST(BiquadTest, ButterworthRejectsBadArgs) {
  EXPECT_THROW(butterworth_lowpass(3, 1.0, 50.0), util::InvalidArgument);
  EXPECT_THROW(butterworth_lowpass(4, 0.0, 50.0), util::InvalidArgument);
  EXPECT_THROW(butterworth_lowpass(4, 30.0, 50.0), util::InvalidArgument);
}

TEST(BiquadTest, DcGainIsUnity) {
  auto sections = butterworth_lowpass(4, 1.0, 50.0);
  IirCascade cascade(sections);
  double y = 0.0;
  for (int i = 0; i < 2000; ++i) y = cascade.process(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(BiquadTest, PrimeEliminatesStartupTransient) {
  auto sections = butterworth_lowpass(4, 1.0, 50.0);
  IirCascade cascade(sections);
  cascade.prime(1024.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(cascade.process(1024.0), 1024.0, 1e-6);
  }
}

TEST(BiquadTest, CausalCascadeAttenuatesHighFrequency) {
  auto sections = butterworth_lowpass(4, 1.0, 50.0);
  IirCascade cascade(sections);
  const auto high = make_tone(8.0, 50.0, 2000);
  const auto out = cascade.process_all(high);
  double rms = 0.0;
  for (std::size_t i = 1000; i < 2000; ++i) rms += out[i] * out[i];
  rms = std::sqrt(rms / 1000.0);
  EXPECT_LT(rms, 0.01);
}

TEST(FiltFiltTest, ZeroPhaseKeepsToneAligned) {
  auto sections = butterworth_lowpass(4, 2.0, 50.0);
  const auto sig = make_tone(0.5, 50.0, 1000);
  const auto out = filtfilt(sections, sig);
  ASSERT_EQ(out.size(), sig.size());
  // Zero-phase: peak positions preserved; sample-wise error small.
  double max_err = 0.0;
  for (std::size_t i = 100; i + 100 < sig.size(); ++i) {
    max_err = std::max(max_err, std::abs(out[i] - sig[i]));
  }
  EXPECT_LT(max_err, 0.02);
}

TEST(FiltFiltTest, RemovesHighFrequencyComponent) {
  auto low = make_tone(0.4, 50.0, 2000);
  const auto high = make_tone(6.0, 50.0, 2000);
  std::vector<double> mixed(2000);
  for (std::size_t i = 0; i < 2000; ++i) mixed[i] = low[i] + high[i];
  const auto out = lowpass_filter(mixed, 1.0, 50.0);
  double err = 0.0;
  for (std::size_t i = 200; i + 200 < out.size(); ++i) {
    err = std::max(err, std::abs(out[i] - low[i]));
  }
  EXPECT_LT(err, 0.06);
}

TEST(FiltFiltTest, EmptySignalThrows) {
  auto sections = butterworth_lowpass(2, 1.0, 50.0);
  EXPECT_THROW(filtfilt(sections, {}), util::InvalidArgument);
}

// ---------------------------------------------------------------- features

TEST(FeaturesTest, SinglePeakHasHighConcentration) {
  const double f = bin_frequency(40, 512, 50.0);
  const auto sig = make_tone(f, 50.0, 512);
  const auto power = frame_power_spectrum(sig, WindowType::kHann);
  EXPECT_GT(peak_concentration(power), 0.4);
  const auto peaks = find_peaks(power, 50.0, 512);
  ASSERT_GE(peaks.size(), 1u);
  EXPECT_NEAR(peaks.front().frequency_hz, f, 0.2);
}

TEST(FeaturesTest, MultiToneLowersConcentrationRaisesEntropy) {
  const auto f1 = bin_frequency(30, 512, 50.0);
  const auto f2 = bin_frequency(60, 512, 50.0);
  const auto f3 = bin_frequency(90, 512, 50.0);
  auto sig = make_tone(f1, 50.0, 512);
  const auto t2 = make_tone(f2, 50.0, 512, 0.9);
  const auto t3 = make_tone(f3, 50.0, 512, 0.8);
  for (std::size_t i = 0; i < sig.size(); ++i) sig[i] += t2[i] + t3[i];

  const auto single = frame_power_spectrum(make_tone(f1, 50.0, 512),
                                           WindowType::kHann);
  const auto multi = frame_power_spectrum(sig, WindowType::kHann);
  EXPECT_LT(peak_concentration(multi), peak_concentration(single));
  EXPECT_GT(spectral_entropy(multi), spectral_entropy(single));
  const auto peaks = find_peaks(multi, 50.0, 512);
  EXPECT_GE(peaks.size(), 3u);
}

TEST(FeaturesTest, FlatnessNearOneForWhiteNoise) {
  util::Rng rng(11);
  std::vector<double> noise(4096);
  for (auto& v : noise) v = rng.normal();
  const auto power = frame_power_spectrum(noise, WindowType::kRectangular);
  EXPECT_GT(spectral_flatness(power), 0.3);
  // And near zero for a pure tone.
  const auto tone_power = frame_power_spectrum(
      make_tone(bin_frequency(100, 4096, 50.0), 50.0, 4096),
      WindowType::kRectangular);
  EXPECT_LT(spectral_flatness(tone_power), 1e-3);
}

TEST(FeaturesTest, CentroidTracksToneFrequency) {
  const double f = bin_frequency(80, 1024, 50.0);
  const auto power = frame_power_spectrum(make_tone(f, 50.0, 1024),
                                          WindowType::kHann);
  EXPECT_NEAR(spectral_centroid(power, 50.0, 1024), f, 0.3);
}

TEST(FeaturesTest, BandEnergyRatioSumsToOne) {
  util::Rng rng(13);
  std::vector<double> noise(1024);
  for (auto& v : noise) v = rng.normal();
  const auto power = frame_power_spectrum(noise, WindowType::kHann);
  const double low = band_energy_ratio(power, 50.0, 1024, 0.0, 10.0);
  const double high = band_energy_ratio(power, 50.0, 1024, 10.0, 26.0);
  EXPECT_NEAR(low + high, 1.0, 1e-9);
}

TEST(FeaturesTest, ExtractAggregatesAllFeatures) {
  const double f = bin_frequency(60, 512, 50.0);
  const auto power = frame_power_spectrum(make_tone(f, 50.0, 512),
                                          WindowType::kHann);
  const auto features = extract_spectral_features(power, 50.0, 512);
  EXPECT_GT(features.concentration, 0.0);
  EXPECT_GT(features.entropy_bits, 0.0);
  EXPECT_NEAR(features.dominant_frequency_hz, f, 0.3);
  EXPECT_GE(features.significant_peaks, 1u);
}

TEST(FeaturesTest, FindPeaksRespectsSeparation) {
  // Two adjacent raised bins closer than the separation collapse to one.
  std::vector<double> power(100, 0.01);
  power[40] = 1.0;
  power[41] = 0.9;
  const auto peaks = find_peaks(power, 50.0, 198, 0.1, 5);
  EXPECT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks.front().bin, 40u);
}

TEST(FeaturesTest, EmptyOrDegenerateInputs) {
  EXPECT_THROW(spectral_flatness({}), util::InvalidArgument);
  EXPECT_THROW(spectral_entropy({}), util::InvalidArgument);
  const std::vector<double> zeros(64, 0.0);
  EXPECT_EQ(spectral_entropy(zeros), 0.0);
  EXPECT_EQ(peak_concentration(zeros), 0.0);
  EXPECT_TRUE(find_peaks(zeros, 50.0, 126).empty());
}

// ------------------------------------------------- parameterized sweeps

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, RecoversRandomSignal) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  auto back = fft_real(x);
  ifft_inplace(back);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i], 1e-9);
    EXPECT_NEAR(back[i].imag(), 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 64, 256, 1024, 2048,
                                           8192));

class ButterworthGain
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ButterworthGain, HalfPowerAtCutoff) {
  const auto [order, cutoff] = GetParam();
  auto sections = butterworth_lowpass(order, cutoff, 50.0);
  IirCascade cascade(sections);
  const auto tone = make_tone(cutoff, 50.0, 6000);
  const auto out = cascade.process_all(tone);
  double rms = 0.0;
  for (std::size_t i = 3000; i < 6000; ++i) rms += out[i] * out[i];
  rms = std::sqrt(rms / 3000.0);
  // Input RMS is 1/sqrt(2); Butterworth gain at cutoff is 1/sqrt(2).
  EXPECT_NEAR(rms, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndCutoffs, ButterworthGain,
    ::testing::Combine(::testing::Values<std::size_t>(2, 4, 6),
                       ::testing::Values(0.5, 1.0, 2.0, 5.0)));

// --------------------------------------- framing-contract tail counter
// stft/welch_psd silently exclude trailing samples past the last full
// frame/segment; the framing contract (stft.h, spectrum.h) makes that
// observable through obs counter "dsp.tail_samples_dropped".

#if SID_METRICS_ENABLED

TEST(TailCounterTest, StftCountsDroppedTailSamples) {
  obs::reset_profile();
  StftConfig cfg;  // frame 2048, hop 1024
  const std::vector<double> signal(2048 + 1024 + 500, 0.1);
  const auto gram = stft(signal, cfg);
  // Frames at 0 and 1024; samples [3072, 3572) never enter a frame.
  ASSERT_EQ(gram.frames.size(), 2u);
  EXPECT_EQ(obs::dsp_tail_dropped_counter().value(), 500u);
}

TEST(TailCounterTest, StftExactFitDropsNothing) {
  obs::reset_profile();
  StftConfig cfg;
  const std::vector<double> signal(2048 + 1024, 0.1);  // frames cover all
  stft(signal, cfg);
  EXPECT_EQ(obs::dsp_tail_dropped_counter().value(), 0u);
}

TEST(TailCounterTest, WelchCountsDroppedTailSamples) {
  obs::reset_profile();
  WelchConfig cfg;  // segment 1024, overlap 512 -> hop 512
  const std::vector<double> signal(2048 + 300, 0.1);
  const auto psd = welch_psd(signal, cfg);
  // Segments at 0, 512, 1024; samples [2048, 2348) are never averaged.
  ASSERT_EQ(psd.segments_averaged, 3u);
  EXPECT_EQ(obs::dsp_tail_dropped_counter().value(), 300u);
}

TEST(TailCounterTest, DropsAccumulateAcrossCalls) {
  obs::reset_profile();
  WelchConfig cfg;
  const std::vector<double> signal(1024 + 100, 0.1);
  welch_psd(signal, cfg);
  welch_psd(signal, cfg);
  EXPECT_EQ(obs::dsp_tail_dropped_counter().value(), 200u);
}

#endif  // SID_METRICS_ENABLED

}  // namespace
}  // namespace sid::dsp
