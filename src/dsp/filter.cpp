#include "dsp/filter.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "obs/profile.h"
#include "util/check.h"
#include "util/error.h"

namespace sid::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

double Biquad::process(double x) {
  // Direct Form II transposed.
  const double y = b0_ * x + z1_;
  z1_ = b1_ * x - a1_ * y + z2_;
  z2_ = b2_ * x - a2_ * y;
  return y;
}

void Biquad::reset() {
  z1_ = 0.0;
  z2_ = 0.0;
}

void Biquad::prime(double x) {
  // Direct Form II transposed steady state for constant input x with
  // unity DC gain (y == x): z2 = (b2 - a2) x, z1 = (b1 - a1) x + z2.
  z2_ = (b2_ - a2_) * x;
  z1_ = (b1_ - a1_) * x + z2_;
}

std::vector<Biquad> butterworth_lowpass(std::size_t order, double cutoff_hz,
                                        double sample_rate_hz) {
  util::require(order >= 2 && order % 2 == 0,
                "butterworth_lowpass: order must be even and >= 2");
  util::require(sample_rate_hz > 0.0, "butterworth_lowpass: bad sample rate");
  util::require(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
                "butterworth_lowpass: cutoff must be in (0, Nyquist)");

  // Pre-warped analog cutoff for the bilinear transform.
  const double warped =
      2.0 * sample_rate_hz *
      std::tan(std::numbers::pi * cutoff_hz / sample_rate_hz);

  std::vector<Biquad> sections;
  sections.reserve(order / 2);
  for (std::size_t k = 0; k < order / 2; ++k) {
    // Analog prototype pole pair angle for section k:
    // theta = pi/2 + (2k+1) * pi / (2*order); poles at
    // warped * exp(+-i*theta). Section denominator:
    // s^2 + 2*warped*cos(pi/2 - theta')*s + warped^2 with the standard
    // quality factor q = 1 / (2*sin(phi)) where
    // phi = (2k+1)*pi/(2*order).
    const double phi = (2.0 * static_cast<double>(k) + 1.0) *
                       std::numbers::pi / (2.0 * static_cast<double>(order));
    const double q = 1.0 / (2.0 * std::sin(phi));

    // Bilinear transform of H(s) = w0^2 / (s^2 + (w0/q) s + w0^2).
    const double w0 = warped;
    const double fs2 = 2.0 * sample_rate_hz;
    const double a0 = fs2 * fs2 + (w0 / q) * fs2 + w0 * w0;
    const double b0 = w0 * w0 / a0;
    const double b1 = 2.0 * w0 * w0 / a0;
    const double b2 = w0 * w0 / a0;
    const double a1 = (2.0 * w0 * w0 - 2.0 * fs2 * fs2) / a0;
    const double a2 = (fs2 * fs2 - (w0 / q) * fs2 + w0 * w0) / a0;
    sections.emplace_back(b0, b1, b2, a1, a2);
  }
  return sections;
}

IirCascade::IirCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)) {}

double IirCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

void IirCascade::reset() {
  for (auto& s : sections_) s.reset();
}

void IirCascade::prime(double x) {
  // DC propagates through each unity-gain section unchanged.
  for (auto& s : sections_) s.prime(x);
}

std::vector<double> IirCascade::process_all(std::span<const double> signal) {
  SID_PROFILE_STAGE(obs::Stage::kFilter);
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = process(signal[i]);
  return out;
}

std::vector<double> filtfilt(const std::vector<Biquad>& sections,
                             std::span<const double> signal) {
  SID_PROFILE_STAGE(obs::Stage::kFilter);
  util::require(!signal.empty(), "filtfilt: empty signal");
  // Reflect-pad both ends to suppress transients; pad length heuristic.
  const std::size_t pad = std::min<std::size_t>(signal.size() - 1, 300);
  std::vector<double> padded;
  padded.reserve(signal.size() + 2 * pad);
  for (std::size_t i = pad; i >= 1; --i) {
    padded.push_back(2.0 * signal.front() - signal[i]);
  }
  padded.insert(padded.end(), signal.begin(), signal.end());
  for (std::size_t i = 2; i <= pad + 1; ++i) {
    padded.push_back(2.0 * signal.back() - signal[signal.size() - i]);
  }

  IirCascade forward(sections);
  auto once = forward.process_all(padded);
  std::reverse(once.begin(), once.end());
  IirCascade backward(sections);
  auto twice = backward.process_all(once);
  std::reverse(twice.begin(), twice.end());

  std::vector<double> out(
      twice.begin() + static_cast<std::ptrdiff_t>(pad),
      twice.begin() + static_cast<std::ptrdiff_t>(pad + signal.size()));
  SID_DCHECK_FINITE(out, "filtfilt output");
  return out;
}

std::vector<double> lowpass_filter(std::span<const double> signal,
                                   double cutoff_hz, double sample_rate_hz,
                                   std::size_t order) {
  const auto sections = butterworth_lowpass(order, cutoff_hz, sample_rate_hz);
  return filtfilt(sections, signal);
}

}  // namespace sid::dsp
