// Digital filters for the node-level detector front end.
//
// The paper's node pipeline "filters out the frequency above 1 Hz" before
// thresholding (§IV-B, Fig. 8). We provide a Butterworth IIR (cascaded
// biquads, bilinear transform) for the streaming on-node path, plus
// zero-phase forward-backward filtering for offline figure reproduction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sid::dsp {

/// One second-order IIR section (Direct Form II transposed).
class Biquad {
 public:
  Biquad() = default;
  /// Coefficients normalized so a0 == 1.
  Biquad(double b0, double b1, double b2, double a1, double a2);

  double process(double x);
  void reset();

  /// Sets the internal state to the steady state for a constant input
  /// `x` (assumes unity DC gain), eliminating the start-up transient when
  /// filtering signals with a large DC component (e.g. the 1 g rest level
  /// of the z accelerometer).
  void prime(double x);

  double b0() const { return b0_; }
  double b1() const { return b1_; }
  double b2() const { return b2_; }
  double a1() const { return a1_; }
  double a2() const { return a2_; }

 private:
  double b0_ = 1.0, b1_ = 0.0, b2_ = 0.0;
  double a1_ = 0.0, a2_ = 0.0;
  double z1_ = 0.0, z2_ = 0.0;
};

/// Designs a Butterworth low-pass of the given (even) order as cascaded
/// biquads via pole pairing + bilinear transform.
std::vector<Biquad> butterworth_lowpass(std::size_t order, double cutoff_hz,
                                        double sample_rate_hz);

/// Streaming causal filter: a cascade of biquads.
class IirCascade {
 public:
  IirCascade() = default;
  explicit IirCascade(std::vector<Biquad> sections);

  double process(double x);
  void reset();
  /// Primes every section to DC steady state for input `x` (see
  /// Biquad::prime).
  void prime(double x);
  std::size_t sections() const { return sections_.size(); }

  /// Batch application (stateful; call reset() between signals).
  std::vector<double> process_all(std::span<const double> signal);

 private:
  std::vector<Biquad> sections_;
};

/// Zero-phase filtering: runs the cascade forward then backward with edge
/// reflection padding. Matches the offline processing used for Fig. 8.
std::vector<double> filtfilt(const std::vector<Biquad>& sections,
                             std::span<const double> signal);

/// Convenience: zero-phase 1 Hz (or other cutoff) Butterworth low-pass,
/// the exact front end of the paper's node detector.
std::vector<double> lowpass_filter(std::span<const double> signal,
                                   double cutoff_hz, double sample_rate_hz,
                                   std::size_t order = 4);

}  // namespace sid::dsp
