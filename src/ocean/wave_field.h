// Random-phase linear (Airy) wave field synthesis.
//
// The sea surface is the sum of N sinusoidal components whose amplitudes
// follow a target variance spectrum, with random phases and directions
// drawn from a cos^{2s} spreading function. Deep-water dispersion
// (omega^2 = g*k) links frequency and wavenumber. The field is evaluated
// at arbitrary (position, time), giving elevation plus the surface-level
// particle accelerations a buoy riding the surface experiences — the
// quantity the paper's accelerometer actually measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ocean/wave_spectrum.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace sid::ocean {

/// Surface-level particle acceleration in m/s^2 (x east, y north, z up;
/// z excludes gravity).
struct Accel3 {
  double ax = 0.0;
  double ay = 0.0;
  double az = 0.0;
};

struct WaveFieldConfig {
  std::size_t num_components = 160;
  double min_frequency_hz = 0.03;
  /// Extends well past 1 Hz so the raw trace carries realistic wind chop
  /// (the paper's Fig. 5 shows hundreds of counts of fast fluctuation);
  /// the node detector's 1 Hz low-pass removes it.
  double max_frequency_hz = 3.0;
  /// cos^{2s} directional spreading exponent; larger = narrower spread.
  double spreading_exponent = 8.0;
  /// Mean wave travel direction, radians from +x.
  double mean_direction_rad = 0.0;
  std::uint64_t seed = 1;
};

/// One spectral component of the synthesized field.
struct WaveComponent {
  double amplitude_m = 0.0;
  double omega = 0.0;        ///< angular frequency, rad/s
  double wavenumber = 0.0;   ///< rad/m (deep water: omega^2 / g)
  double direction_rad = 0.0;
  double phase = 0.0;        ///< random phase offset
};

/// Evaluation runs every component through one branchless struct-of-arrays
/// loop (see wave_field.cpp for the sincos it uses and its error bound).
class WaveField {
 public:
  /// Largest phase bound, in radians, that evaluation accepts:
  /// max_k * (|x| + |y|) + max_omega * |t| + 2*pi must not exceed it. The
  /// kernel's range reduction is exact in its quadrant bits only while
  /// |phase| * 2/pi < 2^51; 2^50 rad keeps a 2/pi margin. A 24 h trace at
  /// 10 km from the origin stays below 10^7 rad.
  static constexpr double kMaxPhaseRad = 0x1p50;

  /// Samples `config.num_components` components from `spectrum`.
  WaveField(const WaveSpectrum& spectrum, const WaveFieldConfig& config);

  /// Surface elevation (m) at position `p` and time `t` (s). Throws
  /// InvalidArgument when (p, t) is non-finite or outside kMaxPhaseRad.
  double elevation(util::Vec2 p, double t) const;

  /// Surface particle acceleration at `p`, `t` (deep-water Airy theory,
  /// evaluated at the mean surface level). Same domain as elevation().
  Accel3 acceleration(util::Vec2 p, double t) const;

  const std::vector<WaveComponent>& components() const { return components_; }

  /// Theoretical variance of the synthesized elevation:
  /// sum of A_i^2 / 2.
  double elevation_variance() const;

 private:
  /// Returns (sum w_i sin(phase_i) cos(theta_i),
  ///          sum w_i sin(phase_i) sin(theta_i),
  ///          sum w_i cos(phase_i)) over the components.
  Accel3 sum_components(util::Vec2 p, double t,
                        const std::vector<double>& weight) const;

  std::vector<WaveComponent> components_;
  // Kernel coefficients, one entry per component, padded with zero-weight
  // entries to a whole number of accumulator lanes.
  std::vector<double> kx_;         ///< k cos(theta)
  std::vector<double> ky_;         ///< k sin(theta)
  std::vector<double> omega_;
  std::vector<double> phase_;
  std::vector<double> w2a_;        ///< omega^2 A (acceleration weight)
  std::vector<double> amplitude_;  ///< A (elevation weight)
  std::vector<double> dir_cos_;
  std::vector<double> dir_sin_;
  double max_wavenumber_ = 0.0;
  double max_omega_ = 0.0;
};

/// Draws a direction offset from a cos^{2s} spreading function centred on
/// zero via rejection sampling. Exposed for tests.
///
/// Termination: attempts are bounded (256 draws). For the exponents the
/// simulator uses (s <= ~20, acceptance >= ~10%) the bound is effectively
/// never hit, so results are unchanged; for pathological exponents (s in
/// the hundreds, acceptance -> 0) the sampler deterministically returns
/// the highest-density draw seen instead of looping forever.
double sample_spreading_offset(util::Rng& rng, double exponent);

}  // namespace sid::ocean
