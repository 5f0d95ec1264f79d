#include "ocean/wave_field.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "util/check.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::ocean {

double sample_spreading_offset(util::Rng& rng, double exponent) {
  util::require(exponent >= 0.0,
                "sample_spreading_offset: exponent must be non-negative");
  if (exponent == 0.0) {
    return rng.uniform(-std::numbers::pi / 2.0, std::numbers::pi / 2.0);
  }
  // Rejection sampling of p(theta) proportional to cos^{2s}(theta) on
  // (-pi/2, pi/2); the mode is at 0 with density 1. Acceptance probability
  // scales like 1/sqrt(s), so the attempt budget below (256) is hit with
  // probability < 1e-25 at the default s = 8 — default-seeded runs draw the
  // same values as the historical unbounded loop. For extreme exponents
  // the loop is no longer unbounded: we fall back to the best draw seen,
  // which is deterministic (pure function of the rng stream) and
  // concentrates near the mode exactly where the true density does.
  // The fallback ranks draws by cos(theta), not by the density itself:
  // cos^{2s} underflows to exactly 0.0 for most draws at extreme s, which
  // would reduce "best density" to "first draw seen". cos(theta) is a
  // strictly monotone proxy for the density and never underflows.
  constexpr int kMaxAttempts = 256;
  double best_theta = 0.0;
  double best_cos = -1.0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const double theta =
        rng.uniform(-std::numbers::pi / 2.0, std::numbers::pi / 2.0);
    const double cos_theta = std::cos(theta);
    const double density = std::pow(cos_theta, 2.0 * exponent);
    if (rng.uniform() < density) return theta;
    if (cos_theta > best_cos) {
      best_cos = cos_theta;
      best_theta = theta;
    }
  }
  return best_theta;
}

namespace {

// Accumulator lanes of the evaluation loop. Independent partial sums let
// GCC vectorize the loop without reassociating a floating-point reduction
// (which it may not do without -ffast-math); the component arrays are
// padded to a multiple of this.
constexpr std::size_t kLanes = 4;

struct SinCos {
  double sin;
  double cos;
};

// sin and cos of x for |x| * 2/pi < 2^51, branch-free so the loop that
// calls it vectorizes on baseline SSE2.
//
// Range reduction is Cody–Waite: n = round(x * 2/pi) and
// r = (x - n*P1) - n*P1t, with P1 the leading 33 bits of pi/2 and P1t the
// rest. Adding 1.5 * 2^52 rounds x * 2/pi to an integer held in the low
// mantissa bits, so the quadrant n mod 4 is read from the bit pattern with
// no nearbyint/floor call. n*P1 is exact while |n| < 2^20; past that its
// rounding error is below ulp(x), the same order as the error already in x.
// The kernels are fdlibm's __kernel_sin/__kernel_cos (degree-13/14
// minimax polynomials on |r| <= pi/4, error < 1 ulp) without the tail
// term. Overall: |error| <= ulp(|x|) + 2^-52 for both outputs.
inline SinCos sincos_reduced(double x) {
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPio2Hi = 1.57079632673412561417e+00;
  constexpr double kPio2Lo = 6.07710050650619224932e-11;
  constexpr double kShift = 0x1.8p52;
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;

  const double shifted = x * kTwoOverPi + kShift;
  const double n = shifted - kShift;
  const auto quadrant = std::bit_cast<std::uint64_t>(shifted);
  const double r = (x - n * kPio2Hi) - n * kPio2Lo;

  const double z = r * r;
  const double w = z * z;
  const double ps = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double sin_r = r + z * r * (kS1 + z * ps);
  const double pc = z * (kC1 + z * (kC2 + z * kC3)) +
                    w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_minus_hz = 1.0 - hz;
  const double cos_r = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * pc);

  // Quadrant n mod 4: odd swaps sin and cos; sin is negated in quadrants
  // 2 and 3, cos in quadrants 1 and 2.
  const std::uint64_t swap = 0 - (quadrant & 1);
  const auto sin_bits = std::bit_cast<std::uint64_t>(sin_r);
  const auto cos_bits = std::bit_cast<std::uint64_t>(cos_r);
  const std::uint64_t s = (sin_bits & ~swap) | (cos_bits & swap);
  const std::uint64_t c = (cos_bits & ~swap) | (sin_bits & swap);
  return {std::bit_cast<double>(s ^ ((quadrant & 2) << 62)),
          std::bit_cast<double>(c ^ (((quadrant + 1) & 2) << 62))};
}

}  // namespace

WaveField::WaveField(const WaveSpectrum& spectrum,
                     const WaveFieldConfig& config) {
  util::require(config.num_components > 0,
                "WaveField: need at least one component");
  util::require(config.min_frequency_hz > 0.0 &&
                    config.max_frequency_hz > config.min_frequency_hz,
                "WaveField: bad frequency range");

  util::Rng rng(config.seed);
  components_.reserve(config.num_components);

  const double df = (config.max_frequency_hz - config.min_frequency_hz) /
                    static_cast<double>(config.num_components);
  for (std::size_t i = 0; i < config.num_components; ++i) {
    // Jitter the component frequency inside its bin to avoid periodicity
    // artifacts in long records.
    const double f = config.min_frequency_hz +
                     (static_cast<double>(i) + rng.uniform()) * df;
    const double s_f = spectrum.density(f);
    WaveComponent c;
    c.amplitude_m = std::sqrt(2.0 * s_f * df);
    c.omega = 2.0 * std::numbers::pi * f;
    c.wavenumber = c.omega * c.omega / util::kGravity;  // deep water
    c.direction_rad = config.mean_direction_rad +
                      sample_spreading_offset(rng, config.spreading_exponent);
    c.phase = rng.angle();
    // A non-finite amplitude here (negative spectral density, bad spectrum
    // parameters) would silently corrupt every downstream trace.
    SID_DCHECK(std::isfinite(c.amplitude_m) && c.amplitude_m >= 0.0,
               "WaveField: bad component amplitude at f=", f, " Hz");
    components_.push_back(c);
  }

  // Padding entries have every coefficient 0: phase 0, weight 0, so they
  // add exactly zero.
  const std::size_t padded = (components_.size() + kLanes - 1) / kLanes *
                             kLanes;
  for (auto* v : {&kx_, &ky_, &omega_, &phase_, &w2a_, &amplitude_,
                  &dir_cos_, &dir_sin_}) {
    v->assign(padded, 0.0);
  }
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const WaveComponent& c = components_[i];
    dir_cos_[i] = std::cos(c.direction_rad);
    dir_sin_[i] = std::sin(c.direction_rad);
    kx_[i] = c.wavenumber * dir_cos_[i];
    ky_[i] = c.wavenumber * dir_sin_[i];
    omega_[i] = c.omega;
    phase_[i] = c.phase;
    w2a_[i] = c.omega * c.omega * c.amplitude_m;
    amplitude_[i] = c.amplitude_m;
    max_wavenumber_ = std::max(max_wavenumber_, c.wavenumber);
    max_omega_ = std::max(max_omega_, c.omega);
  }
}

Accel3 WaveField::sum_components(util::Vec2 p, double t,
                                 const std::vector<double>& weight) const {
  // Every |phase| is at most this bound (|cos|, |sin| <= 1, phase offsets
  // in [0, 2 pi)); NaN or Inf anywhere in p or t makes it non-finite.
  const double phase_bound =
      max_wavenumber_ * (std::abs(p.x) + std::abs(p.y)) +
      max_omega_ * std::abs(t) + 2.0 * std::numbers::pi;
  util::require(std::isfinite(phase_bound) && phase_bound <= kMaxPhaseRad,
                "WaveField: position/time non-finite or outside the "
                "evaluation domain (WaveField::kMaxPhaseRad)");

  double sum_x[kLanes] = {};
  double sum_y[kLanes] = {};
  double sum_z[kLanes] = {};
  for (std::size_t base = 0; base < kx_.size(); base += kLanes) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::size_t i = base + lane;
      const double phase = kx_[i] * p.x + ky_[i] * p.y - omega_[i] * t +
                           phase_[i];
      const SinCos sc = sincos_reduced(phase);
      const double horizontal = weight[i] * sc.sin;
      sum_x[lane] += horizontal * dir_cos_[i];
      sum_y[lane] += horizontal * dir_sin_[i];
      sum_z[lane] += weight[i] * sc.cos;
    }
  }
  Accel3 sum;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    sum.ax += sum_x[lane];
    sum.ay += sum_y[lane];
    sum.az += sum_z[lane];
  }
  return sum;
}

double WaveField::elevation(util::Vec2 p, double t) const {
  return sum_components(p, t, amplitude_).az;
}

Accel3 WaveField::acceleration(util::Vec2 p, double t) const {
  // Airy theory at the surface (z = 0): vertical particle acceleration
  // -w^2 * A * cos(phase); horizontal +w^2 * A * sin(phase) along the
  // propagation direction.
  Accel3 a = sum_components(p, t, w2a_);
  a.az = -a.az;
  return a;
}

double WaveField::elevation_variance() const {
  double var = 0.0;
  for (const auto& c : components_) {
    var += 0.5 * c.amplitude_m * c.amplitude_m;
  }
  return var;
}

}  // namespace sid::ocean
