#ifndef UNN_TESTS_EXPECTED_DISTANCE_REFERENCE_H_
#define UNN_TESTS_EXPECTED_DISTANCE_REFERENCE_H_

#include <algorithm>
#include <cmath>

#include "core/uncertain_point.h"
#include "geom/vec2.h"

/// \file expected_distance_reference.h
/// Long-double references for the expected distance E[d(q, P)] of a disk,
/// built on neither of prob::ExpectedDistance's formulas (complete
/// elliptic integrals, Gauss-Legendre over circle means). Both take
/// rho = d(q, center) / radius and return E[d] in units of the radius.

namespace unn {
namespace testref {

/// Uniform disk, term by term from the circle mean
/// (1/2pi) oint |d - s e^{it}| dt = max(d, s) sum_n C(1/2,n)^2 t^(2n),
/// t = min(d, s) / max(d, s), averaged over the disk with density 2s/R^2:
///   rho >= 1: rho sum_n C(1/2,n)^2 / (n + 1) rho^(-2n);
///   rho <  1: the disk splits at s = d into
///             rho^3 sum_n C(1/2,n)^2 / (n + 1)                (s < d)
///             + 2 sum_n C(1/2,n)^2 (rho^(2n) - rho^3) / (3 - 2n) (s > d).
/// The terms fall like n^-4 at rho = 1; 4e5 of them leave < 1e-17.
inline long double UniformDiskExpectedDistance(long double rho) {
  constexpr int kTerms = 400000;
  long double binom = 1.0L;  // C(1/2, n).
  long double sum = 0.0L;
  if (rho >= 1.0L) {
    const long double y = 1.0L / (rho * rho);
    long double pow = 1.0L;  // rho^(-2n).
    for (int n = 0; n < kTerms; ++n) {
      long double term = binom * binom / (n + 1) * pow;
      sum += term;
      if (term < 1e-24L * sum) break;
      pow *= y;
      binom *= (0.5L - n) / (n + 1);
    }
    return rho * sum;
  }
  const long double rho3 = rho * rho * rho;
  long double pow = 1.0L;  // rho^(2n).
  for (int n = 0; n < kTerms; ++n) {
    long double c2 = binom * binom;
    sum += rho3 * c2 / (n + 1) + 2.0L * c2 * (pow - rho3) / (3 - 2 * n);
    pow *= rho * rho;
    binom *= (0.5L - n) / (n + 1);
  }
  return sum;
}

/// Truncated Gaussian (sigma = R/2, density ~ e^{-2|x - c|^2 / R^2}), by a
/// 2-D quadrature in polar coordinates about q: along each ray the
/// integrand r^2 e^{-2|x - c|^2} is entire in r (Gauss-Legendre, 64
/// nodes), written with x - c split into the ray's perpendicular offset p
/// from c and the position t along the chord, so |x - c|^2 = p^2 + t^2
/// loses nothing to cancellation far away. Over the angle: the periodic
/// trapezoid rule when q is inside the disk, else Gauss-Legendre in phi
/// with theta = theta_max sin(phi), which makes the chord length analytic
/// at the tangent rays. The ratio of the r^2 and r integrals is E[d].
/// Converged to ~1e-18 except for q within ~1e-2 radii inside the rim.
inline long double GaussianDiskExpectedDistance(long double rho) {
  constexpr int kRadial = 64;
  constexpr int kAngular = 400;
  struct Rule {
    long double x[kAngular], w[kAngular];
    int n;
    explicit Rule(int nodes) : n(nodes) {
      const long double pi = std::acos(-1.0L);
      for (int i = 0; i < n; ++i) {
        long double z = std::cos(pi * (i + 0.75L) / (n + 0.5L)), dp = 1;
        for (int iter = 0; iter < 100; ++iter) {
          long double p = 1, prev = 0;
          for (int j = 0; j < n; ++j) {
            long double older = prev;
            prev = p;
            p = ((2.0L * j + 1) * z * prev - j * older) / (j + 1);
          }
          dp = n * (z * p - prev) / (z * z - 1);
          long double step = p / dp;
          z -= step;
          if (std::abs(step) < 1e-19L) break;
        }
        x[i] = 0.5L * (1 - z);  // On [0, 1].
        w[i] = 1.0L / ((1 - z * z) * dp * dp);
      }
    }
  };
  static const Rule radial(kRadial);
  static const Rule angular(kAngular);
  const long double pi = std::acos(-1.0L);
  long double num = 0, den = 0;
  // One ray: perpendicular offset p, chord positions t in [lo, hi], and
  // the distance from q is r = foot + t; weighted by `scale`.
  auto ray = [&](long double p, long double lo, long double hi,
                 long double foot, long double scale) {
    for (int j = 0; j < radial.n; ++j) {
      long double t = lo + (hi - lo) * radial.x[j];
      long double r = foot + t;
      long double w = scale * radial.w[j] * (hi - lo) *
                      std::exp(-2.0L * (p * p + t * t)) * r;
      num += w * r;
      den += w;
    }
  };
  if (rho < 1.0L) {
    for (int i = 0; i < kAngular; ++i) {
      long double theta = 2 * pi * (i + 0.5L) / kAngular;
      long double p = rho * std::sin(theta);
      long double foot = -rho * std::cos(theta);
      ray(p, -foot, std::sqrt(1 - p * p), foot, 1.0L);
    }
  } else {
    long double theta_max = std::asin(1.0L / rho);
    for (int i = 0; i < kAngular; ++i) {
      long double phi = pi * (angular.x[i] - 0.5L);
      long double theta = theta_max * std::sin(phi);
      long double p = rho * std::sin(theta);
      long double h = std::sqrt(std::max(1 - p * p, 0.0L));
      ray(p, -h, h, rho * std::cos(theta),
          angular.w[i] * theta_max * std::cos(phi));
    }
  }
  return num / den;
}

/// E[d(q, p)] of a disk by the matching reference, q - center taken in
/// long double.
inline long double ExpectedDistance(const core::UncertainPoint& p,
                                    geom::Vec2 q) {
  long double dx = static_cast<long double>(q.x) - p.center().x;
  long double dy = static_cast<long double>(q.y) - p.center().y;
  long double r = p.radius();
  long double rho = std::sqrt(dx * dx + dy * dy) / r;
  return r * (p.pdf() == core::DiskPdf::kUniform
                  ? UniformDiskExpectedDistance(rho)
                  : GaussianDiskExpectedDistance(rho));
}

}  // namespace testref
}  // namespace unn

#endif  // UNN_TESTS_EXPECTED_DISTANCE_REFERENCE_H_
