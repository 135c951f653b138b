#include "prob/distance_cdf.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "prob/quadrature.h"
#include "util/check.h"

namespace unn {
namespace prob {

using core::UncertainPoint;
using geom::Vec2;

double CircleIntersectionArea(double d, double r1, double r2) {
  if (d >= r1 + r2) return 0.0;
  double rmin = std::min(r1, r2);
  if (d <= std::abs(r1 - r2)) return M_PI * rmin * rmin;
  double a1 = std::clamp((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1), -1.0, 1.0);
  double a2 = std::clamp((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2), -1.0, 1.0);
  double t = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2);
  return r1 * r1 * std::acos(a1) + r2 * r2 * std::acos(a2) -
         0.5 * std::sqrt(std::max(t, 0.0));
}

namespace {

double TruncatedGaussianCdf(Vec2 q, Vec2 c, double radius, double r) {
  double d = Dist(q, c);
  if (r <= std::max(d - radius, 0.0)) return 0.0;
  if (r >= d + radius) return 1.0;
  double sigma = radius / 2.0;
  double s2 = 2.0 * sigma * sigma;
  // Normalizer over the truncated disk.
  double z = M_PI * s2 * (1.0 - std::exp(-radius * radius / s2));
  // Radial decomposition about c. The rho-circle is entirely inside D(q, r)
  // for rho <= r - d (closed form), partially inside on [|d-r|, d+r]
  // (quadrature restricted to that band — integrating over [0, radius]
  // blindly lets adaptive Simpson miss a narrow band entirely), and outside
  // beyond.
  double full_hi = std::clamp(r - d, 0.0, radius);
  double full = full_hi > 0
                    ? M_PI * s2 * (1.0 - std::exp(-full_hi * full_hi / s2))
                    : 0.0;
  double band_lo = std::clamp(std::abs(d - r), 0.0, radius);
  double band_hi = std::clamp(d + r, 0.0, radius);
  double band = 0.0;
  if (band_hi > band_lo && d > 0) {
    auto frac_inside = [&](double rho) {
      if (rho + d <= r) return 1.0;
      if (rho >= d + r || rho <= d - r) return 0.0;
      double u = std::clamp((d * d + rho * rho - r * r) / (2.0 * d * rho),
                            -1.0, 1.0);
      return std::acos(u) / M_PI;
    };
    band = 2.0 * M_PI *
           AdaptiveSimpson(
               [&](double rho) {
                 return std::exp(-rho * rho / s2) * rho * frac_inside(rho);
               },
               band_lo, band_hi, 1e-12);
  }
  return std::clamp((full + band) / z, 0.0, 1.0);
}

double TruncatedGaussianPdf(Vec2 q, Vec2 c, double radius, double r) {
  // Central difference of the cdf: accurate enough for estimation and
  // plotting (the analytic form involves Bessel-type arc integrals).
  double h = std::max(1e-6 * radius, 1e-9);
  return (TruncatedGaussianCdf(q, c, radius, r + h) -
          TruncatedGaussianCdf(q, c, radius, std::max(r - h, 0.0))) /
         (r + h - std::max(r - h, 0.0));
}

/// The complete elliptic integrals K(m) and E(m), taken by the
/// complementary parameter mc = 1 - m in [0, 1]: callers form mc without
/// cancellation where m is near 1, and the AGM starts from b = sqrt(mc).
/// Arithmetic-geometric mean with E = K (1 - sum_n 2^(n-1) c_n^2); it
/// converges quadratically, in at most 12 steps for any positive double
/// mc, and the loop stops at 16 (a NaN mc returns NaN). mc = 0 gives
/// K = inf, E = 1.
struct CompleteElliptic {
  double k, e;
};

CompleteElliptic EllipticKE(double mc) {
  if (mc == 0.0) return {INFINITY, 1.0};
  double a = 1.0;
  double b = std::sqrt(mc);
  double sum = 0.5 * (1.0 - mc);  // 2^-1 c_0^2 with c_0^2 = m.
  double weight = 0.5;
  for (int step = 0; step < 16; ++step) {
    double c = 0.5 * (a - b);
    double next_a = 0.5 * (a + b);
    b = std::sqrt(a * b);
    a = next_a;
    weight *= 2.0;
    sum += weight * c * c;
    // The next c is ~c^2 / 4a: below 1e-16 relative, as is a's distance
    // from the limit.
    if (c <= 1e-8 * a) break;
  }
  double k = M_PI / (2.0 * a);
  return {k, k * (1.0 - sum)};
}

/// The mean of |q - x| over the circle of radius s about a center at
/// distance d from q: (2/pi) (d + s) E(4ds / (d + s)^2), with
/// 1 - m = ((d - s) / (d + s))^2 formed directly.
double CircleMeanDistance(double d, double s) {
  double sum = d + s;
  if (sum == 0.0) return 0.0;
  double t = (d - s) / sum;
  return (2.0 / M_PI) * sum * EllipticKE(t * t).e;
}

/// E[d] for the uniform disk of radius R at center distance d, rho = d/R,
/// c = 4R / (9 pi):
///   rho < 1:  c [(7 + rho^2) E(rho^2) - 4 (1 - rho^2) K(rho^2)],
///   rho > 1:  c [rho (7 + rho^2) E(1/rho^2)
///                - (rho^2 + 3)(rho^2 - 1)/rho K(1/rho^2)],
///   rho = 1:  32R / (9 pi).
/// The outside form cancels ~rho^2 ulps away, so from rho >= 16 the
/// circle-mean series takes over: averaging the circle mean
/// d sum_n C(1/2,n)^2 (s/d)^(2n) over the disk gives
/// d sum_n C(1/2,n)^2 / (n+1) rho^(-2n); six terms leave < 1e-18 there.
double UniformDiskExpectedDistance(double d, double radius) {
  if (!(d < 16.0 * radius)) {  // Also NaN and infinite d.
    double x = radius / d;
    double y = x * x;
    return d * (1.0 + y * (1.0 / 8 + y * (1.0 / 192 + y * (1.0 / 1024 +
                y * (5.0 / 16384 + y * (49.0 / 393216))))));
  }
  double rho = d / radius;
  double c = 4.0 * radius / (9.0 * M_PI);
  if (rho < 1.0) {
    double mc = (1.0 - rho) * (1.0 + rho);
    CompleteElliptic ke = EllipticKE(mc);
    return c * ((7.0 + rho * rho) * ke.e - 4.0 * mc * ke.k);
  }
  if (rho == 1.0) return 32.0 * radius / (9.0 * M_PI);
  double excess = (rho - 1.0) * (rho + 1.0);  // rho^2 - 1.
  CompleteElliptic ke = EllipticKE(excess / (rho * rho));
  return c * (rho * (7.0 + rho * rho) * ke.e -
              (rho * rho + 3.0) * excess / rho * ke.k);
}

/// The 16-node Gauss-Legendre rule on [0, 1], from Newton's iteration on
/// the Legendre polynomial (built once).
struct GaussLegendre16 {
  static constexpr int kNodes = 16;
  std::array<double, kNodes> x, w;

  GaussLegendre16() {
    for (int i = 0; i < kNodes; ++i) {
      double z = std::cos(M_PI * (i + 0.75) / (kNodes + 0.5));
      double dp = 1.0;
      for (int iter = 0; iter < 100; ++iter) {
        double p = 1.0, prev = 0.0;
        for (int j = 0; j < kNodes; ++j) {
          double older = prev;
          prev = p;
          p = ((2.0 * j + 1.0) * z * prev - j * older) / (j + 1.0);
        }
        dp = kNodes * (z * p - prev) / (z * z - 1.0);
        double step = p / dp;
        z -= step;
        if (std::abs(step) < 1e-16) break;
      }
      x[i] = 0.5 * (1.0 - z);
      w[i] = 1.0 / ((1.0 - z * z) * dp * dp);
    }
  }
};

/// E[d] for the truncated Gaussian (sigma = R/2, so the radial weight is
/// e^{-2 x^2} x with x = s/R): the circle means averaged over the radius,
///   E[d] = int_0^1 M(d, Rx) e^{-2x^2} x dx / int_0^1 e^{-2x^2} x dx.
/// M is smooth except for an (s - d)^2 log|s - d| term at s = d, so the
/// integral splits there when d < R, and each piece maps the node
/// parameter u to x quadratically toward the end nearest s = d, which
/// turns that term into u^4 log u. Sixteen Gauss-Legendre nodes per piece
/// stay within 3e-12 relative at every rho; the denominator is the same
/// rule's sum of the weights, so E[d] is a convex combination of circle
/// means and lies in [MinDist, MaxDist].
double TruncatedGaussianExpectedDistance(double d, double radius) {
  static const GaussLegendre16 rule;
  if (std::isinf(d)) return d;
  double num = 0.0;
  double den = 0.0;
  // Adds x in [a, b], the nodes clustered toward a or toward b.
  auto piece = [&](double a, double b, bool toward_a) {
    double len = b - a;
    for (int i = 0; i < GaussLegendre16::kNodes; ++i) {
      double u = rule.x[i];
      double x = toward_a ? a + len * u * u : b - len * u * u;
      double g = rule.w[i] * 2.0 * u * len * std::exp(-2.0 * x * x) * x;
      num += g * CircleMeanDistance(d, radius * x);
      den += g;
    }
  };
  double split = d / radius;
  if (split < 1.0) {
    piece(0.0, split, false);
    piece(split, 1.0, true);
  } else {
    piece(0.0, 1.0, false);
  }
  return num / den;
}

}  // namespace

double ExpectedDistance(const UncertainPoint& p, Vec2 q) {
  if (!p.is_disk()) {
    double e = 0;
    for (size_t s = 0; s < p.sites().size(); ++s) {
      e += p.weights()[s] * Dist(q, p.sites()[s]);
    }
    return e;
  }
  double d = Dist(q, p.center());
  switch (p.pdf()) {
    case core::DiskPdf::kUniform:
      return UniformDiskExpectedDistance(d, p.radius());
    case core::DiskPdf::kTruncatedGaussian:
      return TruncatedGaussianExpectedDistance(d, p.radius());
  }
  return 0.0;
}

double DistanceCdf(const UncertainPoint& p, Vec2 q, double r) {
  if (r < 0) return 0.0;
  if (!p.is_disk()) {
    double acc = 0;
    for (size_t i = 0; i < p.sites().size(); ++i) {
      if (Dist(q, p.sites()[i]) <= r) acc += p.weights()[i];
    }
    return std::min(acc, 1.0);
  }
  double d = Dist(q, p.center());
  double radius = p.radius();
  switch (p.pdf()) {
    case core::DiskPdf::kUniform:
      return std::clamp(
          CircleIntersectionArea(d, r, radius) / (M_PI * radius * radius), 0.0,
          1.0);
    case core::DiskPdf::kTruncatedGaussian:
      return TruncatedGaussianCdf(q, p.center(), radius, r);
  }
  return 0.0;
}

double DistancePdf(const UncertainPoint& p, Vec2 q, double r) {
  UNN_CHECK_MSG(p.is_disk(), "DistancePdf requires a continuous model");
  if (r <= 0) return 0.0;
  double d = Dist(q, p.center());
  double radius = p.radius();
  if (r <= std::max(d - radius, 0.0) || r >= d + radius) return 0.0;
  switch (p.pdf()) {
    case core::DiskPdf::kUniform: {
      // Arc of circle(q, r) inside the disk: length 2*alpha*r.
      double alpha;
      if (r + d <= radius) {
        alpha = M_PI;  // Whole circle inside.
      } else {
        alpha = std::acos(std::clamp(
            (d * d + r * r - radius * radius) / (2.0 * d * r), -1.0, 1.0));
      }
      return 2.0 * alpha * r / (M_PI * radius * radius);
    }
    case core::DiskPdf::kTruncatedGaussian:
      return TruncatedGaussianPdf(q, p.center(), radius, r);
  }
  return 0.0;
}

}  // namespace prob
}  // namespace unn
