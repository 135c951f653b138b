#include "prob/distance_cdf.h"
#include "prob/distributions.h"
#include "prob/quadrature.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "expected_distance_reference.h"

namespace unn {
namespace prob {
namespace {

using core::DiskPdf;
using core::UncertainPoint;
using geom::Vec2;

TEST(Quadrature, PolynomialAndTranscendental) {
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return x * x; }, 0, 3), 9.0, 1e-9);
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return std::sin(x); }, 0, M_PI),
              2.0, 1e-9);
  EXPECT_NEAR(AdaptiveSimpson([](double x) { return std::exp(-x * x); }, -8, 8),
              std::sqrt(M_PI), 1e-8);
}

TEST(CircleIntersectionArea, KnownCases) {
  EXPECT_DOUBLE_EQ(CircleIntersectionArea(10, 3, 4), 0.0);   // Disjoint.
  EXPECT_NEAR(CircleIntersectionArea(0.5, 1, 3), M_PI, 1e-12);  // Contained.
  // Equal circles at distance 0: full overlap.
  EXPECT_NEAR(CircleIntersectionArea(0, 2, 2), 4 * M_PI, 1e-12);
  // Symmetry in the radii.
  EXPECT_NEAR(CircleIntersectionArea(2.3, 1.7, 2.9),
              CircleIntersectionArea(2.3, 2.9, 1.7), 1e-12);
  // Monotone in r1.
  double prev = 0;
  for (double r = 0.2; r < 6; r += 0.2) {
    double a = CircleIntersectionArea(3.0, r, 2.0);
    EXPECT_GE(a, prev - 1e-12);
    prev = a;
  }
}

class DistanceCdfModels : public ::testing::TestWithParam<DiskPdf> {};

TEST_P(DistanceCdfModels, MatchesMonteCarlo) {
  UncertainPoint p = UncertainPoint::Disk({2, -1}, 3.0, GetParam());
  std::mt19937_64 rng(7);
  for (Vec2 q : {Vec2{2, -1}, Vec2{4, 0}, Vec2{8, 8}, Vec2{2.5, -1.5}}) {
    const int kSamples = 200000;
    std::vector<double> dists(kSamples);
    for (int s = 0; s < kSamples; ++s) {
      dists[s] = Dist(q, SamplePoint(p, rng));
    }
    std::sort(dists.begin(), dists.end());
    for (double r : {0.5, 1.0, 2.0, 4.0, 7.0, 11.0}) {
      double mc = static_cast<double>(std::lower_bound(dists.begin(),
                                                       dists.end(), r) -
                                      dists.begin()) /
                  kSamples;
      double analytic = DistanceCdf(p, q, r);
      EXPECT_NEAR(analytic, mc, 0.01)
          << "q=(" << q.x << "," << q.y << ") r=" << r;
    }
  }
}

TEST_P(DistanceCdfModels, PdfMatchesCdfDerivativeAndIntegratesToOne) {
  UncertainPoint p = UncertainPoint::Disk({0, 0}, 2.0, GetParam());
  Vec2 q{3, 1};
  double lo = p.MinDist(q);
  double hi = p.MaxDist(q);
  for (double f : {0.15, 0.3, 0.5, 0.7, 0.9}) {
    double r = lo + f * (hi - lo);
    double h = 1e-5;
    double numeric = (DistanceCdf(p, q, r + h) - DistanceCdf(p, q, r - h)) /
                     (2 * h);
    EXPECT_NEAR(DistancePdf(p, q, r), numeric, 2e-3) << "r=" << r;
  }
  double total = AdaptiveSimpson([&](double r) { return DistancePdf(p, q, r); },
                                 lo, hi, 1e-9);
  EXPECT_NEAR(total, 1.0, 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Models, DistanceCdfModels,
                         ::testing::Values(DiskPdf::kUniform,
                                           DiskPdf::kTruncatedGaussian),
                         [](const auto& info) {
                           return info.param == DiskPdf::kUniform
                                      ? "Uniform"
                                      : "TruncatedGaussian";
                         });

TEST(DistanceCdf, Figure1UniformDiskExample) {
  // Figure 1 of the paper: disk of radius 5 at the origin, q = (6, 8), so
  // d(q, O) = 10; the support of g is [5, 15].
  UncertainPoint p = UncertainPoint::Disk({0, 0}, 5.0);
  Vec2 q{6, 8};
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 4.99), 0.0);
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 15.01), 1.0);
  EXPECT_EQ(DistancePdf(p, q, 4.5), 0.0);
  EXPECT_EQ(DistancePdf(p, q, 15.5), 0.0);
  EXPECT_GT(DistancePdf(p, q, 10.0), 0.0);
  // The pdf is highest where the circle around q sweeps the widest chord,
  // near r = d (the disk center distance).
  EXPECT_GT(DistancePdf(p, q, 10.0), DistancePdf(p, q, 6.0));
  EXPECT_GT(DistancePdf(p, q, 10.0), DistancePdf(p, q, 14.5));
  double total = AdaptiveSimpson([&](double r) { return DistancePdf(p, q, r); },
                                 5.0, 15.0, 1e-10);
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(DistanceCdf, DiscreteStepsAtSiteDistances) {
  UncertainPoint p = UncertainPoint::Discrete({{1, 0}, {3, 0}, {0, 4}},
                                              {0.2, 0.3, 0.5});
  Vec2 q{0, 0};
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 1.0), 0.2);
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 2.9), 0.2);
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(DistanceCdf(p, q, 4.0), 1.0);
}

/// prob::ExpectedDistance against the long-double reference at
/// q = center + rho * radius * (cos a, sin a), within `tol` relative.
void ExpectMatchesReference(DiskPdf pdf, Vec2 center, double radius, double a,
                            const std::vector<double>& rhos, double tol) {
  UncertainPoint p = UncertainPoint::Disk(center, radius, pdf);
  for (double rho : rhos) {
    Vec2 q = center + Vec2{std::cos(a), std::sin(a)} * (rho * radius);
    long double want = testref::ExpectedDistance(p, q);
    double got = ExpectedDistance(p, q);
    EXPECT_LE(std::abs((got - want) / want), tol)
        << "rho=" << rho << " radius=" << radius << " got=" << got;
  }
}

TEST(ExpectedDistance, UniformDiskMatchesSeriesReference) {
  // Both sides of rho = 1 (the closed form's branch point) and of rho = 16
  // (the series cutover) to the ulp, and out to 1e12.
  const std::vector<double> rhos = {
      0.0, 1e-9, 1e-3, 0.1, 0.5, 0.9, 0.999, std::nextafter(1.0, 0.0), 1.0,
      std::nextafter(1.0, 2.0), 1.001, 1.5, 2.0, 4.0, 8.0,
      std::nextafter(16.0, 0.0), 16.0, std::nextafter(16.0, 32.0), 16.5,
      32.0, 64.0, 1e3, 1e6, 1e9, 1e12};
  ExpectMatchesReference(DiskPdf::kUniform, {0, 0}, 1.0, 0.0, rhos, 1e-12);
  ExpectMatchesReference(DiskPdf::kUniform, {-3, 7}, 2.75, 0.7, rhos, 1e-12);
}

TEST(ExpectedDistance, TruncatedGaussianDiskMatchesPolarReference) {
  // Sixteen fixed nodes per piece at every distance: each call finishes.
  const std::vector<double> rhos = {0.0, 1e-3, 0.5, 0.99, 1.0, 1.01,
                                    2.0, 16.0, 1e3, 1e6, 1e12};
  ExpectMatchesReference(DiskPdf::kTruncatedGaussian, {0, 0}, 1.0, 0.0, rhos,
                         1e-9);
  ExpectMatchesReference(DiskPdf::kTruncatedGaussian, {-3, 7}, 2.75, 0.7, rhos,
                         1e-9);
}

TEST(ExpectedDistance, BoundedByJensenAndMaxDist) {
  // d(q, center) <= E[d] (Jensen, radially symmetric pdfs) <= MaxDist, and
  // a discrete point's E[d] is its weighted site distance.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> coord(-20, 20);
  for (DiskPdf pdf : {DiskPdf::kUniform, DiskPdf::kTruncatedGaussian}) {
    UncertainPoint p = UncertainPoint::Disk({1, -2}, 3.0, pdf);
    for (int i = 0; i < 200; ++i) {
      Vec2 q{coord(rng), coord(rng)};
      double e = ExpectedDistance(p, q);
      EXPECT_GE(e, Dist(q, p.center()) * (1 - 1e-15));
      EXPECT_LE(e, p.MaxDist(q));
    }
  }
  UncertainPoint d = UncertainPoint::Discrete({{1, 0}, {3, 0}, {0, 4}},
                                              {0.2, 0.3, 0.5});
  EXPECT_DOUBLE_EQ(ExpectedDistance(d, {0, 0}), 0.2 * 1 + 0.3 * 3 + 0.5 * 4);
  EXPECT_TRUE(std::isnan(ExpectedDistance(
      UncertainPoint::Disk({0, 0}, 1.0),
      {std::numeric_limits<double>::quiet_NaN(), 0})));
}

TEST(DiscreteSampler, FrequenciesMatchWeights) {
  DiscreteSampler sampler({0.1, 0.2, 0.3, 0.4});
  std::mt19937_64 rng(11);
  std::vector<int> counts(4, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / double(kDraws), 0.4, 0.01);
}

TEST(Sampling, UniformDiskStaysInSupportAndIsUniform) {
  std::mt19937_64 rng(3);
  Vec2 c{5, -2};
  double radius = 2.0;
  int inside_half_radius = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    Vec2 p = SampleUniformDisk(rng, c, radius);
    ASSERT_LE(Dist(p, c), radius + 1e-12);
    if (Dist(p, c) <= radius / 2) ++inside_half_radius;
  }
  // Area ratio of the half-radius disk is 1/4.
  EXPECT_NEAR(inside_half_radius / double(kDraws), 0.25, 0.01);
}

TEST(Sampling, TruncatedGaussianStaysInSupport) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20000; ++i) {
    Vec2 p = SampleTruncatedGaussian(rng, {0, 0}, 1.5);
    ASSERT_LE(Norm(p), 1.5 + 1e-12);
  }
}

TEST(Sampling, DiscretizeBySamplingPreservesSupport) {
  std::mt19937_64 rng(9);
  UncertainPoint p = UncertainPoint::Disk({1, 1}, 2.0);
  UncertainPoint d = DiscretizeBySampling(p, 64, rng);
  EXPECT_FALSE(d.is_disk());
  EXPECT_EQ(d.sites().size(), 64u);
  for (Vec2 s : d.sites()) EXPECT_LE(Dist(s, {1, 1}), 2.0 + 1e-12);
}

}  // namespace
}  // namespace prob
}  // namespace unn
