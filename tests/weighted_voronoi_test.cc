#include "voronoi/weighted_voronoi.h"

#include <random>

#include <gtest/gtest.h>

#include "core/uncertain_point.h"

namespace unn {
namespace voronoi {
namespace {

using geom::Vec2;

/// True when q is within `tol` of a cell boundary (weighted-distance tie).
bool NearTie(const std::vector<Vec2>& sites, const std::vector<double>& w,
             Vec2 q, double tol) {
  double best = 1e18, second = 1e18;
  for (size_t i = 0; i < sites.size(); ++i) {
    double d = Dist(q, sites[i]) + w[i];
    if (d < best) {
      second = best;
      best = d;
    } else {
      second = std::min(second, d);
    }
  }
  return second - best < tol;
}

TEST(WeightedVoronoi, TwoSitesPlainBisector) {
  WeightedVoronoi vd({{-5, 0}, {5, 0}}, {0, 0});
  EXPECT_EQ(vd.Query({-1, 3}), 0);
  EXPECT_EQ(vd.Query({1, -3}), 1);
  EXPECT_EQ(vd.Query({-100, 50}), 0);  // Outside window: fallback.
}

TEST(WeightedVoronoi, WeightShiftsBisector) {
  // Site 0 has weight 3: its cell shrinks; the bisector is a hyperbola
  // around site 0. Point (0,0) is at weighted distance 8 from site 0 and 5
  // from site 1.
  WeightedVoronoi vd({{-5, 0}, {5, 0}}, {3, 0});
  EXPECT_EQ(vd.Query({0, 0}), 1);
  EXPECT_EQ(vd.Query({-4.9, 0}), 0);
}

TEST(WeightedVoronoi, DominatedSiteDetectedAndNeverWins) {
  // Site 1 sits near site 0 but carries a huge weight: empty cell.
  WeightedVoronoi vd({{0, 0}, {1, 0}, {10, 0}}, {0, 5, 0});
  EXPECT_TRUE(vd.IsDominated(1));
  EXPECT_FALSE(vd.IsDominated(0));
  EXPECT_FALSE(vd.IsDominated(2));
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(-20, 20);
  for (int t = 0; t < 200; ++t) {
    EXPECT_NE(vd.Query({u(rng), u(rng)}), 1);
  }
}

TEST(WeightedVoronoi, RandomAgreementWithBruteForce) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> pos(-10, 10);
  std::uniform_real_distribution<double> wu(0, 2);
  for (int n : {2, 4, 8, 16, 32}) {
    for (int iter = 0; iter < 4; ++iter) {
      std::vector<Vec2> sites(n);
      std::vector<double> w(n);
      for (auto& s : sites) s = {pos(rng), pos(rng)};
      for (auto& x : w) x = wu(rng);
      WeightedVoronoi vd(sites, w);
      std::uniform_real_distribution<double> qu(-12, 12);
      int checked = 0;
      for (int t = 0; t < 200; ++t) {
        Vec2 q{qu(rng), qu(rng)};
        if (NearTie(sites, w, q, 1e-6)) continue;
        int got = vd.Query(q);
        int want = 0;
        for (int i = 1; i < n; ++i) {
          if (Dist(q, sites[i]) + w[i] < Dist(q, sites[want]) + w[want]) want = i;
        }
        ASSERT_EQ(got, want) << "n=" << n << " iter=" << iter;
        ++checked;
      }
      EXPECT_GT(checked, 150);
    }
  }
}

TEST(WeightedVoronoi, ZeroWeightsIsStandardVoronoiWithLinearComplexity) {
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> pos(-10, 10);
  int n = 40;
  std::vector<Vec2> sites(n);
  for (auto& s : sites) s = {pos(rng), pos(rng)};
  WeightedVoronoi vd(sites, std::vector<double>(n, 0.0));
  // Standard Voronoi of n sites has at most 2n-5 vertices.
  EXPECT_LE(vd.stats().vertices, 2 * n);
  EXPECT_EQ(vd.stats().nonempty_cells, n);
  std::uniform_real_distribution<double> qu(-12, 12);
  for (int t = 0; t < 300; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    int got = vd.Query(q);
    int want = 0;
    for (int i = 1; i < n; ++i) {
      if (DistSq(q, sites[i]) < DistSq(q, sites[want])) want = i;
    }
    double d_got = Dist(q, sites[got]);
    double d_want = Dist(q, sites[want]);
    ASSERT_NEAR(d_got, d_want, 1e-9);
  }
}

TEST(WeightedVoronoi, WeightedDistanceIsDeltaOfDisks) {
  // With site i = center c_i and weight r_i, the weighted distance of q is
  // Delta(q) = min_i (d(q, c_i) + r_i): stage one of the Theorem 3.1 NN!=0
  // query, done by point location in M.
  std::mt19937_64 rng(405);
  std::uniform_real_distribution<double> pos(-10, 10);
  std::uniform_real_distribution<double> rad(0.1, 1.5);
  std::vector<core::UncertainPoint> pts;
  std::vector<Vec2> centers;
  std::vector<double> radii;
  for (int i = 0; i < 80; ++i) {
    double x = pos(rng), y = pos(rng), r = rad(rng);
    pts.push_back(core::UncertainPoint::Disk({x, y}, r));
    centers.push_back({x, y});
    radii.push_back(r);
  }
  WeightedVoronoi vd(centers, radii);
  std::uniform_real_distribution<double> qu(-25, 25);
  for (int t = 0; t < 200; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    EXPECT_NEAR(vd.WeightedDistance(q),
                core::GlobalMaxDistLowerEnvelope(pts, q), 1e-9);
  }
}

}  // namespace
}  // namespace voronoi
}  // namespace unn
