#include "geom/convex.h"

#include <random>

#include <gtest/gtest.h>

#include "geom/predicates.h"

namespace unn {
namespace geom {
namespace {

std::mt19937_64& Rng() {
  static std::mt19937_64 rng(99);
  return rng;
}

TEST(ConvexHull, SquareWithInteriorPoints) {
  std::vector<Vec2> pts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.25, 0.75}};
  auto hull = ConvexHull(pts);
  ASSERT_EQ(hull.size(), 4u);
  EXPECT_GT(PolygonArea(hull), 0.0);  // CCW.
  EXPECT_NEAR(PolygonArea(hull), 1.0, 1e-12);
}

TEST(ConvexHull, CollinearInputs) {
  std::vector<Vec2> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  auto hull = ConvexHull(pts);
  EXPECT_EQ(hull.size(), 2u);
}

TEST(ConvexHull, RandomizedContainsAllPoints) {
  std::uniform_real_distribution<double> u(-10, 10);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 60; ++i) pts.push_back({u(Rng()), u(Rng())});
    auto hull = ConvexHull(pts);
    ASSERT_GE(hull.size(), 3u);
    EXPECT_GT(PolygonArea(hull), 0.0);
    for (Vec2 p : pts) {
      EXPECT_TRUE(PointInConvex(hull, p, 1e-9));
    }
    // Strict convexity: no three consecutive hull vertices collinear.
    int n = static_cast<int>(hull.size());
    for (int i = 0; i < n; ++i) {
      EXPECT_GT(Orient2dSign(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]), 0);
    }
  }
}

TEST(HalfplaneIntersection, UnitSquareFromFourHalfplanes) {
  std::vector<Halfplane> hps = {
      {{1, 0}, 1.0}, {{-1, 0}, 0.0}, {{0, 1}, 1.0}, {{0, -1}, 0.0}};
  auto poly = HalfplaneIntersection(hps, Box{{-10, -10}, {10, 10}});
  ASSERT_EQ(poly.size(), 4u);
  EXPECT_NEAR(std::abs(PolygonArea(poly)), 1.0, 1e-9);
}

TEST(HalfplaneIntersection, EmptyWhenInfeasible) {
  std::vector<Halfplane> hps = {{{1, 0}, -1.0}, {{-1, 0}, -1.0}};
  auto poly = HalfplaneIntersection(hps, Box{{-10, -10}, {10, 10}});
  EXPECT_TRUE(poly.empty());
}

TEST(HalfplaneIntersection, RandomizedMembershipOracle) {
  std::uniform_real_distribution<double> u(-1, 1);
  std::uniform_real_distribution<double> cu(-2, 2);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Halfplane> hps;
    for (int i = 0; i < 8; ++i) {
      Vec2 n{u(Rng()), u(Rng())};
      if (Norm(n) < 0.1) continue;
      hps.push_back({n, cu(Rng())});
    }
    Box bound{{-50, -50}, {50, 50}};
    auto poly = HalfplaneIntersection(hps, bound);
    // Random membership tests.
    std::uniform_real_distribution<double> pu(-5, 5);
    for (int t = 0; t < 50; ++t) {
      Vec2 p{pu(Rng()), pu(Rng())};
      bool in_all = true;
      for (const auto& hp : hps) {
        if (hp.Violation(p) > 1e-9) in_all = false;
      }
      bool in_poly = !poly.empty() && PointInConvex(poly, p, 1e-7);
      // Boundary-fuzz guard: only check points decisively in/out.
      double min_abs = 1e9;
      for (const auto& hp : hps) {
        min_abs = std::min(min_abs, std::abs(hp.Violation(p)) / (Norm(hp.n) + 1e-12));
      }
      if (min_abs < 1e-6) continue;
      EXPECT_EQ(in_poly, in_all) << "iter=" << iter;
    }
  }
}

TEST(PolygonArea, SignConvention) {
  std::vector<Vec2> ccw = {{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  std::vector<Vec2> cw = {{0, 0}, {0, 2}, {2, 2}, {2, 0}};
  EXPECT_NEAR(PolygonArea(ccw), 4.0, 1e-12);
  EXPECT_NEAR(PolygonArea(cw), -4.0, 1e-12);
}

}  // namespace
}  // namespace geom
}  // namespace unn
