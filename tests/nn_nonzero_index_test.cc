#include "core/nn_nonzero_index.h"

#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/nonzero_voronoi.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

std::vector<UncertainPoint> RandomDisks(int n, std::mt19937_64& rng,
                                        double spread = 10.0,
                                        double rmax = 1.5) {
  std::uniform_real_distribution<double> pos(-spread, spread);
  std::uniform_real_distribution<double> rad(0.1, rmax);
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    double x = pos(rng), y = pos(rng), r = rad(rng);
    pts.push_back(UncertainPoint::Disk({x, y}, r));
  }
  return pts;
}

TEST(NnNonzeroIndex, MatchesBruteForceRandom) {
  std::mt19937_64 rng(404);
  for (int n : {1, 2, 5, 17, 60, 150}) {
    auto pts = RandomDisks(n, rng);
    NnNonzeroIndex ix(pts);
    std::uniform_real_distribution<double> qu(-20, 20);
    for (int t = 0; t < 150; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto got = ix.Query(q);
      auto want = baselines::NonzeroNn(pts, q);
      ASSERT_EQ(got, want) << "n=" << n << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(NnNonzeroIndex, DeltaMatchesDefinition) {
  std::mt19937_64 rng(405);
  auto pts = RandomDisks(80, rng);
  NnNonzeroIndex ix(pts);
  std::uniform_real_distribution<double> qu(-25, 25);
  for (int t = 0; t < 200; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    EXPECT_NEAR(ix.Delta(q), GlobalMaxDistLowerEnvelope(pts, q), 1e-9);
  }
}

TEST(NnNonzeroIndex, AgreesWithNonzeroVoronoiDiagram) {
  // Theorem 2.11 structure and Theorem 3.1 structure must agree everywhere
  // away from diagram boundaries.
  std::mt19937_64 rng(406);
  auto pts = RandomDisks(15, rng);
  NnNonzeroIndex ix(pts);
  NonzeroVoronoi vd(pts);
  double tol = 1e-7 * vd.window().Diagonal();
  std::uniform_real_distribution<double> qu(-14, 14);
  int checked = 0;
  for (int t = 0; t < 300; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    double delta = GlobalMaxDistLowerEnvelope(pts, q);
    bool near_boundary = false;
    for (const auto& p : pts) {
      if (std::abs(p.MinDist(q) - delta) < tol) near_boundary = true;
    }
    if (near_boundary) continue;
    ASSERT_EQ(ix.Query(q), vd.Query(q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 250);
}

}  // namespace
}  // namespace core
}  // namespace unn
