// The Theorem 3.1 NN!=0 index on disks: core::QuantTree::NonzeroNn
// (stage one the Delta envelope, stage two SupportsWithin(q, Delta(q)),
// then Lemma 2.1's filter) against the definition and the Theorem 2.5
// diagram.

#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/nonzero_voronoi.h"
#include "core/quant_tree.h"

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

TEST(DiskNonzeroIndex, MatchesBruteForceRandom) {
  std::mt19937_64 rng(404);
  for (int n : {1, 2, 5, 17, 60, 150}) {
    auto pts = RandomDisks(n, rng);
    QuantTree ix(&pts);
    std::uniform_real_distribution<double> qu(-20, 20);
    for (int t = 0; t < 150; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto got = ix.NonzeroNn(q);
      auto want = baselines::NonzeroNn(pts, q);
      ASSERT_EQ(got, want) << "n=" << n << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(DiskNonzeroIndex, DeltaMatchesDefinition) {
  std::mt19937_64 rng(405);
  auto pts = RandomDisks(80, rng);
  QuantTree ix(&pts);
  std::uniform_real_distribution<double> qu(-25, 25);
  for (int t = 0; t < 200; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    EXPECT_EQ(ix.MaxDistEnvelope(q).best, GlobalMaxDistLowerEnvelope(pts, q));
  }
}

TEST(DiskNonzeroIndex, AgreesWithNonzeroVoronoiDiagram) {
  // Theorem 2.11 structure and Theorem 3.1 structure must agree everywhere
  // away from diagram boundaries.
  std::mt19937_64 rng(406);
  auto pts = RandomDisks(15, rng);
  QuantTree ix(&pts);
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
    ASSERT_EQ(ix.NonzeroNn(q), vd.Query(q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 250);
}

}  // namespace
}  // namespace core
}  // namespace unn
