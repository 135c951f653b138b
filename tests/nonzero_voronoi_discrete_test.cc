#include "core/nonzero_voronoi_discrete.h"
#include "core/quant_tree.h"

#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

std::vector<UncertainPoint> RandomDiscrete(int n, int k, std::mt19937_64& rng,
                                           double spread = 10.0,
                                           double cluster = 1.5) {
  std::uniform_real_distribution<double> pos(-spread, spread);
  std::uniform_real_distribution<double> off(-cluster, cluster);
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    double cx = pos(rng), cy = pos(rng);
    std::vector<Vec2> sites;
    for (int s = 0; s < k; ++s) {
      double ox = off(rng), oy = off(rng);
      sites.push_back({cx + ox, cy + oy});
    }
    pts.push_back(UncertainPoint::DiscreteUniform(sites));
  }
  return pts;
}

bool NearBoundary(const std::vector<UncertainPoint>& pts, Vec2 q, double tol) {
  double delta = GlobalMaxDistLowerEnvelope(pts, q);
  for (const auto& p : pts) {
    if (std::abs(p.MinDist(q) - delta) < tol) return true;
  }
  return false;
}

TEST(NonzeroVoronoiDiscrete, TwoPointsSanity) {
  std::vector<UncertainPoint> pts = {
      UncertainPoint::DiscreteUniform({{-5, 0}, {-4, 1}}),
      UncertainPoint::DiscreteUniform({{5, 0}, {4, -1}})};
  NonzeroVoronoiDiscrete vd(pts);
  EXPECT_EQ(vd.Query({-5, 0}), (std::vector<int>{0}));
  EXPECT_EQ(vd.Query({5, 0}), (std::vector<int>{1}));
  EXPECT_EQ(vd.Query({0, 0.37}), (std::vector<int>{0, 1}));
}

TEST(NonzeroVoronoiDiscrete, MatchesBruteForceRandom) {
  std::mt19937_64 rng(500);
  struct Config {
    int n, k;
  };
  for (Config cfg : {Config{2, 2}, Config{4, 2}, Config{6, 3}, Config{8, 4}}) {
    for (int iter = 0; iter < 3; ++iter) {
      auto pts = RandomDiscrete(cfg.n, cfg.k, rng);
      NonzeroVoronoiDiscrete vd(pts);
      double tol = 1e-7 * vd.window().Diagonal();
      std::uniform_real_distribution<double> qu(-13, 13);
      int checked = 0;
      for (int t = 0; t < 200; ++t) {
        Vec2 q{qu(rng), qu(rng)};
        if (NearBoundary(pts, q, tol)) continue;
        auto got = vd.Query(q);
        auto want = baselines::NonzeroNn(pts, q);
        ASSERT_EQ(got, want)
            << "n=" << cfg.n << " k=" << cfg.k << " iter=" << iter << " q=("
            << q.x << "," << q.y << ")";
        ++checked;
      }
      EXPECT_GT(checked, 150);
    }
  }
}

TEST(NonzeroVoronoiDiscrete, StatsInvariants) {
  std::mt19937_64 rng(501);
  auto pts = RandomDiscrete(6, 3, rng);
  NonzeroVoronoiDiscrete vd(pts);
  const auto& st = vd.stats();
  EXPECT_GT(st.union_segments, 0);
  EXPECT_EQ(st.bounded_faces, vd.subdivision().NumFacesEuler() - 1);
  EXPECT_LE(st.unlabeled_loops, 1);
  EXPECT_GT(st.label_nodes, 0);
  // Theorem 2.14 ceiling with a generous constant: O(k n^3).
  EXPECT_LE(st.crossings, 8 * 3 * 6 * 6 * 6);
}

TEST(NonzeroVoronoiDiscrete, SingletonSitesBehaveLikeCertainPoints) {
  // k = 1 discrete points: NN!=0 away from bisectors is exactly the NN.
  std::vector<UncertainPoint> pts = {
      UncertainPoint::DiscreteUniform({{0, 0}}),
      UncertainPoint::DiscreteUniform({{10, 0}}),
      UncertainPoint::DiscreteUniform({{0, 10}})};
  NonzeroVoronoiDiscrete vd(pts);
  EXPECT_EQ(vd.Query({1, 1}), (std::vector<int>{0}));
  EXPECT_EQ(vd.Query({9, 1}), (std::vector<int>{1}));
  EXPECT_EQ(vd.Query({1, 9}), (std::vector<int>{2}));
}

TEST(NonzeroVoronoiDiscrete, SharedSitesAndDuplicatesMatchBruteForce) {
  std::vector<std::vector<UncertainPoint>> inputs;
  // Coincident sites shared between points: every point has the site
  // (1, 2), and the second sites repeat with period 3.
  std::vector<UncertainPoint> shared;
  for (int i = 0; i < 6; ++i) {
    shared.push_back(
        UncertainPoint::DiscreteUniform({{1.0, 2.0}, {double(i % 3), 0.0}}));
  }
  inputs.push_back(shared);
  // k = 1 certain points, one duplicated.
  inputs.push_back({UncertainPoint::DiscreteUniform({{0, 0}}),
                    UncertainPoint::DiscreteUniform({{0, 0}}),
                    UncertainPoint::DiscreteUniform({{4, 1}}),
                    UncertainPoint::DiscreteUniform({{-3, 2}})});
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> qu(-12, 12);
  std::vector<Vec2> qs = {{0, 0}, {100, 100}, {1, 1}};
  for (int t = 0; t < 60; ++t) qs.push_back({qu(rng), qu(rng)});
  for (const auto& pts : inputs) {
    NonzeroVoronoiDiscrete vd(pts);
    int checked = 0;
    for (Vec2 q : qs) {
      // On exact-tie boundaries (margin 0) the strict-inequality
      // definition is not achievable in floating point.
      if (NonzeroNnMargin(pts, q) < 1e-6) continue;
      EXPECT_EQ(vd.Query(q), baselines::NonzeroNn(pts, q))
          << "n=" << pts.size() << " q=(" << q.x << "," << q.y << ")";
      ++checked;
    }
    EXPECT_GT(checked, 40);
  }
}

// Theorem 3.2 on the quantification index: QuantTree::NonzeroNn over
// discrete sets.
TEST(DiscreteNonzeroNn, MatchesBruteForceRandom) {
  std::mt19937_64 rng(502);
  for (int n : {1, 3, 10, 40, 120}) {
    int k = 1 + static_cast<int>(rng() % 5);
    auto pts = RandomDiscrete(n, k, rng);
    QuantTree tree(&pts);
    std::uniform_real_distribution<double> qu(-15, 15);
    for (int t = 0; t < 150; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto got = tree.NonzeroNn(q);
      auto want = baselines::NonzeroNn(pts, q);
      ASSERT_EQ(got, want) << "n=" << n << " k=" << k;
    }
  }
}

TEST(DiscreteNonzeroNn, AgreesWithDiscreteDiagram) {
  std::mt19937_64 rng(504);
  auto pts = RandomDiscrete(6, 3, rng);
  QuantTree tree(&pts);
  NonzeroVoronoiDiscrete vd(pts);
  double tol = 1e-7 * vd.window().Diagonal();
  std::uniform_real_distribution<double> qu(-13, 13);
  int checked = 0;
  for (int t = 0; t < 250; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    if (NearBoundary(pts, q, tol)) continue;
    ASSERT_EQ(tree.NonzeroNn(q), vd.Query(q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 200);
}

}  // namespace
}  // namespace core
}  // namespace unn
