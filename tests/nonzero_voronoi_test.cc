#include "core/nonzero_voronoi.h"

#include <random>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"

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
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back(UncertainPoint::Disk({pos(rng), pos(rng)}, rad(rng)));
  }
  return pts;
}

/// Skips queries that sit within `tol` of a diagram boundary, where the
/// strict-inequality answer is numerically ambiguous (general-position
/// policy; exactness on the boundary is a measure-zero concern).
bool NearBoundary(const std::vector<UncertainPoint>& pts, Vec2 q, double tol) {
  double delta = GlobalMaxDistLowerEnvelope(pts, q);
  for (const auto& p : pts) {
    if (std::abs(p.MinDist(q) - delta) < tol) return true;
  }
  return false;
}

TEST(NonzeroVoronoi, TwoDisjointDisks) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({-5, 0}, 1.0),
                                     UncertainPoint::Disk({5, 0}, 1.0)};
  NonzeroVoronoi vd(pts);
  // Near each disk only that disk can be the NN; between them, both.
  EXPECT_EQ(vd.Query({-5, 0}), (std::vector<int>{0}));
  EXPECT_EQ(vd.Query({5, 0}), (std::vector<int>{1}));
  EXPECT_EQ(vd.Query({0, 0.3}), (std::vector<int>{0, 1}));
  EXPECT_EQ(vd.Query({0.1, 7}), (std::vector<int>{0, 1}));
}

TEST(NonzeroVoronoi, ContainedDiskAlwaysCandidate) {
  // A small disk close to q and a huge far one: both are candidates
  // everywhere in between only if delta < Delta.
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 0.5),
                                     UncertainPoint::Disk({20, 0}, 0.5)};
  NonzeroVoronoi vd(pts);
  // Right next to disk 0, Delta(q) <= d(q,c0)+0.5 is small; disk 1 is 20
  // away, so only 0 qualifies.
  EXPECT_EQ(vd.Query({1, 0.2}), (std::vector<int>{0}));
}

TEST(NonzeroVoronoi, QueryMatchesBruteForceRandom) {
  std::mt19937_64 rng(101);
  for (int n : {2, 3, 5, 8, 12, 20}) {
    for (int iter = 0; iter < 6; ++iter) {
      auto pts = RandomDisks(n, rng);
      NonzeroVoronoi vd(pts);
      double tol = 1e-7 * vd.window().Diagonal();
      std::uniform_real_distribution<double> qu(-14, 14);
      int checked = 0;
      for (int t = 0; t < 250; ++t) {
        Vec2 q{qu(rng), qu(rng)};
        if (NearBoundary(pts, q, tol)) continue;
        auto got = vd.Query(q);
        auto want = baselines::NonzeroNn(pts, q);
        ASSERT_EQ(got, want) << "n=" << n << " iter=" << iter << " q=(" << q.x
                             << "," << q.y << ")";
        ++checked;
      }
      EXPECT_GT(checked, 200);
    }
  }
}

TEST(NonzeroVoronoi, QueriesInsideWindowDoNotFallBack) {
  std::mt19937_64 rng(7);
  auto pts = RandomDisks(10, rng);
  NonzeroVoronoi vd(pts);
  std::uniform_real_distribution<double> qu(-12, 12);
  int fallbacks = 0;
  for (int t = 0; t < 500; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    fallbacks += vd.IsFallbackQuery(q);
  }
  // The point-location path must carry (essentially) all in-window queries.
  EXPECT_LE(fallbacks, 2);
}

TEST(NonzeroVoronoi, StatsInvariants) {
  std::mt19937_64 rng(55);
  for (int iter = 0; iter < 8; ++iter) {
    auto pts = RandomDisks(12, rng);
    NonzeroVoronoi vd(pts);
    const auto& st = vd.stats();
    // Euler consistency: bounded faces == faces - unbounded one.
    EXPECT_EQ(st.bounded_faces, st.dcel_faces_euler - 1);
    // Lemma 2.2 aggregate bound: sum of breakpoints <= n * 2n.
    EXPECT_LE(st.gamma_breakpoints, 2 * 12 * 12);
    // Theorem 2.5: vertices O(n^3) — sanity ceiling with constant 4.
    EXPECT_LE(st.arrangement_vertices, 4 * 12 * 12 * 12);
    EXPECT_EQ(st.dropped_subarcs, 0);
    // Only the frame-exterior loop may stay unlabeled.
    EXPECT_LE(st.unlabeled_loops, 1);
    EXPECT_GT(st.label_nodes, 0);
  }
}

TEST(NonzeroVoronoi, SingleUncertainPointCoversPlane) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 2.0)};
  NonzeroVoronoi vd(pts);
  EXPECT_EQ(vd.Query({0, 0}), (std::vector<int>{0}));
  EXPECT_EQ(vd.Query({100, -50}), (std::vector<int>{0}));
  EXPECT_EQ(vd.stats().arrangement_vertices, 0);
}

TEST(NonzeroVoronoi, CoincidentDisksAlwaysBothCandidates) {
  // Identical disks: each is a nonzero-NN everywhere (gamma curves empty).
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({1, 1}, 1.0),
                                     UncertainPoint::Disk({1, 1}, 1.0),
                                     UncertainPoint::Disk({9, 9}, 1.0)};
  NonzeroVoronoi vd(pts);
  auto at_far = vd.Query({-3, -3});
  EXPECT_EQ(at_far, (std::vector<int>{0, 1}));
  auto near_third = vd.Query({9, 9});
  // Disks 0/1 are ~11 away with Delta({9,9}) = 1, so only 2 qualifies.
  EXPECT_EQ(near_third, (std::vector<int>{2}));
}

TEST(NonzeroVoronoi, OverlappingDisksRandomAgreement) {
  // Heavily overlapping disks stress the gamma_ij-empty code paths.
  std::mt19937_64 rng(303);
  auto pts = RandomDisks(10, rng, /*spread=*/2.0, /*rmax=*/3.0);
  NonzeroVoronoi vd(pts);
  double tol = 1e-7 * vd.window().Diagonal();
  std::uniform_real_distribution<double> qu(-6, 6);
  int checked = 0;
  for (int t = 0; t < 300; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    if (NearBoundary(pts, q, tol)) continue;
    ASSERT_EQ(vd.Query(q), baselines::NonzeroNn(pts, q)) << "t=" << t;
    ++checked;
  }
  EXPECT_GT(checked, 200);
}

TEST(NonzeroVoronoi, EqualRadiusDegenerateInputsMatchBruteForce) {
  std::vector<std::vector<UncertainPoint>> inputs;
  // Coincident centers with equal radii, plus two more disks.
  inputs.push_back({UncertainPoint::Disk({0, 0}, 1.0),
                    UncertainPoint::Disk({0, 0}, 1.0),
                    UncertainPoint::Disk({5, 0}, 1.0),
                    UncertainPoint::Disk({0, 5}, 2.0)});
  // Equal-radius 3x3 grid (the Theorem 2.8 regime).
  std::vector<UncertainPoint> grid;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      grid.push_back(UncertainPoint::Disk({i * 2.0, j * 2.0}, 1.0));
    }
  }
  inputs.push_back(grid);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> qu(-12, 12);
  std::vector<Vec2> qs = {{0, 0}, {100, 100}, {1, 1}};
  for (int t = 0; t < 60; ++t) qs.push_back({qu(rng), qu(rng)});
  for (const auto& pts : inputs) {
    NonzeroVoronoi vd(pts);
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

TEST(NonzeroVoronoi, ExplicitWindowRespectedAndOutsideFallsBack) {
  std::mt19937_64 rng(21);
  auto pts = RandomDisks(6, rng);
  NonzeroVoronoiOptions opts;
  opts.window = geom::Box{{-3, -3}, {3, 3}};
  NonzeroVoronoi vd(pts, opts);
  Vec2 outside{50, 50};
  EXPECT_TRUE(vd.IsFallbackQuery(outside));
  EXPECT_EQ(vd.Query(outside), baselines::NonzeroNn(pts, outside));
}

}  // namespace
}  // namespace core
}  // namespace unn
