#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/expected_nn.h"
#include "core/quant_tree.h"
#include "engine/engine.h"
#include "prob/distance_cdf.h"
#include "prob/distributions.h"
#include "workload/generators.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

TEST(ExpectedNn, SquaredDistanceClosedFormMatchesSampling) {
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Disk({2, 1}, 3.0),
      UncertainPoint::Disk({-4, 0}, 1.0, DiskPdf::kTruncatedGaussian),
      UncertainPoint::Discrete({{0, 0}, {2, 2}, {4, 0}}, {0.5, 0.25, 0.25})};
  ExpectedNn enn(&pts);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 3; ++i) {
    Vec2 q{1.5, -2.0};
    double mc = 0;
    const int kSamples = 400000;
    for (int s = 0; s < kSamples; ++s) {
      mc += DistSq(q, prob::SamplePoint(pts[i], rng));
    }
    mc /= kSamples;
    EXPECT_NEAR(enn.ExpectedSquaredDistance(i, q), mc,
                0.02 * (1 + std::abs(mc)))
        << "i=" << i;
  }
}

TEST(ExpectedNn, QuerySquaredMatchesLinearScan) {
  auto pts = workload::RandomDisks(80, /*seed=*/7);
  ExpectedNn enn(&pts);
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> qu(-25, 25);
  for (int t = 0; t < 300; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    int got = enn.QuerySquared(q);
    int want = 0;
    for (int i = 1; i < 80; ++i) {
      if (enn.ExpectedSquaredDistance(i, q) <
          enn.ExpectedSquaredDistance(want, q)) {
        want = i;
      }
    }
    ASSERT_NEAR(enn.ExpectedSquaredDistance(got, q),
                enn.ExpectedSquaredDistance(want, q), 1e-12);
  }
}

TEST(ExpectedNn, ExpectedDistanceMatchesSampling) {
  UncertainPoint p = UncertainPoint::Disk({0, 0}, 2.0);
  std::vector<UncertainPoint> one = {p};
  ExpectedNn enn(&one);
  std::mt19937_64 rng(11);
  Vec2 q{3, 1};
  double mc = 0;
  const int kSamples = 400000;
  for (int s = 0; s < kSamples; ++s) mc += Dist(q, prob::SamplePoint(p, rng));
  mc /= kSamples;
  EXPECT_NEAR(prob::ExpectedDistance(p, q), mc, 0.01);
  // Jensen: E[d] <= sqrt(E[d^2]).
  EXPECT_LE(prob::ExpectedDistance(p, q),
            std::sqrt(enn.ExpectedSquaredDistance(0, q)) + 1e-9);
}

TEST(QuantTreeExpected, ExpectedDistanceNnMatchesLinearScan) {
  // A small disk set, and one deep enough for the box-distance walk's
  // Jensen skips to cut it short, with discrete points among the disks.
  auto mixed = workload::RandomDisks(100, /*seed=*/17, 20.0, 0.2, 2.0);
  for (const UncertainPoint& p : workload::RandomDiscrete(100, 3, 19, 20.0)) {
    mixed.push_back(p);
  }
  // All discrete, with exact duplicates: their E[d] tie, and the smaller
  // id must win.
  auto discrete = workload::RandomDiscrete(300, 4, /*seed=*/29, 20.0);
  for (int i = 0; i < 60; ++i) discrete.push_back(discrete[5 * i]);
  struct Case {
    std::vector<UncertainPoint> pts;
    std::uint64_t seed;
    double extent;
    int queries;
  };
  const Case cases[] = {
      {workload::RandomDisks(25, /*seed=*/13, 8.0, 0.2, 2.5), 15, 10.0, 40},
      {mixed, 23, 30.0, 30},
      {discrete, 31, 25.0, 60}};
  for (const Case& c : cases) {
    QuantTree tree(&c.pts);
    std::mt19937_64 rng(c.seed);
    std::uniform_real_distribution<double> qu(-c.extent, c.extent);
    for (int t = 0; t < c.queries; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      ASSERT_EQ(tree.ExpectedDistanceNn(q),
                baselines::ExpectedDistanceNn(c.pts, q))
          << "n=" << c.pts.size() << " t=" << t;
    }
  }
}

TEST(QuantTreeExpected, SkewedWeightsKeepTheWinner) {
  // Point 1's weighted mean (0.2, 0) is 100.2 from q, as is its E[d]; its
  // site centroid (5, 0) is 105 away. Point 0, one site 100.3 from q,
  // sits with seven far fillers in the other half of the tree, so a search
  // that met it first would skip point 1 by any bound above 100.3: only a
  // mean anchor keeps the winner.
  const Vec2 q{-100, 0};
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Discrete({{-100, 100.3}}, {1.0}),
      UncertainPoint::Discrete({{0, 0}, {10, 0}}, {0.98, 0.02})};
  for (int i = 0; i < 7; ++i) {
    pts.push_back(UncertainPoint::Discrete({{-100, 110.0 + 3 * i}}, {1.0}));
    pts.push_back(UncertainPoint::Discrete({{20.0 + i, -3.0 + i}}, {1.0}));
  }
  QuantTree tree(&pts);
  EXPECT_EQ(baselines::ExpectedDistanceNn(pts, q), 1);
  EXPECT_EQ(tree.ExpectedDistanceNn(q), 1);
}

TEST(EngineThreshold, HasNoFalseNegatives) {
  auto pts = workload::RandomDiscrete(15, 3, /*seed=*/21, 8.0, 2.5);
  // kAuto quantifies discrete input exactly, so even this loose
  // Config::eps plays no part: Threshold reports exactly {pi >= tau}.
  Engine::Config cfg;
  cfg.eps = 0.5;
  Engine engine(pts, cfg);
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> qu(-10, 10);
  for (double tau : {0.1, 0.25, 0.5}) {
    for (int t = 0; t < 40; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto got = engine.Threshold(q, tau);
      auto exact = baselines::QuantificationProbabilities(pts, q);
      std::vector<bool> reported(pts.size(), false);
      double prev = 2.0;
      for (auto [id, p] : got) {
        reported[id] = true;
        EXPECT_LE(p, prev + 1e-12);  // Sorted decreasing.
        prev = p;
      }
      for (size_t i = 0; i < pts.size(); ++i) {
        if (exact[i] >= tau) {
          EXPECT_TRUE(reported[i])
              << "missed i=" << i << " with pi=" << exact[i] << " tau=" << tau;
        }
      }
    }
  }
}

TEST(EngineTopK, ReturnsHighestEstimates) {
  auto pts = workload::RandomDiscrete(20, 3, /*seed=*/29, 8.0, 2.5);
  Engine::Config cfg;
  cfg.eps = 0.01;
  Engine engine(pts, cfg);
  Vec2 q{0.5, 0.5};
  auto top3 = engine.TopK(q, 3);
  ASSERT_LE(top3.size(), 3u);
  ASSERT_GE(top3.size(), 1u);
  auto exact = baselines::QuantificationProbabilities(pts, q);
  // The top-1 estimate must identify a point whose true probability is
  // within 2 eps of the true maximum.
  double true_max = *std::max_element(exact.begin(), exact.end());
  EXPECT_GE(exact[top3[0].first], true_max - 0.02 - 1e-9);
}

TEST(Generators, LowerBoundShapesAndSizes) {
  auto cubic = workload::LowerBoundCubic(16, 1);
  EXPECT_EQ(cubic.size(), 16u);
  auto equal = workload::LowerBoundCubicEqualRadius(12, 1);
  EXPECT_EQ(equal.size(), 12u);
  for (const auto& p : equal) EXPECT_DOUBLE_EQ(p.radius(), 1.0);
  auto quad = workload::LowerBoundQuadratic(10, 1);
  EXPECT_EQ(quad.size(), 10u);
  auto vpr = workload::LowerBoundVprQuartic(6, 1);
  EXPECT_EQ(vpr.size(), 6u);
  for (const auto& p : vpr) EXPECT_EQ(p.sites().size(), 2u);
}

TEST(Generators, DisjointDisksAreDisjointWithBoundedRatio) {
  for (double lambda : {1.0, 2.0, 5.0}) {
    auto pts = workload::DisjointDisks(30, lambda, 3);
    double rmin = 1e18, rmax = 0;
    for (const auto& p : pts) {
      rmin = std::min(rmin, p.radius());
      rmax = std::max(rmax, p.radius());
    }
    EXPECT_LE(rmax / rmin, lambda + 1e-9);
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t j = i + 1; j < pts.size(); ++j) {
        EXPECT_GT(Dist(pts[i].center(), pts[j].center()),
                  pts[i].radius() + pts[j].radius())
            << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace unn
