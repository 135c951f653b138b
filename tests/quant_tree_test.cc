// Oracle parity for the quantification index (core::QuantTree) against
// the linear scans it replaces: MaxDistEnvelope must reproduce
// core::TwoSmallestMaxDist bit-identically (values and argmin ties),
// LogSurvival must match a linear log-space scan up to floating-point
// associativity — on randomized and adversarial (coincident duplicates,
// exact ties, certain points, mixed-model) inputs. Also the
// satellite regressions: sublinear search effort, and the n = 10^5
// survival product that underflows to zero unless accumulated in log
// space (the form sharded probability merges rely on).

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "prob/distance_cdf.h"
#include "serve/sharding.h"
#include "workload/generators.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The linear log-space survival oracle — the canonical definition lives
/// on the index itself.
double LogSurvivalScan(const std::vector<UncertainPoint>& pts, Vec2 q,
                       double r) {
  return QuantTree::LogSurvivalScan(pts, q, r);
}

std::vector<UncertainPoint> MixedPoints(int n, uint64_t seed) {
  auto disks = workload::RandomDisks((n + 1) / 2, seed);
  auto discrete = workload::RandomDiscrete(n / 2, 3, seed + 1);
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      pts.push_back(disks[i / 2]);
    } else {
      pts.push_back(discrete[i / 2]);
    }
  }
  return pts;
}

std::vector<Vec2> ParityQueries(const std::vector<UncertainPoint>& pts,
                                std::mt19937_64& rng) {
  std::uniform_real_distribution<double> pos(-12.0, 12.0);
  std::vector<Vec2> qs;
  for (int i = 0; i < 24; ++i) qs.push_back({pos(rng), pos(rng)});
  // Queries on top of supports hit the degenerate branches of the bounds.
  for (size_t i = 0; i < pts.size(); i += std::max<size_t>(pts.size() / 6, 1)) {
    qs.push_back(pts[i].Bounds().Center());
  }
  qs.push_back({0, 0});
  qs.push_back({250.0, -250.0});  // Far outside every support.
  return qs;
}

void ExpectEnvelopeParity(const std::vector<UncertainPoint>& pts,
                          const QuantTree& tree, Vec2 q) {
  DeltaEnvelope want = TwoSmallestMaxDist(pts, q);
  DeltaEnvelope got = tree.MaxDistEnvelope(q);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got.argbest, want.argbest);
}

TEST(QuantTreeEnvelope, MatchesScanOnRandomizedModels) {
  std::mt19937_64 rng(71);
  for (int n : {1, 2, 7, 33, 257}) {
    for (int model = 0; model < 3; ++model) {
      std::vector<UncertainPoint> pts =
          model == 0   ? workload::RandomDiscrete(n, 3, 500 + n)
          : model == 1 ? workload::RandomDisks(n, 600 + n)
                       : MixedPoints(n, 700 + n);
      QuantTree tree(&pts);
      for (Vec2 q : ParityQueries(pts, rng)) ExpectEnvelopeParity(pts, tree, q);
    }
  }
}

TEST(QuantTreeEnvelope, TiesAndCoincidentDuplicates) {
  // Four coincident disks, a symmetric ring of equal-MaxDist disks, two
  // coincident certain points, and a lone spread point: the argmin must
  // be the smallest id among the minimizers and the duplicate of the
  // minimum must land in `second`, exactly as the linear scan reports.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 4; ++i) pts.push_back(UncertainPoint::Disk({3, 0}, 1.0));
  pts.push_back(UncertainPoint::Disk({-3, 0}, 1.0));
  pts.push_back(UncertainPoint::Disk({0, 3}, 1.0));
  pts.push_back(UncertainPoint::Disk({0, -3}, 1.0));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Disk({6, -2}, 0.5));
  QuantTree tree(&pts);

  DeltaEnvelope at_origin = tree.MaxDistEnvelope({0, 0});
  EXPECT_EQ(at_origin.argbest, 7);  // First of the coincident certain points.
  EXPECT_EQ(at_origin.best, at_origin.second);  // Its duplicate ties.

  std::mt19937_64 rng(72);
  for (Vec2 q : ParityQueries(pts, rng)) ExpectEnvelopeParity(pts, tree, q);
  // On the duplicate support itself (delta = Delta = 0 for the certain
  // points) the envelope still matches.
  ExpectEnvelopeParity(pts, tree, {1.5, 1.5});
  ExpectEnvelopeParity(pts, tree, {3, 0});
}

TEST(QuantTreeEnvelope, SingleAndDegeneratePoints) {
  std::vector<UncertainPoint> one = {UncertainPoint::Disk({2, 1}, 0.5)};
  QuantTree tree(&one);
  DeltaEnvelope env = tree.MaxDistEnvelope({0, 0});
  EXPECT_EQ(env.argbest, 0);
  EXPECT_EQ(env.second, kInf);
  ExpectEnvelopeParity(one, tree, {2, 1});

  std::vector<UncertainPoint> none;
  QuantTree empty(&none);
  EXPECT_EQ(empty.MaxDistEnvelope({0, 0}).argbest, -1);
  EXPECT_EQ(empty.LogSurvival({0, 0}, 5.0), 0.0);
}

/// Discrete groups of k equally likely sites, spread up to 1.5 around
/// centres uniform in [-10, 10]^2, drawn from the caller's stream.
std::vector<UncertainPoint> SpreadDiscrete(int n, int k, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> pos(-10, 10);
  std::uniform_real_distribution<double> off(-1.5, 1.5);
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

// Discrete sets, where the envelope walk bounds a node by
// sqrt(d(q, box)^2 + V_min) and skips a point by its own variance bound:
// random 4-site and 3-site groups, and 3-site groups snapped to a
// half-unit grid with an exact duplicate group, where Delta ties are
// common. The envelope equals the scan's bit for bit, the argmin on ties
// included (the smallest minimizing id).
TEST(QuantTreeEnvelope, DiscreteSetsAndGridTies) {
  std::mt19937_64 rng4(503);
  auto four = SpreadDiscrete(60, 4, rng4);
  QuantTree four_tree(&four);
  std::uniform_real_distribution<double> qu(-15, 15);
  for (int t = 0; t < 300; ++t) {
    ExpectEnvelopeParity(four, four_tree, {qu(rng4), qu(rng4)});
  }

  std::mt19937_64 rng(505);
  std::uniform_int_distribution<int> grid(-8, 8);
  int ties = 0;
  for (int set = 0; set < 6; ++set) {
    std::vector<UncertainPoint> pts = SpreadDiscrete(20 + 15 * set, 3, rng);
    if (set % 2 == 1) {
      for (auto& p : pts) {
        std::vector<Vec2> sites;
        for (int s = 0; s < 3; ++s) {
          sites.push_back({grid(rng) * 0.5, grid(rng) * 0.5});
        }
        p = UncertainPoint::DiscreteUniform(sites);
      }
      pts.push_back(pts[0]);  // An exact duplicate group.
    }
    QuantTree tree(&pts);
    for (int t = 0; t < 200; ++t) {
      Vec2 q = t % 2 == 0 ? Vec2{qu(rng), qu(rng)}
                          : Vec2{grid(rng) * 0.5, grid(rng) * 0.5};
      SCOPED_TRACE(testing::Message() << "set=" << set << " t=" << t);
      ExpectEnvelopeParity(pts, tree, q);
      DeltaEnvelope want = TwoSmallestMaxDist(pts, q);
      if (want.best == want.second) ++ties;
    }
  }
  EXPECT_GT(ties, 0);
}

// Sites that coincide but carry uneven weights: the computed weighted mean
// lands an ulp or more off the site, so for a query on the site the
// unguarded bound sqrt(d(q, mean)^2 + V) would exceed Delta(q) = 0 and
// prune the true minimizers. Each point is repeated 20 times (ties across
// leaves of 8), at coordinates 1, 1e8 and 1e15; queries sit on the site,
// one ulp beside it, a little farther off, and at |q| = 1e160, where
// d(q, box)^2 overflows and the bounds fall back to hypot.
TEST(QuantTreeEnvelope, CoincidentSitesOffTheirComputedMean) {
  const std::vector<double> w = {1.0 / 6, 4.0 / 6, 1.0 / 6};
  for (double c : {1.0, 1e8, 1e15}) {
    SCOPED_TRACE(testing::Message() << "c=" << c);
    const Vec2 site{c, c};
    const Vec2 beside{std::nextafter(c, kInf), c};
    const Vec2 off{c, c * (1 + 1e-9)};
    std::vector<UncertainPoint> pts;
    for (int i = 0; i < 20; ++i) {
      pts.push_back(UncertainPoint::Discrete({site, site, site}, w));
      pts.push_back(UncertainPoint::Discrete({beside, beside, beside}, w));
      pts.push_back(UncertainPoint::Discrete({site, off, site}, w));
    }
    // The premise: the mean, summed as the tree sums it, is off the site.
    Vec2 mu{0, 0};
    for (double wi : pts[0].weights()) mu = mu + site * wi;
    ASSERT_TRUE(mu.x != c || mu.y != c);

    QuantTree tree(&pts);
    for (Vec2 q : {site, beside, Vec2{std::nextafter(c, 0.0), c}, off,
                   Vec2{c * (1 - 1e-9), c * (1 + 1e-9)}, Vec2{1e160, 1e160},
                   Vec2{-1e160, c}}) {
      SCOPED_TRACE(testing::Message() << "q=(" << q.x << "," << q.y << ")");
      ExpectEnvelopeParity(pts, tree, q);
      EXPECT_EQ(tree.NonzeroNn(q), baselines::NonzeroNn(pts, q));
    }
  }
}

// Coordinates near 1e-162, where squared distances turn denormal and may
// round up past the distance itself (sqrt(4e-324) = 2.2e-162 > 2e-162),
// so every bound falls back to hypot there. Two leaves of eight points,
// on either side of the query: both leaf bounds would round to 2.2e-162,
// the left leaf is walked first and tightens the runner-up to 2.15e-162,
// and the right leaf holds the nearest point (2e-162), last in id order.
TEST(QuantTreeEnvelope, DenormalSquaresFallBackToHypot) {
  for (bool disks : {false, true}) {
    SCOPED_TRACE(disks ? "disks" : "discrete");
    auto point = [&](double x) {
      return disks ? UncertainPoint::Disk({x, 0}, 1e-170)
                   : UncertainPoint::Discrete({{x, 0}}, {1.0});
    };
    std::vector<UncertainPoint> pts;
    for (int i = 0; i < 8; ++i) pts.push_back(point(-2.1e-162 - i * 5e-164));
    for (int i = 0; i < 7; ++i) pts.push_back(point(2.5e-162 + i * 5e-164));
    pts.push_back(point(2e-162));
    QuantTree tree(&pts);
    for (Vec2 q : {Vec2{0, 0}, Vec2{0, 1e-170}}) {
      SCOPED_TRACE(testing::Message() << "q=(" << q.x << "," << q.y << ")");
      ExpectEnvelopeParity(pts, tree, q);
      EXPECT_EQ(tree.NonzeroNn(q), baselines::NonzeroNn(pts, q));
      EXPECT_EQ(tree.ExpectedDistanceNn(q),
                baselines::ExpectedDistanceNn(pts, q));
    }
  }
}

// A point whose three sites coincide, off their computed mean, and a query
// from which d(q, mean) - radius rounds one ulp above the sites' distance
// (two cases found by a random search). With a second point half as far
// again behind the sites, point 0 is the argmin with MinDist = Delta(q),
// and the support walk's prune, at the node and at the point, must not
// lose it: unwidened, both cases answered {} instead of {0}.
TEST(QuantTreeEnvelope, SupportBoundRoundingKeepsTheArgmin) {
  const std::vector<double> w(3, 1.0 / 3);
  const std::pair<Vec2, Vec2> cases[] = {
      {{0x1.fb6531ec9bd77p-11, -0x1.7684e890ce742p-11},
       {0x1.850f3ffb6272bp-9, 0x1.75f36527655bcp-8}},
      {{0x1.b8e6c74d54212p+29, -0x1.4f2abf9bea053p+32},
       {0x1.82224a8391c27p+32, -0x1.92cb58cd73e1ap+33}},
  };
  for (auto [site, q] : cases) {
    SCOPED_TRACE(testing::Message() << "q=(" << q.x << "," << q.y << ")");
    std::vector<UncertainPoint> pts = {
        UncertainPoint::Discrete({site, site, site}, w),
        UncertainPoint::Discrete({site + (site - q) * 0.5}, {1.0})};
    QuantTree tree(&pts);
    ASSERT_EQ(baselines::NonzeroNn(pts, q), std::vector<int>{0});
    EXPECT_EQ(tree.NonzeroNn(q), std::vector<int>{0});
    std::vector<int> within;
    tree.SupportsWithin(q, pts[0].MinDist(q), &within);
    EXPECT_EQ(within, std::vector<int>{0});
    EXPECT_EQ(Engine(pts).NonzeroNn(q), std::vector<int>{0});
  }
}

// The effort pin of the discrete envelope, on the point set of the
// discrete-batch benchmark: with the variance bounds the walk evaluates
// MaxDist for about five points per query; with the box distance alone
// it evaluates 11.4, so the pin fails if the variance bounds stop
// pruning.
TEST(QuantTreeEnvelope, DiscreteEffortPin) {
  constexpr int kN = 20000;
  auto pts = workload::RandomDiscrete(kN, 4, 20120521);
  QuantTree tree(&pts);
  const double spread = std::sqrt(static_cast<double>(kN)) * 2.5;
  std::mt19937_64 rng(30);
  std::uniform_real_distribution<double> pos(-spread, spread);
  constexpr int kQueries = 1000;
  QuantTree::QueryStats stats;
  for (int i = 0; i < kQueries; ++i) {
    Vec2 q{pos(rng), pos(rng)};
    if (i % 100 == 0) ExpectEnvelopeParity(pts, tree, q);
    tree.MaxDistEnvelope(q, &stats);
  }
  EXPECT_LE(stats.points_evaluated, 6 * kQueries);
}

TEST(QuantTreeSurvival, MatchesLogScanOnRandomizedModels) {
  std::mt19937_64 rng(73);
  for (int n : {1, 6, 40, 150}) {
    for (int model = 0; model < 3; ++model) {
      std::vector<UncertainPoint> pts =
          model == 0   ? workload::RandomDiscrete(n, 2, 800 + n)
          : model == 1 ? workload::RandomDisks(n, 900 + n)
                       : MixedPoints(n, 1000 + n);
      QuantTree tree(&pts);
      for (Vec2 q : ParityQueries(pts, rng)) {
        for (double r : {0.1, 1.0, 4.0, 20.0}) {
          double want = LogSurvivalScan(pts, q, r);
          double got = tree.LogSurvival(q, r);
          if (std::isinf(want)) {
            EXPECT_EQ(got, want) << "q=(" << q.x << "," << q.y << ") r=" << r;
          } else {
            EXPECT_NEAR(got, want, 1e-12 * (1.0 + std::abs(want)))
                << "q=(" << q.x << "," << q.y << ") r=" << r;
          }
        }
      }
    }
  }
}

TEST(QuantTreeSurvival, VisitsOnlyIntersectingSupports) {
  // A tight far cluster and three near disks: a small ball around the
  // origin intersects only the near supports, so the cluster contributes
  // factor 1 without being evaluated.
  std::vector<UncertainPoint> pts;
  std::mt19937_64 rng(74);
  std::uniform_real_distribution<double> jit(-0.5, 0.5);
  for (int i = 0; i < 1000; ++i) {
    pts.push_back(UncertainPoint::Disk({100.0 + jit(rng), jit(rng)}, 0.3));
  }
  pts.push_back(UncertainPoint::Disk({1, 0}, 0.5));
  pts.push_back(UncertainPoint::Disk({0, 1}, 0.5));
  pts.push_back(UncertainPoint::Disk({-1, -1}, 0.5));
  QuantTree tree(&pts);

  // r = 1.2 cuts each near disk partially (cdf strictly inside (0, 1)).
  QuantTree::QueryStats stats;
  double got = tree.LogSurvival({0, 0}, 1.2, &stats);
  EXPECT_EQ(stats.points_evaluated, 3);
  EXPECT_NEAR(got, LogSurvivalScan(pts, {0, 0}, 1.2), 1e-12);
}

TEST(QuantTreeEnvelope, SublinearEffortWithDistantCluster) {
  // Same geometry for the envelope: once the near points pin best/second,
  // the cluster's lower bound (~99) prunes it wholesale.
  std::vector<UncertainPoint> pts;
  std::mt19937_64 rng(75);
  std::uniform_real_distribution<double> jit(-0.5, 0.5);
  for (int i = 0; i < 1000; ++i) {
    pts.push_back(UncertainPoint::Disk({100.0 + jit(rng), jit(rng)}, 0.3));
  }
  pts.push_back(UncertainPoint::Disk({1, 0}, 0.5));
  pts.push_back(UncertainPoint::Disk({0, 1}, 0.5));
  pts.push_back(UncertainPoint::Disk({-1, -1}, 0.5));
  QuantTree tree(&pts);

  QuantTree::QueryStats stats;
  ExpectEnvelopeParity(pts, tree, {0, 0});
  tree.MaxDistEnvelope({0, 0}, &stats);
  EXPECT_LT(stats.points_evaluated, 200);  // n = 1003.
}

TEST(QuantTreeEnvelope, NodesVisitedGrowsSublinearlyAtScale) {
  // The acceptance regression for the traversal counters: against the
  // linear oracle (which evaluates all n points per query), the indexed
  // envelope search at n = 10^5 must (a) touch a vanishing fraction of
  // the dataset and (b) grow per-query nodes-visited far slower than n —
  // a 10x larger input may cost at most ~2x more traversal.
  auto effort_per_query = [](int n) {
    auto pts = workload::RandomDisks(n, 4000 + n);
    QuantTree tree(&pts);
    const double spread = std::sqrt(static_cast<double>(n)) * 2.5;
    std::mt19937_64 rng(82);
    std::uniform_real_distribution<double> pos(-spread, spread);
    QuantTree::QueryStats total;
    constexpr int kQueries = 50;
    for (int i = 0; i < kQueries; ++i) {
      QuantTree::QueryStats stats;
      tree.MaxDistEnvelope({pos(rng), pos(rng)}, &stats);
      EXPECT_GT(stats.nodes_visited, 0);
      total.Add(stats);
    }
    return std::make_pair(total.nodes_visited / kQueries,
                          total.points_evaluated / kQueries);
  };

  auto [nodes_small, points_small] = effort_per_query(10000);
  auto [nodes_large, points_large] = effort_per_query(100000);
  // Far below the linear oracle's 1e5 evaluated points per query.
  EXPECT_LT(points_large, 100000 / 50);
  EXPECT_LT(nodes_large, 100000 / 50);
  // Sublinear growth: 10x the input, at most ~2x the traversal.
  EXPECT_LT(nodes_large, 2 * nodes_small + 16);
  EXPECT_LT(points_large, 2 * points_small + 16);
}

// ---------------------------------------------------------------------------
// Engine hooks: index-backed, StructuresBuilt-visible, log-space survival
// ---------------------------------------------------------------------------

TEST(EngineQuantHooks, MatchScansAndBuildOnce) {
  auto pts = MixedPoints(60, 79);
  Engine engine(pts, {});
  EXPECT_EQ(engine.StructuresBuilt(), 0);
  std::mt19937_64 rng(80);
  for (Vec2 q : ParityQueries(pts, rng)) {
    DeltaEnvelope want = TwoSmallestMaxDist(pts, q);
    DeltaEnvelope got = engine.MaxDistEnvelope(q);
    EXPECT_EQ(got.best, want.best);
    EXPECT_EQ(got.second, want.second);
    EXPECT_EQ(got.argbest, want.argbest);
    for (double r : {0.5, 3.0}) {
      double want_log = LogSurvivalScan(pts, q, r);
      double got_log = engine.LogSurvivalProbability(q, r);
      if (std::isinf(want_log)) {
        EXPECT_EQ(got_log, want_log);
      } else {
        EXPECT_NEAR(got_log, want_log, 1e-12 * (1.0 + std::abs(want_log)));
      }
    }
  }
  // All of the above is served by the one quantification index.
  EXPECT_EQ(engine.StructuresBuilt(), 1);
}

TEST(EngineQuantHooks, SurvivalUnderflowStaysExactInLogSpace) {
  // 10^5 points, each with a 0.024-weight site inside the ball: every
  // survival factor is 1 - 0.024, so the full product is
  // exp(1e5 * log1p(-0.024)) ~ exp(-2430) — far below the smallest
  // double. The naive factor-by-factor product (the old implementation)
  // underflows into denormal garbage, and the product of the four
  // per-shard survivals underflows to exactly 0.0 even though each
  // factor is representable; the log-space hook keeps the merge exact.
  const int n = 100000;
  const double w = 0.024;
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    double ang = 6.283185307179586 * i / n;
    Vec2 near{5.0 * std::cos(ang), 5.0 * std::sin(ang)};
    Vec2 far{1000.0 * std::cos(ang), 1000.0 * std::sin(ang)};
    pts.push_back(UncertainPoint::Discrete({near, far}, {w, 1.0 - w}));
  }
  Vec2 q{0, 0};
  double r = 6.0;

  // The regression: the naive factor-by-factor product collapses into the
  // denormal range (near-1 factors pin it at a few ulps above zero), a
  // catastrophic ~10^700x error against the true exp(-2430).
  double naive = 1.0;
  for (const UncertainPoint& p : pts) {
    naive *= 1.0 - prob::DistanceCdf(p, q, r);
  }
  EXPECT_LT(naive, 1e-300);

  Engine whole(pts, {});
  double want_log = n * std::log1p(-w);
  double got_log = whole.LogSurvivalProbability(q, r);
  EXPECT_TRUE(std::isfinite(got_log));
  EXPECT_NEAR(got_log, want_log, 1e-9 * std::abs(want_log));
  EXPECT_EQ(std::exp(got_log), 0.0);  // exp still underflows.

  // Per-shard factorization in log space: the shard sums reproduce the
  // whole-set log survival even though the shard survivals' product
  // underflows to zero.
  serve::ShardedEngine sharded(pts, {}, {4, serve::Partitioning::kRoundRobin});
  double log_sum = 0.0;
  double prod = 1.0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    double shard_log = sharded.shard(s).LogSurvivalProbability(q, r);
    EXPECT_TRUE(std::isfinite(shard_log));
    EXPECT_GT(std::exp(shard_log), 0.0);
    log_sum += shard_log;
    prod *= std::exp(shard_log);
  }
  EXPECT_EQ(prod, 0.0);
  EXPECT_NEAR(log_sum, got_log, 1e-9 * std::abs(got_log));
}

}  // namespace
}  // namespace core
}  // namespace unn
