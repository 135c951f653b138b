#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "core/monte_carlo_pnn.h"
#include "core/pnn_common.h"
#include "core/quant_tree.h"
#include "core/spiral_search.h"
#include "engine/engine.h"
#include "prob/distributions.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

/// hat-pi_id from one MonteCarloPnn::Query answer (0 for an id that never
/// won an instantiation).
double EstimateOf(const std::vector<std::pair<int, double>>& est, int id) {
  for (auto [j, p] : est) {
    if (j == id) return p;
  }
  return 0.0;
}

std::vector<UncertainPoint> RandomDiscrete(int n, int k, std::mt19937_64& rng,
                                           double spread = 10.0,
                                           double cluster = 1.0,
                                           bool uniform_weights = true) {
  std::uniform_real_distribution<double> pos(-spread, spread);
  std::uniform_real_distribution<double> off(-cluster, cluster);
  std::uniform_real_distribution<double> wu(0.2, 1.0);
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    double cx = pos(rng), cy = pos(rng);
    std::vector<Vec2> sites;
    std::vector<double> w;
    double total = 0;
    for (int s = 0; s < k; ++s) {
      double ox = off(rng), oy = off(rng);
      sites.push_back({cx + ox, cy + oy});
      double ws = uniform_weights ? 1.0 : wu(rng);
      w.push_back(ws);
      total += ws;
    }
    for (auto& x : w) x /= total;
    pts.push_back(UncertainPoint::Discrete(sites, w));
  }
  return pts;
}

TEST(ExactPnn, HandComputedTwoPointCase) {
  // P0 = {(1,0)} certain; P1 = {(2,0) w .5, (3,0) w .5}; q at origin.
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Discrete({{1, 0}}, {1.0}),
      UncertainPoint::Discrete({{2, 0}, {3, 0}}, {0.5, 0.5})};
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  EXPECT_NEAR(pi[0], 1.0, 1e-12);
  EXPECT_NEAR(pi[1], 0.0, 1e-12);
}

TEST(ExactPnn, HandComputedInterleavedCase) {
  // P0 = {d=1 w .5, d=4 w .5}; P1 = {d=2 w 1}; pi = (0.5, 0.5).
  std::vector<UncertainPoint> pts = {
      UncertainPoint::Discrete({{1, 0}, {4, 0}}, {0.5, 0.5}),
      UncertainPoint::Discrete({{0, 2}}, {1.0})};
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  EXPECT_NEAR(pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[1], 0.5, 1e-12);
}

TEST(ExactPnn, LemmaFourOneHalfPowers) {
  // The Lemma 4.1 configuration: every P_i is {p_i w .5, far_i w .5} with
  // p_i the (i+1)-st closest point and far_0 the closest far location. Then
  // pi_i = 0.5^{i+1}, plus the all-at-far event 0.5^n won by P_0.
  int n = 6;
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(UncertainPoint::Discrete(
        {{static_cast<double>(i + 1), 0}, {100.0 + i, 0}}, {0.5, 0.5}));
  }
  auto pi = baselines::QuantificationProbabilities(pts, {0, 0});
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], std::pow(0.5, i + 1) + (i == 0 ? std::pow(0.5, n) : 0),
                1e-12)
        << i;
  }
}

TEST(ExactPnn, ExactTieGivesNoMassOutsideNonzeroNn) {
  // P0 = {(1,0) w .5, (5,0) w .5} and P1 = {(1,0)} certain; q at the
  // origin. At distance 1 both arrive together and P1 certainly does, so
  // P0 is never strictly nearest: NN!=0 = {1} (delta_0 = 1 = Delta_1),
  // pi_0 = 0, pi_1 = .5 (P0 at distance 5), and the tied mass .5 goes to
  // nobody. Listing the points in either order must agree.
  const Vec2 q{0, 0};
  const UncertainPoint two_sites =
      UncertainPoint::Discrete({{1, 0}, {5, 0}}, {0.5, 0.5});
  const UncertainPoint certain = UncertainPoint::Discrete({{1, 0}}, {1.0});
  for (bool swap : {false, true}) {
    std::vector<UncertainPoint> pts = {two_sites, certain};
    if (swap) std::swap(pts[0], pts[1]);
    const int p1 = swap ? 0 : 1;
    EXPECT_EQ(baselines::NonzeroNn(pts, q), std::vector<int>{p1});
    const std::vector<std::pair<int, double>> want = {{p1, 0.5}};
    EXPECT_EQ(DiscreteQuantification(pts, q), want) << "swap=" << swap;
    Engine engine(pts);  // kAuto: exact Eq. (2) on discrete input.
    EXPECT_EQ(engine.Probabilities(q), want) << "swap=" << swap;
    EXPECT_EQ(engine.MostProbableNn(q), p1) << "swap=" << swap;
    EXPECT_EQ(engine.NonzeroNn(q), std::vector<int>{p1});
  }
  // Weights may sum to 1 within 1e-9. P0's sum to 1 - 1e-10, yet P0 must
  // still be exhausted at its last site (2,0): then P1's site there
  // scores 0 and P1, outside NN!=0 (delta_1 = 2 = Delta_0), gets no mass.
  // pi_0 = 1/2 + 1/2 * 1/2 (P1 beyond distance 2).
  const std::vector<UncertainPoint> short_sum = {
      UncertainPoint::Discrete({{1, 0}, {2, 0}}, {0.5, 0.4999999999}),
      UncertainPoint::Discrete({{2, 0}, {9, 0}}, {0.5, 0.5})};
  EXPECT_EQ(baselines::NonzeroNn(short_sum, q), std::vector<int>{0});
  const std::vector<std::pair<int, double>> exact =
      DiscreteQuantification(short_sum, q);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].first, 0);
  EXPECT_NEAR(exact[0].second, 0.75, 1e-9);
  Engine engine(short_sum);
  EXPECT_EQ(engine.Probabilities(q), exact);
  EXPECT_EQ(engine.MostProbableNn(q), 0);
}

TEST(ExactPnn, ProbabilitiesSumToOneRandomized) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 40; ++iter) {
    auto pts = RandomDiscrete(2 + iter % 12, 1 + iter % 5, rng, 10.0, 2.0,
                              iter % 2 == 0);
    std::uniform_real_distribution<double> qu(-12, 12);
    Vec2 q{qu(rng), qu(rng)};
    auto pi = baselines::QuantificationProbabilities(pts, q);
    double sum = 0;
    for (double p : pi) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "iter=" << iter;
  }
}

TEST(ExactPnn, DiscreteQuantificationReturnsPositiveOnly) {
  std::mt19937_64 rng(43);
  auto pts = RandomDiscrete(8, 3, rng);
  auto out = DiscreteQuantification(pts, {0, 0});
  double sum = 0;
  for (auto [id, p] : out) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1].first, out[i].first);
}

TEST(ExactPnn, IntegrationMatchesMonteCarloOnDisks) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({3, 0}, 1.5),
                                     UncertainPoint::Disk({0, 4}, 0.8)};
  MonteCarloPnnOptions opts;
  opts.s_override = 200000;
  opts.seed = 99;
  QuantTree tree(&pts);
  MonteCarloPnn mc(&tree, opts);
  for (Vec2 q : {Vec2{1.2, 0.7}, Vec2{0, 0}, Vec2{2, 2}}) {
    auto integrated = IntegrateAllQuantifications(pts, q, 1e-9);
    double sum = 0;
    for (auto [id, p] : integrated) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-6);  // Eq. (1) integrates to 1 over all i.
    auto est = mc.Query(q);
    for (auto [id, p] : integrated) {
      EXPECT_NEAR(p, EstimateOf(est, id), 0.01)
          << "id=" << id << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

TEST(MonteCarloPnn, DiscreteErrorWithinEps) {
  std::mt19937_64 rng(77);
  auto pts = RandomDiscrete(8, 3, rng, 6.0, 3.0);
  MonteCarloPnnOptions opts;
  opts.s_override = 40000;
  QuantTree tree(&pts);
  MonteCarloPnn mc(&tree, opts);
  std::uniform_real_distribution<double> qu(-8, 8);
  // With s = 40000 the Chernoff bound gives eps ~ sqrt(ln(2/d)/2s) ~ 0.01.
  for (int t = 0; t < 20; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    auto exact = baselines::QuantificationProbabilities(pts, q);
    auto est = mc.Query(q);
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(EstimateOf(est, static_cast<int>(i)), exact[i], 0.02)
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(MonteCarloPnn, RequiredSamplesScalesInverseEpsSquared) {
  int s1 = MonteCarloPnn::RequiredSamples(10, 4, 0.2, 0.05);
  int s2 = MonteCarloPnn::RequiredSamples(10, 4, 0.1, 0.05);
  int s4 = MonteCarloPnn::RequiredSamples(10, 4, 0.05, 0.05);
  EXPECT_NEAR(static_cast<double>(s2) / s1, 4.0, 0.1);
  EXPECT_NEAR(static_cast<double>(s4) / s2, 4.0, 0.1);
}

TEST(MonteCarloPnn, EstimatesSumToAtMostOne) {
  std::mt19937_64 rng(78);
  auto pts = RandomDiscrete(10, 2, rng);
  MonteCarloPnnOptions opts;
  opts.s_override = 5000;
  QuantTree tree(&pts);
  MonteCarloPnn mc(&tree, opts);
  auto est = mc.Query({0.3, -0.2});
  double sum = 0;
  for (auto [id, p] : est) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);  // Counts partition the instantiations.
}

TEST(MonteCarloPnn, CoincidentPointsSmallestIdWinsEveryInstantiation) {
  // Every instantiation ties exactly across all five certain points; the
  // winner rule is the smaller id, so id 0 takes all s draws.
  std::vector<UncertainPoint> pts(5, UncertainPoint::Discrete({{1, 1}}, {1.0}));
  MonteCarloPnnOptions opts;
  opts.s_override = 64;
  QuantTree tree(&pts);
  MonteCarloPnn mc(&tree, opts);
  for (Vec2 q : {Vec2{0, 0}, Vec2{1, 1}, Vec2{-3, 8}}) {
    auto est = mc.Query(q);
    ASSERT_EQ(est.size(), 1u);
    EXPECT_EQ(est[0].first, 0);
    EXPECT_EQ(est[0].second, 1.0);
  }
}

TEST(MonteCarloPnn, SameSeedSameEstimates) {
  std::mt19937_64 rng(79);
  auto pts = RandomDiscrete(12, 3, rng, 4.0, 2.0);
  pts.push_back(UncertainPoint::Disk({0.5, 0.5}, 1.5));
  MonteCarloPnnOptions opts;
  opts.s_override = 300;
  opts.seed = 1234;
  QuantTree tree(&pts);
  MonteCarloPnn a(&tree, opts);
  MonteCarloPnn b(&tree, opts);
  std::uniform_real_distribution<double> qu(-6, 6);
  for (int t = 0; t < 20; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    EXPECT_EQ(a.Query(q), b.Query(q)) << "t=" << t;
  }
}

TEST(MonteCarloPnn, NonFiniteQueryHasNoEstimates) {
  std::mt19937_64 rng(80);
  auto pts = RandomDiscrete(6, 2, rng);
  pts.push_back(UncertainPoint::Disk({0, 0}, 1.0));
  MonteCarloPnnOptions opts;
  opts.s_override = 32;
  QuantTree tree(&pts);
  MonteCarloPnn mc(&tree, opts);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(mc.Query({nan, 0}).empty());
  EXPECT_TRUE(mc.Query({0, nan}).empty());
  EXPECT_TRUE(mc.Query({inf, 0}).empty());
  // Inside a batch the non-finite lane is empty and its neighbours are
  // answered as if alone.
  std::vector<Vec2> qs = {{0.5, 0.5}, {nan, nan}, {1, -1}};
  auto batch = mc.QueryBatch(qs);
  EXPECT_EQ(batch[0], mc.Query(qs[0]));
  EXPECT_TRUE(batch[1].empty());
  EXPECT_EQ(batch[2], mc.Query(qs[2]));
}

/// Discrete points plus uniform and truncated-Gaussian disks.
std::vector<UncertainPoint> KeyedDrawPoints(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pts = RandomDiscrete(10, 3, rng, 4.0, 2.0);
  std::uniform_real_distribution<double> u(-4, 4);
  for (int i = 0; i < 10; ++i) {
    pts.push_back(UncertainPoint::Disk(
        {u(rng), u(rng)}, 0.5 + 0.1 * i,
        i % 2 ? DiskPdf::kTruncatedGaussian : DiskPdf::kUniform));
  }
  return pts;
}

std::vector<Vec2> KeyedDrawQueries(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-6, 6);
  std::vector<Vec2> qs;
  for (int i = 0; i < 30; ++i) qs.push_back({u(rng), u(rng)});
  return qs;
}

/// Every local id 0..n-1 as the candidates of each of `queries` queries:
/// WinnersAmong then takes the definition's argmin over the whole set.
std::vector<std::vector<int>> EveryId(size_t queries, size_t n) {
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return std::vector<std::vector<int>>(queries, ids);
}

// A sample depends on its point, the seed, its key and j alone: a
// structure over a subset keyed by the subset's ids holds exactly the
// whole set's samples at those ids, and the per-instantiation winners of
// a partition min-merge into the whole set's.
TEST(MonteCarloPnn, SubsetKeyedByIdsHoldsTheWholeSetsSamples) {
  auto pts = KeyedDrawPoints(81);
  MonteCarloPnnOptions opts;
  opts.s_override = 40;
  opts.seed = 99;
  QuantTree whole_tree(&pts);
  MonteCarloPnn whole(&whole_tree, opts);
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    for (int j = 0; j < 40; ++j) {
      ASSERT_EQ(whole.sample(i, j), prob::KeyedSample(pts[i], 99, i, j));
    }
  }
  // Two halves, ids in no particular order.
  const std::vector<std::vector<int>> parts = {
      {17, 2, 5, 11, 19, 0, 8, 13, 3, 14},
      {1, 4, 6, 7, 9, 10, 12, 15, 16, 18}};
  std::vector<std::vector<InstantiationWinner>> winners;
  auto qs = KeyedDrawQueries(82);
  for (const std::vector<int>& ids : parts) {
    std::vector<UncertainPoint> subset;
    for (int id : ids) subset.push_back(pts[id]);
    QuantTree part_tree(&subset);
    MonteCarloPnn part(&part_tree, opts, ids);
    for (size_t k = 0; k < ids.size(); ++k) {
      for (int j = 0; j < 40; ++j) {
        EXPECT_EQ(part.sample(static_cast<int>(k), j), whole.sample(ids[k], j))
            << "id=" << ids[k] << " j=" << j;
      }
    }
    winners.push_back(
        part.WinnersAmong(qs, EveryId(qs.size(), ids.size()), 40));
  }
  auto want = whole.WinnersAmong(qs, EveryId(qs.size(), pts.size()), 40);
  ASSERT_EQ(want.size(), qs.size() * 40);
  for (size_t x = 0; x < want.size(); ++x) {
    const InstantiationWinner& a = winners[0][x];
    const InstantiationWinner& b = winners[1][x];
    bool a_wins = a.dist < b.dist || (a.dist == b.dist && a.key < b.key);
    const InstantiationWinner& got = a_wins ? a : b;
    EXPECT_EQ(got.key, want[x].key) << x;
    EXPECT_EQ(got.dist, want[x].dist) << x;
  }
  // The tree-candidate sweep counts the winners a scan of every id finds.
  auto batch = whole.QueryBatch(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    std::map<int, int> wins;
    for (int j = 0; j < 40; ++j) ++wins[want[i * 40 + j].key];
    std::vector<std::pair<int, double>> tally;
    for (auto [id, count] : wins) tally.push_back({id, count / 40.0});
    EXPECT_EQ(batch[i], tally) << i;
  }
}

// A structure with s' > s instantiations holds the s-instantiation one as
// its prefix, and answers from its first s exactly as that one does.
TEST(MonteCarloPnn, LargerEstimatorHoldsTheSmallerAsPrefix) {
  auto pts = KeyedDrawPoints(83);
  MonteCarloPnnOptions opts;
  opts.s_override = 50;
  QuantTree tree(&pts);
  MonteCarloPnn small(&tree, opts);
  opts.s_override = 130;
  MonteCarloPnn big(&tree, opts);
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    for (int j = 0; j < 50; ++j) {
      ASSERT_EQ(big.sample(i, j), small.sample(i, j));
    }
  }
  auto qs = KeyedDrawQueries(84);
  EXPECT_EQ(big.QueryBatch(qs, nullptr, 50), small.QueryBatch(qs));
  auto all = EveryId(qs.size(), pts.size());
  auto got = big.WinnersAmong(qs, all, 50);
  auto want = small.WinnersAmong(qs, all, 50);
  ASSERT_EQ(got.size(), want.size());
  for (size_t x = 0; x < got.size(); ++x) {
    EXPECT_EQ(got[x].key, want[x].key) << x;
    EXPECT_EQ(got[x].dist, want[x].dist) << x;
  }
}

class SpiralSearchEps : public ::testing::TestWithParam<double> {};

TEST_P(SpiralSearchEps, Lemma46SandwichHolds) {
  double eps = GetParam();
  std::mt19937_64 rng(123);
  for (int iter = 0; iter < 12; ++iter) {
    bool uniform = iter % 2 == 0;
    auto pts = RandomDiscrete(12, 4, rng, 8.0, 2.0, uniform);
    SpiralSearch ss(pts);
    std::uniform_real_distribution<double> qu(-10, 10);
    for (int t = 0; t < 25; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      auto exact = baselines::QuantificationProbabilities(pts, q);
      auto est = ss.Query(q, eps);
      std::vector<double> est_dense(pts.size(), 0.0);
      for (auto [id, p] : est) est_dense[id] = p;
      for (size_t i = 0; i < pts.size(); ++i) {
        // Lemma 4.6: hat-pi <= pi <= hat-pi + eps.
        EXPECT_LE(est_dense[i], exact[i] + 1e-9) << "i=" << i;
        EXPECT_GE(est_dense[i] + eps + 1e-9, exact[i]) << "i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, SpiralSearchEps,
                         ::testing::Values(0.2, 0.1, 0.05, 0.01),
                         [](const auto& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param * 1000));
                         });

TEST(SpiralSearch, RetrievalCountFormula) {
  std::mt19937_64 rng(124);
  auto pts = RandomDiscrete(20, 4, rng, 8.0, 2.0, /*uniform=*/true);
  SpiralSearch ss(pts);
  EXPECT_NEAR(ss.rho(), 1.0, 1e-9);
  EXPECT_EQ(ss.k(), 4);
  // m = ceil(rho k ln(1/eps)) + k - 1 (capped at N).
  int m = ss.SitesRetrieved(0.1);
  EXPECT_LE(m, 20 * 4);
  EXPECT_GE(m, static_cast<int>(4 * std::log(10.0)));
}

TEST(SpiralSearch, RemarkOneAdversarialSmallWeights) {
  // Section 4.3 Remark (i): dropping low-weight locations can distort other
  // probabilities by more than 2 eps, so the spiral prefix must be chosen
  // by *distance*, not by weight. Construction (q at origin):
  //   P0: site at d=1 with w=3eps (rest far), P1: site at d=4 with w=5eps
  //   (rest far), and n/2 middle points each with one site at d in (2,3)
  //   carrying tiny weight 2/n.
  const double eps = 0.02;
  const int half = 60;
  std::vector<UncertainPoint> pts;
  pts.push_back(UncertainPoint::Discrete({{1, 0}, {200, 0}},
                                         {3 * eps, 1 - 3 * eps}));
  pts.push_back(UncertainPoint::Discrete({{4, 0}, {210, 0}},
                                         {5 * eps, 1 - 5 * eps}));
  double tiny = 1.0 / half;  // Far below eps: a truncating estimator drops it.
  for (int i = 0; i < half; ++i) {
    double d = 2.0 + i / static_cast<double>(half);
    pts.push_back(UncertainPoint::Discrete(
        {{d, 0.01 * i}, {220.0 + i, 0}}, {tiny, 1 - tiny}));
  }
  Vec2 q{0, 0};
  auto exact = baselines::QuantificationProbabilities(pts, q);
  // True pi for P1 is damped below ~2 eps by the tiny middle weights.
  EXPECT_LT(exact[1], 2 * eps);
  // A weight-truncating estimator (drop sites with w < eps/k) overshoots.
  {
    std::vector<WeightedSite> kept;
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t s = 0; s < pts[i].sites().size(); ++s) {
        if (pts[i].weights()[s] < eps) continue;
        kept.push_back({Dist(q, pts[i].sites()[s]), static_cast<int>(i),
                        pts[i].weights()[s]});
      }
    }
    std::sort(kept.begin(), kept.end(),
              [](const WeightedSite& a, const WeightedSite& b) {
                return a.dist < b.dist;
              });
    std::vector<double> naive;
    AccumulateQuantification(kept, static_cast<int>(pts.size()), &naive);
    EXPECT_GT(naive[1], exact[1] + 2 * eps)
        << "weight truncation should visibly distort pi_1";
  }
  // The distance-prefix spiral search stays within its guarantee.
  SpiralSearch ss(pts);
  auto est = ss.Query(q, eps);
  std::vector<double> est_dense(pts.size(), 0.0);
  for (auto [id, p] : est) est_dense[id] = p;
  EXPECT_LE(est_dense[1], exact[1] + 1e-9);
  EXPECT_GE(est_dense[1] + eps + 1e-9, exact[1]);
}

}  // namespace
}  // namespace core
}  // namespace unn
