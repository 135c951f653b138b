#include "core/linf_nonzero_index.h"

#include <random>

#include <gtest/gtest.h>

#include "core/expected_nn.h"
#include "prob/distance_cdf.h"
#include "workload/generators.h"

namespace unn {
namespace core {
namespace {

using geom::Vec2;

std::vector<int> BruteLinf(const std::vector<SquareRegion>& sq, Vec2 q) {
  // Lemma 2.1 in the L_inf metric, j != i semantics.
  double best = 1e18, second = 1e18;
  int argbest = -1;
  for (size_t i = 0; i < sq.size(); ++i) {
    double d = ChebyshevDist(q, sq[i].center) + sq[i].half_side;
    if (d < best) {
      second = best;
      best = d;
      argbest = static_cast<int>(i);
    } else {
      second = std::min(second, d);
    }
  }
  std::vector<int> out;
  for (size_t i = 0; i < sq.size(); ++i) {
    double threshold = static_cast<int>(i) == argbest ? second : best;
    double delta =
        std::max(ChebyshevDist(q, sq[i].center) - sq[i].half_side, 0.0);
    if (sq.size() == 1 || delta < threshold) out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(LinfNonzeroIndex, TwoSquaresSanity) {
  std::vector<SquareRegion> sq = {{{-4, 0}, 1.0}, {{4, 0}, 1.0}};
  LinfNonzeroIndex ix(sq);
  EXPECT_EQ(ix.Query({-4, 0}), (std::vector<int>{0}));
  EXPECT_EQ(ix.Query({4, 0}), (std::vector<int>{1}));
  EXPECT_EQ(ix.Query({0, 0.3}), (std::vector<int>{0, 1}));
  EXPECT_NEAR(ix.Delta({0, 0}), 5.0, 1e-12);  // cheb=4 plus half_side 1.
}

TEST(LinfNonzeroIndex, MatchesBruteForceRandom) {
  std::mt19937_64 rng(606);
  std::uniform_real_distribution<double> pos(-12, 12);
  std::uniform_real_distribution<double> side(0.1, 1.8);
  for (int n : {1, 2, 5, 20, 100, 400}) {
    std::vector<SquareRegion> sq(n);
    for (auto& s : sq) s = {{pos(rng), pos(rng)}, side(rng)};
    LinfNonzeroIndex ix(sq);
    std::uniform_real_distribution<double> qu(-15, 15);
    for (int t = 0; t < 200; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      ASSERT_EQ(ix.Query(q), BruteLinf(sq, q)) << "n=" << n << " t=" << t;
      double want = 1e18;
      for (const auto& s : sq) {
        want = std::min(want, ChebyshevDist(q, s.center) + s.half_side);
      }
      ASSERT_NEAR(ix.Delta(q), want, 1e-12);
    }
  }
}

TEST(LinfNonzeroIndex, DegenerateZeroSizeSquares) {
  // half_side = 0: certain points under L_inf; exactly the nearest one(s).
  std::vector<SquareRegion> sq = {{{0, 0}, 0.0}, {{10, 0}, 0.0},
                                  {{0, 10}, 0.0}};
  LinfNonzeroIndex ix(sq);
  EXPECT_EQ(ix.Query({1, 1}), (std::vector<int>{0}));
  EXPECT_EQ(ix.Query({9, 0.5}), (std::vector<int>{1}));
  EXPECT_EQ(ix.Query({0.5, 9}), (std::vector<int>{2}));
}

TEST(LinfNonzeroIndex, CoincidentEqualSquares) {
  // Two identical squares plus two more of the same half-side: the
  // duplicates tie on every Chebyshev distance, so the j != i threshold
  // semantics decide the answer everywhere.
  std::vector<SquareRegion> sq = {
      {{0, 0}, 1.0}, {{0, 0}, 1.0}, {{3, 3}, 1.0}, {{-3, 3}, 1.0}};
  LinfNonzeroIndex ix(sq);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> qu(-12, 12);
  std::vector<Vec2> qs = {{0, 0}, {100, 100}, {1, 1}, {0, 3}, {3, 3}};
  for (int t = 0; t < 24; ++t) qs.push_back({qu(rng), qu(rng)});
  for (Vec2 q : qs) {
    EXPECT_EQ(ix.Query(q), BruteLinf(sq, q))
        << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST(LinfNonzeroIndex, LinfBallGeometryDiffersFromL2) {
  // A point L2-closer to square 0 but Chebyshev-closer to square 1: the
  // metrics must give different answers.
  std::vector<SquareRegion> sq = {{{0, 0}, 0.1}, {{7, 7}, 0.1}};
  LinfNonzeroIndex ix(sq);
  Vec2 q{5.0, 5.0};  // cheb to 0: 5; cheb to 1: 2 -> L_inf winner is 1.
  auto got = ix.Query(q);
  EXPECT_EQ(got, (std::vector<int>{1}));
  // Under L2 both are sqrt(50) vs sqrt(8): also 1 — pick a sharper case:
  Vec2 q2{4.0, 0.0};  // cheb: 4 vs 7 -> {0}; L2: 4 vs sqrt(9+49)=7.6 -> {0}.
  EXPECT_EQ(ix.Query(q2), (std::vector<int>{0}));
  Vec2 q3{6.0, 1.0};  // cheb: 6 vs 6 -> tie region: both candidates.
  auto both = ix.Query(q3);
  EXPECT_EQ(both.size(), 2u);
}

TEST(ExpectedNnRanking, TopKOrderMatchesFullSort) {
  auto pts = workload::RandomDisks(30, /*seed=*/17, 8.0, 0.2, 2.0);
  ExpectedNn enn(&pts);
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> qu(-10, 10);
  for (int t = 0; t < 20; ++t) {
    Vec2 q{qu(rng), qu(rng)};
    auto top5 = enn.RankByExpectedDistance(q, 5);
    ASSERT_EQ(top5.size(), 5u);
    std::vector<std::pair<double, int>> all;
    for (int i = 0; i < 30; ++i) {
      all.push_back({prob::ExpectedDistance(pts[i], q), i});
    }
    std::sort(all.begin(), all.end());
    for (int i = 0; i < 5; ++i) {
      EXPECT_NEAR(prob::ExpectedDistance(pts[top5[i]], q), all[i].first, 1e-9)
          << "t=" << t << " rank " << i;
    }
    // Non-decreasing order.
    for (int i = 1; i < 5; ++i) {
      EXPECT_LE(prob::ExpectedDistance(pts[top5[i - 1]], q),
                prob::ExpectedDistance(pts[top5[i]], q) + 1e-12);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace unn
