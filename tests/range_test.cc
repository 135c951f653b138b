#include "range/kdtree.h"

#include <algorithm>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace unn {
namespace range {
namespace {

using geom::Vec2;

std::mt19937_64& Rng() {
  static std::mt19937_64 rng(1234);
  return rng;
}

std::vector<Vec2> RandomPoints(int n, double spread = 10) {
  std::uniform_real_distribution<double> u(-spread, spread);
  std::vector<Vec2> pts(n);
  for (auto& p : pts) p = {u(Rng()), u(Rng())};
  return pts;
}

TEST(KdTree, NearestMatchesBruteForce) {
  for (int n : {1, 2, 7, 50, 300}) {
    auto pts = RandomPoints(n);
    KdTree tree(pts);
    std::uniform_real_distribution<double> u(-12, 12);
    for (int t = 0; t < 100; ++t) {
      Vec2 q{u(Rng()), u(Rng())};
      double got_d;
      int got = tree.Nearest(q, &got_d);
      int want = 0;
      for (int i = 1; i < n; ++i) {
        if (DistSq(q, pts[i]) < DistSq(q, pts[want])) want = i;
      }
      ASSERT_EQ(Dist(q, pts[got]), Dist(q, pts[want]));
      EXPECT_DOUBLE_EQ(got_d, Dist(q, pts[got]));
    }
  }
}

TEST(KdTree, KNearestSortedAndComplete) {
  auto pts = RandomPoints(200);
  KdTree tree(pts);
  std::uniform_real_distribution<double> u(-12, 12);
  for (int t = 0; t < 50; ++t) {
    Vec2 q{u(Rng()), u(Rng())};
    int k = 1 + static_cast<int>(Rng()() % 30);
    auto got = tree.KNearest(q, k);
    ASSERT_EQ(static_cast<int>(got.size()), k);
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(Dist(q, pts[got[i - 1]]), Dist(q, pts[got[i]]) + 1e-12);
    }
    // Compare against a sorted brute-force prefix (by distance value).
    std::vector<double> dists;
    for (const auto& p : pts) dists.push_back(Dist(q, p));
    std::sort(dists.begin(), dists.end());
    EXPECT_NEAR(Dist(q, pts[got.back()]), dists[k - 1], 1e-12);
  }
}

TEST(KdTree, KNearestExhaustsAtN) {
  auto pts = RandomPoints(5);
  KdTree tree(pts);
  auto got = tree.KNearest({0, 0}, 50);
  EXPECT_EQ(got.size(), 5u);
}

// RangeCircleBatch is checked against the scalar query it batches: the same
// ids in the same report order, on every pack size and ragged final pack,
// with every fifth radius exactly on a point's distance (the closed
// boundary).
TEST(KdTree, RangeCircleMatchesBruteForce) {
  auto pts = RandomPoints(300);
  KdTree tree(pts);
  std::uniform_real_distribution<double> u(-12, 12);
  std::uniform_real_distribution<double> ru(0.1, 8);
  std::vector<Vec2> qs;
  std::vector<double> rs;
  std::vector<std::vector<int>> scalar;
  for (int t = 0; t < 50; ++t) {
    Vec2 q{u(Rng()), u(Rng())};
    double r = ru(Rng());
    if (t % 5 == 0) r = Dist(q, pts[t]);
    std::vector<int> got;
    tree.RangeCircle(q, r, &got);
    qs.push_back(q);
    rs.push_back(r);
    scalar.push_back(got);
    std::sort(got.begin(), got.end());
    std::vector<int> want;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Dist(q, pts[i]) <= r) want.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(got, want);
  }
  for (size_t m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
    std::vector<std::vector<int>> batch;
    tree.RangeCircleBatch(std::span(qs).first(m), std::span(rs).first(m),
                          &batch);
    ASSERT_EQ(batch.size(), m);
    for (size_t i = 0; i < m; ++i) EXPECT_EQ(batch[i], scalar[i]) << m;
  }
}

TEST(KdTree, EnumeratorYieldsNondecreasingDistances) {
  auto pts = RandomPoints(150);
  KdTree tree(pts);
  KdTree::Enumerator en(tree, {1, 2});
  double prev = -1;
  int count = 0;
  std::vector<bool> seen(pts.size(), false);
  double d;
  for (int id = en.Next(&d); id >= 0; id = en.Next(&d)) {
    EXPECT_GE(d, prev - 1e-12);
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
    prev = d;
    ++count;
  }
  EXPECT_EQ(count, 150);
}

}  // namespace
}  // namespace range
}  // namespace unn
