// The spatial core (src/spatial/): build determinism — the same input
// must produce the identical node layout and `order` permutation across
// rebuilds, for every split rule — plus oracle parity for every migrated
// structure on degenerate inputs (empty, singleton, all-coincident
// points, duplicate radii), so argmin tie semantics are pinned at the
// core layer rather than per consumer. Also the shared best-first
// enumerator's exhaustion contract: Next() keeps returning -1 after the
// tree is drained, including on an empty tree.

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/expected_nn.h"
#include "core/linf_nonzero_index.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "geom/box_metrics.h"
#include "geom/lanes.h"
#include "range/kdtree.h"
#include "spatial/augment.h"
#include "spatial/batch.h"
#include "spatial/flat_tree.h"
#include "spatial/traverse.h"

namespace unn {
namespace spatial {
namespace {

using geom::Vec2;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Vec2> RandomPoints(int n, uint64_t seed, double spread = 10) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-spread, spread);
  std::vector<Vec2> pts(n);
  for (auto& p : pts) p = {u(rng), u(rng)};
  return pts;
}

template <typename Augment>
void ExpectIdenticalLayout(const FlatKdTree<Augment>& a,
                           const FlatKdTree<Augment>& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.root(), b.root());
  EXPECT_EQ(a.order(), b.order());
  for (int n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.left(n), b.left(n));
    EXPECT_EQ(a.right(n), b.right(n));
    EXPECT_EQ(a.begin(n), b.begin(n));
    EXPECT_EQ(a.end(n), b.end(n));
    EXPECT_EQ(a.box(n).lo, b.box(n).lo);
    EXPECT_EQ(a.box(n).hi, b.box(n).hi);
  }
}

TEST(FlatKdTree, BuildIsDeterministicAcrossRebuilds) {
  for (SplitRule rule : {SplitRule::kAlternate, SplitRule::kAlternateWideGuard,
                         SplitRule::kWidest}) {
    for (int n : {0, 1, 8, 9, 100, 500}) {
      auto pts = RandomPoints(n, 42 + n);
      BuildOptions opts{8, rule};
      FlatKdTree<> a(pts, opts);
      FlatKdTree<> b(pts, opts);
      ExpectIdenticalLayout(a, b);
      EXPECT_EQ(a.size(), n);
    }
  }
}

TEST(FlatKdTree, BuildIsDeterministicOnCoincidentPoints) {
  // Duplicate anchors make every comparator key equal; the positional
  // median split must still produce an identical (and balanced) layout.
  std::vector<Vec2> pts(64, Vec2{1.5, -2.5});
  for (SplitRule rule : {SplitRule::kAlternate, SplitRule::kAlternateWideGuard,
                         SplitRule::kWidest}) {
    BuildOptions opts{8, rule};
    FlatKdTree<> a(pts, opts);
    FlatKdTree<> b(pts, opts);
    ExpectIdenticalLayout(a, b);
    // Leaves partition [0, n) into runs of at most leaf_size.
    int leaf_items = 0;
    for (int n = 0; n < a.num_nodes(); ++n) {
      if (a.is_leaf(n)) {
        EXPECT_LE(a.end(n) - a.begin(n), opts.leaf_size);
        leaf_items += a.end(n) - a.begin(n);
      }
    }
    EXPECT_EQ(leaf_items, 64);
  }
}

TEST(FlatKdTree, EmptyTree) {
  FlatKdTree<> tree;
  EXPECT_EQ(tree.root(), -1);
  EXPECT_EQ(tree.size(), 0);
  FlatKdTree<> built(std::vector<Vec2>{}, BuildOptions{});
  EXPECT_EQ(built.root(), -1);
  EXPECT_EQ(built.num_nodes(), 0);
}

TEST(FlatKdTree, AugmentStatsMatchBruteForce) {
  auto pts = RandomPoints(200, 7);
  std::vector<double> values(200);
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> u(0.0, 3.0);
  for (auto& v : values) v = u(rng);
  FlatKdTree<MinMaxAugment> tree(pts, BuildOptions{8, SplitRule::kAlternate},
                                 MinMaxAugment(&values));
  for (int n = 0; n < tree.num_nodes(); ++n) {
    double want_min = kInf, want_max = 0.0;
    geom::Box want_box;
    for (int i = tree.begin(n); i < tree.end(n); ++i) {
      want_min = std::min(want_min, values[tree.item(i)]);
      want_max = std::max(want_max, values[tree.item(i)]);
      want_box.Expand(pts[tree.item(i)]);
    }
    EXPECT_EQ(tree.aug().min(n), want_min);
    EXPECT_EQ(tree.aug().max(n), want_max);
    EXPECT_EQ(tree.box(n).lo, want_box.lo);
    EXPECT_EQ(tree.box(n).hi, want_box.hi);
  }
}

TEST(Traverse, PrunedVisitCoversEveryLeafWithoutPruning) {
  auto pts = RandomPoints(300, 9);
  FlatKdTree<> tree(pts, BuildOptions{});
  std::vector<bool> seen(pts.size(), false);
  PrunedVisit(
      tree, [](int) { return false; },
      [&](int n) {
        for (int i = tree.begin(n); i < tree.end(n); ++i) {
          EXPECT_FALSE(seen[tree.item(i)]);
          seen[tree.item(i)] = true;
        }
        return true;
      });
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Traverse, PrunedVisitLeafAbortStopsTheWalk) {
  auto pts = RandomPoints(100, 10);
  FlatKdTree<> tree(pts, BuildOptions{});
  int visited = 0;
  bool finished = PrunedVisit(
      tree, [](int) { return false; },
      [&](int) {
        ++visited;
        return visited < 3;
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(visited, 3);
}

TEST(Traverse, PrunedVisitOrderedAlwaysPruneVisitsNothing) {
  auto pts = RandomPoints(120, 14);
  FlatKdTree<> tree(pts, BuildOptions{});
  TraversalStats stats;
  int leaves = 0;
  // An always-true prune must reject the root before any descent: no
  // node visited, no leaf scanned, exactly one prune recorded.
  PrunedVisitOrdered(
      tree, [](int) { return 0.0; }, [](int, double) { return true; },
      [&](int) { ++leaves; }, &stats);
  EXPECT_EQ(leaves, 0);
  EXPECT_EQ(stats.nodes_visited, 0);
  EXPECT_EQ(stats.leaves_scanned, 0);
  EXPECT_EQ(stats.prunes, 1);
}

TEST(Traverse, BestFirstEnumeratorReentryAfterPartialDrain) {
  auto pts = RandomPoints(60, 15);
  range::KdTree tree(pts);
  // A fresh enumerator drained end to end is the reference sequence.
  std::vector<int> want;
  {
    range::KdTree::Enumerator full(tree, {0.25, -0.75});
    for (int id = full.Next(); id >= 0; id = full.Next()) want.push_back(id);
  }
  ASSERT_EQ(want.size(), pts.size());
  // Partial drain, then re-entry: the same enumerator must continue the
  // exact sequence from where it stopped, at every stop point.
  for (size_t stop : {size_t{1}, size_t{7}, want.size() - 1}) {
    range::KdTree::Enumerator en(tree, {0.25, -0.75});
    for (size_t i = 0; i < stop; ++i) ASSERT_EQ(en.Next(), want[i]);
    for (size_t i = stop; i < want.size(); ++i) {
      EXPECT_EQ(en.Next(), want[i]) << "stop=" << stop << " i=" << i;
    }
    EXPECT_EQ(en.Next(), -1);
  }
}

// ---------------------------------------------------------------------------
// Batch engine, oracle style: per lane, the shared traversal must reach
// exactly the nodes the scalar engine reaches.
// ---------------------------------------------------------------------------

TEST(BatchTraverse, BatchPrunedVisitMatchesScalarPerLane) {
  auto pts = RandomPoints(200, 16);
  FlatKdTree<> tree(pts, BuildOptions{});
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(-12, 12);
  Vec2 q[geom::kLaneWidth];
  double radius[geom::kLaneWidth];
  for (int l = 0; l < geom::kLaneWidth; ++l) {
    q[l] = {u(rng), u(rng)};
    radius[l] = 1.0 + l;  // Lane-distinct prune radii.
  }
  // Scalar oracle: the per-lane sequence of scanned leaves.
  std::vector<int> want[geom::kLaneWidth];
  for (int l = 0; l < geom::kLaneWidth; ++l) {
    PrunedVisit(
        tree,
        [&](int n) {
          return tree.box(n).DistSqTo(q[l]) > radius[l] * radius[l];
        },
        [&](int n) {
          want[l].push_back(n);
          return true;
        });
  }
  std::vector<int> got[geom::kLaneWidth];
  double qx[geom::kLaneWidth], qy[geom::kLaneWidth];
  for (int l = 0; l < geom::kLaneWidth; ++l) {
    qx[l] = q[l].x;
    qy[l] = q[l].y;
  }
  BatchStats stats;
  BatchPrunedVisit(
      tree, FullMask(geom::kLaneWidth),
      [&](int n, LaneMask m) {
        double lb[geom::kLaneWidth];
        geom::BoxDistSqLanes(qx, qy, tree.box(n), lb);
        LaneMask keep = 0;
        for (int l = 0; l < geom::kLaneWidth; ++l) {
          if ((m >> l & 1u) != 0 && !(lb[l] > radius[l] * radius[l])) {
            keep |= static_cast<LaneMask>(1u << l);
          }
        }
        return keep;
      },
      [&](int n, LaneMask m) {
        for (int l = 0; l < geom::kLaneWidth; ++l) {
          if ((m >> l & 1u) != 0) got[l].push_back(n);
        }
      },
      &stats);
  for (int l = 0; l < geom::kLaneWidth; ++l) {
    EXPECT_EQ(got[l], want[l]) << "lane " << l;
  }
  EXPECT_GT(stats.nodes_visited, 0);
  EXPECT_GE(stats.lane_nodes_visited, stats.nodes_visited);
  EXPECT_LE(stats.LaneUtilization(), 1.0);
}

TEST(BatchTraverse, RaggedMaskVisitsOnlyActiveLanes) {
  auto pts = RandomPoints(64, 20);
  FlatKdTree<> tree(pts, BuildOptions{});
  LaneMask seen = 0;
  BatchPrunedVisit(
      tree, FullMask(3), [&](int, LaneMask m) { return m; },
      [&](int, LaneMask m) { seen |= m; });
  EXPECT_EQ(seen, FullMask(3));
}

// PackCoherentOrder is total: a permutation with the finite queries first
// and the non-finite ones after them in input order, the same on every
// call, even for a box spanning +-1e308.
TEST(PackOrder, PermutationWithFiniteQueriesFirst) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  std::vector<Vec2> qs = RandomPoints(40, 21);
  qs.insert(qs.begin() + 3, Vec2{nan, 1});
  qs.insert(qs.begin() + 9, Vec2{inf, 0});
  qs.insert(qs.begin() + 20, Vec2{2, -inf});
  qs.push_back({1e308, -1e308});
  qs.push_back({-1e308, 1e308});
  qs.push_back(qs[0]);  // A duplicate.
  std::vector<int> order = PackCoherentOrder(qs);
  ASSERT_EQ(order.size(), qs.size());
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<int>(i));
  }
  const size_t finite = qs.size() - 3;
  for (size_t i = 0; i < finite; ++i) {
    EXPECT_TRUE(geom::IsFinite(qs[order[i]])) << i;
  }
  EXPECT_EQ(std::vector<int>(order.begin() + finite, order.end()),
            (std::vector<int>{3, 9, 20}));
  EXPECT_EQ(PackCoherentOrder(qs), order);
  // A box from -1e308 to 1e308: the corners get the first and last
  // cells, and the three small queries share the middle one in input
  // order.
  std::vector<Vec2> near(qs.begin(), qs.begin() + 3);
  near.push_back({-1e308, -1e308});
  near.push_back({1e308, 1e308});
  EXPECT_EQ(PackCoherentOrder(near), (std::vector<int>{3, 0, 1, 2, 4}));
  // Every query non-finite, one query, none.
  std::vector<Vec2> bad = {{nan, nan}, {inf, 1}, {-inf, nan}};
  EXPECT_EQ(PackCoherentOrder(bad), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(PackCoherentOrder(std::vector<Vec2>{{1, 2}}), std::vector<int>{0});
  EXPECT_TRUE(PackCoherentOrder({}).empty());
}

// ---------------------------------------------------------------------------
// Migrated structures on degenerate inputs
// ---------------------------------------------------------------------------

TEST(MigratedKdTree, EmptyAndExhaustion) {
  range::KdTree empty{std::vector<Vec2>{}};
  EXPECT_EQ(empty.Nearest({0, 0}), -1);
  EXPECT_TRUE(empty.KNearest({0, 0}, 5).empty());
  std::vector<int> out;
  empty.RangeCircle({0, 0}, 10, &out);
  EXPECT_TRUE(out.empty());
  // Exhaustion on an empty tree: -1 immediately and forever.
  range::KdTree::Enumerator en(empty, {0, 0});
  for (int i = 0; i < 3; ++i) EXPECT_EQ(en.Next(), -1);
}

TEST(MigratedKdTree, EnumeratorKeepsReturningMinusOneAfterDrain) {
  auto pts = RandomPoints(23, 13);
  range::KdTree tree(pts);
  range::KdTree::Enumerator en(tree, {0.5, -0.5});
  for (int i = 0; i < 23; ++i) ASSERT_GE(en.Next(), 0);
  double sentinel = -7.0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(en.Next(&sentinel), -1);
    EXPECT_EQ(sentinel, -7.0);  // dist out-param untouched on exhaustion.
  }
}

TEST(MigratedKdTree, AllCoincidentPoints) {
  std::vector<Vec2> pts(40, Vec2{2, 3});
  range::KdTree a(pts);
  range::KdTree b(pts);
  double d = 0;
  int got_a = a.Nearest({5, 7}, &d);
  EXPECT_EQ(d, 5.0);
  EXPECT_EQ(got_a, b.Nearest({5, 7}));  // Tie argmin is deterministic.
  EXPECT_EQ(a.KNearest({5, 7}, 40).size(), 40u);
  std::vector<int> all;
  a.RangeCircle({2, 3}, 0.0, &all);  // Inclusive boundary at r = 0.
  EXPECT_EQ(all.size(), 40u);
}

TEST(MigratedExpectedNn, SingletonAndCoincidentMeans) {
  std::vector<core::UncertainPoint> one = {
      core::UncertainPoint::Disk({2, 1}, 0.5)};
  core::ExpectedNn nn_one(&one);
  EXPECT_EQ(nn_one.QuerySquared({0, 0}), 0);

  // Coincident means with different variances: the smallest variance
  // wins everywhere; with equal variances the argmin is deterministic.
  std::vector<core::UncertainPoint> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back(core::UncertainPoint::Disk({3, 3}, i == 7 ? 0.1 : 1.0));
  }
  core::ExpectedNn nn(&pts);
  EXPECT_EQ(nn.QuerySquared({-2, 6}), 7);
  std::vector<core::UncertainPoint> ties(
      9, core::UncertainPoint::Disk({3, 3}, 1.0));
  core::ExpectedNn tie_a(&ties);
  core::ExpectedNn tie_b(&ties);
  int got = tie_a.QuerySquared({1, 1});
  EXPECT_EQ(got, tie_b.QuerySquared({1, 1}));
  EXPECT_EQ(tie_a.ExpectedSquaredDistance(got, {1, 1}),
            tie_a.ExpectedSquaredDistance(0, {1, 1}));
}

TEST(MigratedLinfIndex, CoincidentSquaresDuplicateHalfSides) {
  std::vector<core::SquareRegion> sq(5, core::SquareRegion{{0, 0}, 1.0});
  sq.push_back({{10, 10}, 0.5});
  core::LinfNonzeroIndex ix(sq);
  // All five coincident squares contain any q with cheb(q) < their
  // common Delta threshold; the far square does not qualify near origin.
  std::vector<int> got = ix.Query({0.2, -0.3});
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ix.Delta({0, 0}), 1.0);

  // Brute-force oracle on a degenerate + random mix, exact semantics:
  // i qualifies iff delta_i < min_{j != i} Delta_j.
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> u(-3, 3);
  std::uniform_real_distribution<double> h(0.0, 2.0);
  std::vector<core::SquareRegion> mix;
  for (int i = 0; i < 40; ++i) {
    double hs = i % 3 == 0 ? 1.0 : h(rng);  // Duplicate half-sides.
    mix.push_back({{u(rng), u(rng)}, hs});
  }
  for (int i = 0; i < 4; ++i) mix.push_back(mix[i]);  // Coincident copies.
  core::LinfNonzeroIndex index(mix);
  for (int t = 0; t < 60; ++t) {
    Vec2 q{u(rng), u(rng)};
    std::vector<int> want;
    for (size_t i = 0; i < mix.size(); ++i) {
      double threshold = kInf;
      for (size_t j = 0; j < mix.size(); ++j) {
        if (j == i) continue;
        threshold = std::min(
            threshold, ChebyshevDist(q, mix[j].center) + mix[j].half_side);
      }
      double delta = std::max(
          ChebyshevDist(q, mix[i].center) - mix[i].half_side, 0.0);
      if (delta < threshold) want.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(index.Query(q), want) << "t=" << t;
  }
}

TEST(MigratedQuantTree, CoincidentSupportsDuplicateRadiiPinSmallestId) {
  // The envelope's argmin tie rule (smallest id among minimizers) is the
  // contract the sharded merge layer depends on; pin it on coincident
  // supports with duplicate radii.
  std::vector<core::UncertainPoint> pts(
      6, core::UncertainPoint::Disk({2, -1}, 1.5));
  pts.push_back(core::UncertainPoint::Disk({2, -1}, 1.5));
  core::QuantTree tree(&pts);
  for (Vec2 q : {Vec2{0, 0}, Vec2{2, -1}, Vec2{50, 50}}) {
    core::DeltaEnvelope want = core::TwoSmallestMaxDist(pts, q);
    core::DeltaEnvelope got = tree.MaxDistEnvelope(q);
    EXPECT_EQ(got.best, want.best);
    EXPECT_EQ(got.second, want.second);
    EXPECT_EQ(got.argbest, want.argbest);
    EXPECT_EQ(got.argbest, 0);
    // Every coincident support meets the others' Delta: all seven are
    // NN!=0 candidates wherever q is.
    EXPECT_EQ(tree.NonzeroNn(q), (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  }
}

TEST(BoxMetrics, ChebyshevAndBoxHelpers) {
  geom::Box b{{0, 0}, {2, 1}};
  EXPECT_EQ(geom::ChebyshevDist({0, 0}, {3, -1}), 3.0);
  EXPECT_EQ(geom::ChebyshevDistToBox({1, 0.5}, b), 0.0);   // Inside.
  EXPECT_EQ(geom::ChebyshevDistToBox({5, 0.5}, b), 3.0);   // Right of box.
  EXPECT_EQ(geom::ChebyshevDistToBox({-1, -2}, b), 2.0);   // Corner.
  EXPECT_EQ(geom::MinDistToBox({5, 1}, b), 3.0);
  std::vector<Vec2> pts = {{1, 2}, {-1, 0}, {4, -3}};
  geom::Box bb = geom::BoxOf(pts);
  EXPECT_EQ(bb.lo, (Vec2{-1, -3}));
  EXPECT_EQ(bb.hi, (Vec2{4, 2}));
}

}  // namespace
}  // namespace spatial
}  // namespace unn
