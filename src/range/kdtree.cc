#include "range/kdtree.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace unn {
namespace range {

using geom::Vec2;

namespace {

/// Widening of the squared-distance prunes of the range queries: dsq >
/// r^2 * kPruneHi implies d > r by more than the gap between a rounded sum
/// of squares and the hypot distance the accept test takes, so no point
/// with d <= r is pruned, one exactly at distance r included.
constexpr double kPruneHi = 1.0 + 4e-9;

}  // namespace

KdTree::KdTree(std::vector<Vec2> pts)
    : pts_(std::move(pts)),
      tree_(pts_, {.leaf_size = 8,
                   .split = spatial::SplitRule::kAlternateWideGuard}) {}

int KdTree::Nearest(Vec2 q, double* dist) const {
  if (tree_.root() < 0) return -1;
  int best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  spatial::PrunedVisitOrdered(
      tree_, [&](int n) { return tree_.box(n).DistSqTo(q); },
      [&](int, double d2) { return d2 >= best_d * best_d; },
      [&](int n) {
        for (int i = tree_.begin(n); i < tree_.end(n); ++i) {
          double d = Dist(q, pts_[tree_.item(i)]);
          if (d < best_d) {
            best_d = d;
            best = tree_.item(i);
          }
        }
      });
  if (dist != nullptr) *dist = best_d;
  return best;
}

std::vector<int> KdTree::KNearest(Vec2 q, int k) const {
  std::vector<int> out;
  Enumerator en(*this, q);
  for (int i = 0; i < k; ++i) {
    int id = en.Next();
    if (id < 0) break;
    out.push_back(id);
  }
  return out;
}

void KdTree::RangeCircle(Vec2 q, double r, std::vector<int>* out) const {
  spatial::PrunedVisit(
      tree_,
      [&](int n) { return tree_.box(n).DistSqTo(q) > r * r * kPruneHi; },
      [&](int n) {
        for (int i = tree_.begin(n); i < tree_.end(n); ++i) {
          int id = tree_.item(i);
          double d = Dist(q, pts_[id]);
          if (d <= r) out->push_back(id);
        }
        return true;
      });
}

void KdTree::RangeCircleBatch(std::span<const Vec2> queries,
                              std::span<const double> radii,
                              std::vector<std::vector<int>>* out,
                              spatial::BatchStats* stats) const {
  constexpr int kW = geom::kLaneWidth;
  // The node prune is the scalar test verbatim per lane (BoxDistSqLanes
  // computes box.DistSqTo's arithmetic), so each lane's visit set and
  // left-first report order match RangeCircle exactly. The leaf uses the
  // same widened test as a prefilter, so no accepted point (d <= r) is
  // ever skipped; survivors run the scalar distance and accept test
  // unchanged.
  out->assign(queries.size(), {});
  // Per-lane scratch reused across packs: hit lists grow into retained
  // capacity, and each query's result gets one exact-size allocation.
  std::vector<int> scratch[kW];
  for (size_t base = 0; base < queries.size(); base += kW) {
    int count = static_cast<int>(std::min<size_t>(kW, queries.size() - base));
    Vec2 qv[kW];
    double qx[kW], qy[kW], r[kW];
    for (int l = 0; l < kW; ++l) {
      qv[l] = queries[base + std::min(l, count - 1)];  // Pad ragged packs.
      qx[l] = qv[l].x;
      qy[l] = qv[l].y;
      r[l] = radii[base + std::min(l, count - 1)];
      scratch[l].clear();
    }
    spatial::BatchPrunedVisit(
        tree_, spatial::FullMask(count),
        [&](int n, spatial::LaneMask m) {
          double bsq[kW];
          geom::BoxDistSqLanes(qx, qy, tree_.box(n), bsq);
          spatial::LaneMask keep = 0;
          for (int l = 0; l < kW; ++l) {
            if ((m >> l & 1u) != 0 && !(bsq[l] > r[l] * r[l] * kPruneHi)) {
              keep |= static_cast<spatial::LaneMask>(1u << l);
            }
          }
          return keep;
        },
        [&](int n, spatial::LaneMask m) {
          for (int s = tree_.begin(n); s < tree_.end(n); ++s) {
            int id = tree_.item(s);
            double dsq[kW];
            geom::DistSqLanes(qx, qy, pts_[id], dsq);
            for (int l = 0; l < kW; ++l) {
              if ((m >> l & 1u) == 0) continue;
              if (dsq[l] > r[l] * r[l] * kPruneHi) continue;
              if (stats != nullptr) ++stats->lane_points_evaluated;
              double d = Dist(qv[l], pts_[id]);
              if (d <= r[l]) scratch[l].push_back(id);
            }
          }
        },
        stats);
    for (int l = 0; l < count; ++l) {
      (*out)[base + l].assign(scratch[l].begin(), scratch[l].end());
    }
    if (stats != nullptr) ++stats->packs;
  }
}

KdTree::Enumerator::Enumerator(const KdTree& tree, Vec2 q)
    : impl_(tree.tree_, Keys{&tree, q}) {}

}  // namespace range
}  // namespace unn
