#include "core/expected_nn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "prob/distance_cdf.h"
#include "spatial/traverse.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

namespace {
constexpr int kLeaf = 8;

/// Relative guard band for skips against a computed E[d] incumbent: a
/// distance-based lower bound only skips an item when the bound times
/// this factor still exceeds the incumbent, absorbing the ~1e-9-relative
/// rounding of the closed-form weighted sum (see QueryExpected).
constexpr double kSkipGuard = 1.0 - 1e-8;

/// E[|X - c|^2] for the supported disk pdfs (c the disk center).
double DiskRadialVariance(const UncertainPoint& p) {
  double radius = p.radius();
  switch (p.pdf()) {
    case DiskPdf::kUniform:
      return radius * radius / 2.0;
    case DiskPdf::kTruncatedGaussian: {
      // sigma = R/2; with a = R^2 / (2 sigma^2) = 2:
      // E[rho^2] = 2 sigma^2 (1 - e^-a (1 + a)) / (1 - e^-a).
      double s2 = radius * radius / 2.0;  // 2 sigma^2.
      double a = radius * radius / s2;    // = 2.
      return s2 * (1.0 - std::exp(-a) * (1.0 + a)) / (1.0 - std::exp(-a));
    }
  }
  return 0.0;
}

/// Largest coordinate magnitude of a node box — scales the absolute
/// guard band that covers rounding of the stored means (the weighted
/// mean of a discrete point is computed, not exact, so a Jensen bound
/// through it needs slack proportional to the coordinate scale).
double BoxMagnitude(const geom::Box& b) {
  return std::max(std::max(std::abs(b.lo.x), std::abs(b.hi.x)),
                  std::max(std::abs(b.lo.y), std::abs(b.hi.y)));
}

}  // namespace

ExpectedNn::ExpectedNn(const std::vector<UncertainPoint>* points)
    : points_(points) {
  UNN_CHECK(points_ != nullptr && !points_->empty());
  for (const auto& p : *points_) {
    if (p.is_disk()) {
      mean_.push_back(p.center());  // Radially symmetric pdfs.
      var_.push_back(DiskRadialVariance(p));
      max_reach_ = std::max(max_reach_, p.radius());
    } else {
      Vec2 mu{0, 0};
      for (size_t s = 0; s < p.sites().size(); ++s) {
        mu = mu + p.sites()[s] * p.weights()[s];
      }
      double var = 0;
      for (size_t s = 0; s < p.sites().size(); ++s) {
        var += p.weights()[s] * DistSq(p.sites()[s], mu);
      }
      mean_.push_back(mu);
      var_.push_back(var);
    }
    max_var_ = std::max(max_var_, var_.back());
  }
  tree_ = spatial::FlatKdTree<spatial::MinAugment>(
      mean_, {.leaf_size = kLeaf, .split = spatial::SplitRule::kAlternate},
      spatial::MinAugment(&var_));
}

int ExpectedNn::QuerySquared(Vec2 q) const {
  double best = std::numeric_limits<double>::infinity();
  int arg = -1;
  // Subtree lower bound on E[d(q,P)^2]: squared box distance plus the
  // smallest variance in the subtree.
  auto lb = [&](int n) {
    return tree_.box(n).DistSqTo(q) + tree_.aug().min(n);
  };
  spatial::PrunedVisitOrdered(
      tree_, lb, [&](int, double node_lb) { return node_lb >= best; },
      [&](int n) {
        for (int i = tree_.begin(n); i < tree_.end(n); ++i) {
          int id = tree_.item(i);
          double v = DistSq(q, mean_[id]) + var_[id];
          if (v < best) {
            best = v;
            arg = id;
          }
        }
      });
  return arg;
}

double ExpectedNn::ExpectedSquaredDistance(int i, Vec2 q) const {
  return DistSq(q, mean_[i]) + var_[i];
}

double ExpectedNn::ExpectedDistance(int i, Vec2 q) const {
  return prob::ExpectedDistance((*points_)[i], q);
}

std::vector<int> ExpectedNn::RankByExpectedDistance(Vec2 q, int k) const {
  int n = static_cast<int>(points_->size());
  k = std::min(k, n);
  std::vector<std::pair<double, int>> ranked(n);
  for (int i = 0; i < n; ++i) ranked[i] = {ExpectedDistance(i, q), i};
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end());
  std::vector<int> out(k);
  for (int i = 0; i < k; ++i) out[i] = ranked[i].second;
  return out;
}

int ExpectedNn::QueryExpected(Vec2 q) const {
  // Evaluates in increasing E[d^2] order, skipping any point with
  // E[d] >= delta_i(q) above the incumbent. The skip keeps a relative
  // guard band (kSkipGuard): for discrete models the closed-form E[d] is
  // a weighted sum of correctly-rounded distances whose weights sum to 1
  // only within 1e-9, so the computed E[d] can undershoot the computed
  // MinDist by ~1e-9 relative — the band guarantees a skipped item's
  // E[d] is strictly above the incumbent. With the band and the
  // smallest-id tie break, the discrete result is the lexicographic
  // argmin of (E[d], id), independent of evaluation order. Disk models
  // use the same loop: their E[d] (prob::ExpectedDistance) is a
  // deterministic function of (point, q) within 1e-9 relative of the true
  // value, which is at least d(q, center) >= MinDist (Jensen), so the band
  // covers them too and the disk result is the same lexicographic argmin.
  //
  // The order comes from a best-first enumeration of the kd-tree over
  // the means (subtree key: squared box distance plus the smallest
  // variance), not from sorting all n points. It stops once no later
  // point can win: a point with E[d^2] >= k has d(q, mean) >=
  // sqrt(k - max_var_). A discrete point's closed-form E[d] is at least
  // that (Jensen: E|q - X| >= |q - E X|); a disk would pass the skip
  // test only if delta_i(q) >= that minus max_reach_ did not exceed the
  // incumbent. All with an absolute guard for the rounding of the stored
  // means, variances and radii. Far from the data (|q - mean| past
  // ~1e154) E[d^2] overflows to +inf while E[d] stays finite; an
  // infinite key bounds nothing, so from there on every point is
  // evaluated (subject to the MinDist skip), which keeps the answer the
  // lexicographic argmin a sharded merge also computes.
  if (!geom::IsFinite(q)) return -1;
  const double slack =
      1e-12 * (BoxMagnitude(tree_.box(tree_.root())) + std::abs(q.x) +
               std::abs(q.y) + max_reach_);
  struct SquaredKeys {
    const ExpectedNn* self;
    Vec2 q;
    double NodeKey(int n) const {
      return self->tree_.box(n).DistSqTo(q) + self->tree_.aug().min(n);
    }
    double ItemKey(int id) const {
      return self->ExpectedSquaredDistance(id, q);
    }
  };
  spatial::BestFirstEnumerator<spatial::FlatKdTree<spatial::MinAugment>,
                               SquaredKeys>
      order(tree_, SquaredKeys{this, q});
  double best = std::numeric_limits<double>::infinity();
  int arg = -1;
  double e2;
  for (int id = order.Next(&e2); id >= 0; id = order.Next(&e2)) {
    double delta_lb = std::sqrt(std::max(e2 - max_var_, 0.0)) - max_reach_;
    if (e2 < std::numeric_limits<double>::infinity() &&
        delta_lb * kSkipGuard - slack > best) {
      break;
    }
    if ((*points_)[id].MinDist(q) * kSkipGuard > best) continue;
    double e = ExpectedDistance(id, q);
    if (e < best || (e == best && id < arg)) {
      best = e;
      arg = id;
    }
  }
  return arg;
}

}  // namespace core
}  // namespace unn
