#include "core/quant_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "prob/distance_cdf.h"
#include "spatial/traverse.h"
#include "util/check.h"

namespace unn {
namespace core {

namespace {

constexpr int kLeafSize = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative guard band of the bounds built on a computed anchor (the
/// expected-distance skips, and the envelope's bounds outside all-disk
/// subtrees): a bound is shrunk by this factor before it is compared,
/// absorbing the rounding of the computed E[d] (prob::ExpectedDistance is
/// within 1e-9 relative of the true value on every model), of a weighted
/// variance, and of weights that sum to 1 only up to rounding.
constexpr double kSkipGuard = 1.0 - 1e-8;

/// The absolute half of the guard band: a computed weighted mean may sit
/// a few ulps of sum_s w_s |s| <= |q| + d(q, anchor) off the true one
/// (off the coincident sites of a point, say), which the relative band
/// covers in its d(q, anchor) part and this slack in its |q| part.
double AbsoluteSlack(geom::Vec2 q) {
  return 1e-12 * (std::abs(q.x) + std::abs(q.y));
}

/// `lb` less both guard bands, a lower bound on the computed value it
/// bounds. A non-finite q makes it NaN or -infinity, which prunes nothing.
double Guarded(double lb, double slack) { return lb * kSkipGuard - slack; }

/// True when no point behind `lb` can still change the envelope. Strict
/// comparison against `second` whenever `second == best`, so a pruned
/// subtree can never hide a minimum-value tie with a smaller id (which
/// would change `argbest`).
bool EnvelopePrunable(double lb, const DeltaEnvelope& env) {
  if (lb > env.second) return true;
  return lb >= env.second && env.second > env.best;
}

/// Distance from q to the box by hypot, as geom::Dist takes it.
double HypotBoxDist(const geom::Box& b, geom::Vec2 q) {
  double dx = std::max({b.lo.x - q.x, 0.0, q.x - b.hi.x});
  double dy = std::max({b.lo.y - q.y, 0.0, q.y - b.hi.y});
  return std::hypot(dx, dy);
}

/// True when the square root of a computed sum of squares is within a few
/// ulps of the true distance. Not where the sum overflowed to +infinity
/// (|q| near 1e154 and beyond: a bound of +infinity would prune every
/// subtree after the first leaf), nor where it fell below 2^-968, among
/// denormal squares that may have rounded up by far more than an ulp
/// (sqrt(4e-324) is 2.2e-162, above a distance of 2e-162). Zero stays:
/// it bounds every distance.
bool SqrtIsAccurate(double sum_sq) {
  return sum_sq == 0 || (sum_sq >= 0x1p-968 && sum_sq < kInf);
}

/// True when every support within `radius` of an anchor `dist` from q
/// (both by hypot, as geom::Dist takes them) is farther than r: dist -
/// radius > r, widened by a relative 1e-12, far more than the few ulps the
/// rounded distances can lose to the triangle inequality, so no support
/// whose computed MinDist is <= r is ever skipped. A non-finite input
/// skips nothing.
bool SupportsBeyond(double dist, double radius, double r) {
  return dist - radius > r + 1e-12 * (dist + radius + r);
}

/// geom::MinDistToBox, the squared form the other trees prune with,
/// falling back to hypot where the square is not accurate.
double BoxDist(const geom::Box& b, geom::Vec2 q) {
  double d_sq = b.DistSqTo(q);
  return SqrtIsAccurate(d_sq) ? std::sqrt(d_sq) : HypotBoxDist(b, q);
}

}  // namespace

QuantTree::QuantTree(const std::vector<UncertainPoint>* points)
    : points_(points) {
  UNN_CHECK(points_ != nullptr);
  int n = size();
  anchors_.reserve(n);
  radii_.reserve(n);
  vars_.reserve(n);
  for (const UncertainPoint& p : *points_) {
    double var;
    if (p.is_disk()) {
      anchors_.push_back(p.center());
      radii_.push_back(p.radius());
      // Delta_i(q) = d + r >= sqrt(d^2 + r^2).
      var = p.radius() * p.radius();
    } else {
      // The weighted site mean: a convex-hull point, so d(q, anchor) <=
      // Delta_i(q) stays a valid lower bound (d(q, .) is convex), and by
      // Jensen d(q, anchor) <= E[d(q, P_i)].
      geom::Vec2 mu{0, 0};
      for (size_t s = 0; s < p.sites().size(); ++s) {
        mu = mu + p.sites()[s] * p.weights()[s];
      }
      double r = 0.0;
      var = 0.0;
      for (size_t s = 0; s < p.sites().size(); ++s) {
        r = std::max(r, Dist(mu, p.sites()[s]));
        var += p.weights()[s] * DistSq(p.sites()[s], mu);
      }
      anchors_.push_back(mu);
      radii_.push_back(r);
    }
    // An overflowed square bounds nothing (every Delta_i is finite).
    vars_.push_back(var < kInf ? var : 0.0);
  }
  tree_ = spatial::FlatKdTree<Augment>(
      anchors_, {.leaf_size = kLeafSize, .split = spatial::SplitRule::kWidest},
      Augment{spatial::MinMaxAugment(&radii_),
              {spatial::MinAugment(&vars_), AllDiskAugment(points_)}});
}

double QuantTree::MaxDistLowerBound(int node, geom::Vec2 q,
                                    double slack) const {
  const geom::Box& box = tree_.box(node);
  if (!all_disk(node)) {
    // Delta_i(q)^2 >= sum_s w_s d(q, s)^2 = d(q, anchor_i)^2 + V_i, and
    // the anchor lies in the box; guard-banded (Guarded).
    double sum_sq = box.DistSqTo(q) + min_var(node);
    return Guarded(SqrtIsAccurate(sum_sq) ? std::sqrt(sum_sq)
                                          : HypotBoxDist(box, q),
                   slack);
  }
  // Delta_i(q) = d(q, center_i) + radius_i >= dist(q, box) + r_min, and
  // the support's farthest point sits radius_i away from the center, so
  // Delta_i(q) >= radius_i - d(q, center_i): bites when q is inside a
  // cluster of large disks.
  const double r_min = radius_aug().min(node);
  return std::max(BoxDist(box, q) + r_min, r_min - box.MaxDistTo(q));
}

double QuantTree::PointLowerBound(int id, geom::Vec2 q, double slack) const {
  double sum_sq = DistSq(q, anchors_[id]) + vars_[id];
  return Guarded(SqrtIsAccurate(sum_sq) ? std::sqrt(sum_sq)
                                        : Dist(q, anchors_[id]),
                 slack);
}

double QuantTree::MinDistLowerBound(int node, geom::Vec2 q) const {
  // The support lies within radius_i of its anchor, so
  // delta_i(q) >= d(q, anchor_i) - radius_i.
  return std::max(BoxDist(tree_.box(node), q) - radius_aug().max(node),
                  0.0);
}

DeltaEnvelope QuantTree::MaxDistEnvelope(geom::Vec2 q, QueryStats* stats,
                                         const DeltaEnvelope* bound) const {
  DeltaEnvelope env;
  env.best = kInf;
  env.second = kInf;
  const double slack = AbsoluteSlack(q);
  // A subtree or point prunable against `bound` cannot change the union's
  // envelope either.
  auto prunable = [&](double lb) {
    return EnvelopePrunable(lb, env) ||
           (bound != nullptr && EnvelopePrunable(lb, *bound));
  };
  // Ordered DFS, nearer bound first: each child's bound is computed once
  // and serves as both its order key and its prune test. The envelope's
  // inserts are order-independent (DeltaEnvelope::Insert), and a pruned
  // subtree or skipped point can change none of best, second or argbest,
  // so the visit order changes only how soon `second` tightens. Outside
  // all-disk leaves a point's own bound skips its MaxDist.
  spatial::PrunedVisitOrdered(
      tree_, [&](int n) { return MaxDistLowerBound(n, q, slack); },
      [&](int, double lb) { return prunable(lb); },
      [&](int n) {
        const bool skips = !all_disk(n);
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
          if (skips && prunable(PointLowerBound(id, q, slack))) continue;
          env.Insert((*points_)[id].MaxDist(q), id);
          if (stats != nullptr) ++stats->points_evaluated;
        }
      },
      stats);
  return env;
}

int QuantTree::ExpectedDistanceNn(geom::Vec2 q, QueryStats* stats) const {
  if (!geom::IsFinite(q) || tree_.root() < 0) return -1;
  // Every anchor is its model's mean, so by Jensen E[d(q, P_i)] >=
  // d(q, anchor_i) >= dist(q, box) for every point under a node: the box
  // distance keys the ordered DFS, and a subtree or point whose bound
  // clears the incumbent is skipped. The skips are guard-banded
  // (Guarded), so a skipped point's computed E[d] is strictly above the
  // incumbent, and with the smaller-id tie break the result is the
  // lexicographic argmin of the computed (E[d], id), independent of the
  // visit order (what a sharded min-merge also computes).
  const double slack = AbsoluteSlack(q);
  double best = kInf;
  int arg = -1;
  auto beaten = [&](double lb) { return Guarded(lb, slack) > best; };
  spatial::PrunedVisitOrdered(
      tree_, [&](int n) { return BoxDist(tree_.box(n), q); },
      [&](int, double lb) { return beaten(lb); },
      [&](int n) {
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
          if (beaten(Dist(q, anchors_[id]))) continue;
          if (stats != nullptr) ++stats->points_evaluated;
          double e = prob::ExpectedDistance((*points_)[id], q);
          if (e < best || (e == best && id < arg)) {
            best = e;
            arg = id;
          }
        }
      },
      stats);
  return arg;
}

double QuantTree::LogSurvival(geom::Vec2 q, double r,
                              QueryStats* stats) const {
  double acc = 0.0;
  spatial::PrunedVisit(
      tree_,
      // Every support in the subtree is disjoint from ball(q, r): all
      // cdfs are 0, all survival factors are 1, the log contribution 0.
      [&](int n) { return MinDistLowerBound(n, q) > r; },
      [&](int n) {
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
          const UncertainPoint& p = (*points_)[id];
          if (p.MinDist(q) > r) continue;
          if (stats != nullptr) ++stats->points_evaluated;
          double cdf = prob::DistanceCdf(p, q, r);
          if (cdf >= 1.0) {  // Certainly within r: survival 0.
            acc = -kInf;
            return false;
          }
          acc += std::log1p(-cdf);
        }
        return true;
      },
      stats);
  return acc;
}

template <class Visit>
void QuantTree::ForEachSupportWithin(geom::Vec2 q, double r,
                                     Visit visit) const {
  spatial::PrunedVisit(
      tree_,
      // Hypot throughout, not BoxDist: the closed-ball report must not
      // lose a support at distance exactly r to the squared form's
      // rounding.
      [&](int n) {
        return SupportsBeyond(HypotBoxDist(tree_.box(n), q),
                              radius_aug().max(n), r);
      },
      [&](int n) {
        // Outside all-disk leaves a point's own bound skips its MinDist
        // (one distance per site); a disk's MinDist is that bound.
        const bool skips = !all_disk(n);
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
          if (skips && SupportsBeyond(Dist(q, anchors_[id]), radii_[id], r)) {
            continue;
          }
          double d = (*points_)[id].MinDist(q);
          if (d <= r) visit(id, d);
        }
        return true;
      });
}

void QuantTree::SupportsWithin(geom::Vec2 q, double r,
                               std::vector<int>* out) const {
  ForEachSupportWithin(q, r, [&](int id, double) { out->push_back(id); });
}

std::vector<int> QuantTree::NonzeroNn(geom::Vec2 q) const {
  const DeltaEnvelope env = MaxDistEnvelope(q);
  std::vector<int> out;
  // Lemma 2.1 with the oracle's own test (baselines::NonzeroNn), on the
  // MinDist the walk has just computed.
  ForEachSupportWithin(q, env.best, [&](int id, double d) {
    double threshold = env.ThresholdFor(id);
    if (!std::isfinite(threshold) || d < threshold) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

double QuantTree::LogSurvivalScan(const std::vector<UncertainPoint>& points,
                                  geom::Vec2 q, double r) {
  double acc = 0.0;
  for (const UncertainPoint& p : points) {
    double cdf = prob::DistanceCdf(p, q, r);
    if (cdf >= 1.0) return -kInf;
    acc += std::log1p(-cdf);
  }
  return acc;
}

}  // namespace core
}  // namespace unn
