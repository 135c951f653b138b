#include "core/quant_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/box_metrics.h"
#include "prob/distance_cdf.h"
#include "spatial/traverse.h"
#include "util/check.h"

namespace unn {
namespace core {

namespace {

constexpr int kLeafSize = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative guard band of the expected-distance skips: a lower bound only
/// skips a point or subtree when the bound times this factor still
/// exceeds the incumbent E[d], absorbing the rounding of the computed
/// E[d] (prob::ExpectedDistance is within 1e-9 relative of the true value
/// on every model).
constexpr double kSkipGuard = 1.0 - 1e-8;

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

/// geom::MinDistToBox, the squared form the other trees prune with,
/// except where its squares overflow to +infinity (|q| near 1e154 and
/// beyond): a bound of +infinity would prune every subtree after the
/// first leaf, so there it falls back to hypot.
double BoxDist(const geom::Box& b, geom::Vec2 q) {
  double d = geom::MinDistToBox(q, b);
  return d < kInf ? d : HypotBoxDist(b, q);
}

}  // namespace

QuantTree::QuantTree(const std::vector<UncertainPoint>* points)
    : points_(points) {
  UNN_CHECK(points_ != nullptr);
  int n = size();
  anchors_.reserve(n);
  radii_.reserve(n);
  for (const UncertainPoint& p : *points_) {
    if (p.is_disk()) {
      anchors_.push_back(p.center());
      radii_.push_back(p.radius());
    } else {
      // The weighted site mean: a convex-hull point, so d(q, anchor) <=
      // Delta_i(q) stays a valid lower bound (d(q, .) is convex), and by
      // Jensen d(q, anchor) <= E[d(q, P_i)].
      geom::Vec2 mu{0, 0};
      for (size_t s = 0; s < p.sites().size(); ++s) {
        mu = mu + p.sites()[s] * p.weights()[s];
      }
      double r = 0.0;
      for (geom::Vec2 s : p.sites()) r = std::max(r, Dist(mu, s));
      anchors_.push_back(mu);
      radii_.push_back(r);
    }
  }
  tree_ = spatial::FlatKdTree<Augment>(
      anchors_, {.leaf_size = kLeafSize, .split = spatial::SplitRule::kWidest},
      Augment{spatial::MinMaxAugment(&radii_), AllDiskAugment(points_)});
}

double QuantTree::MaxDistLowerBound(int node, geom::Vec2 q) const {
  // Every anchor lies in the convex hull of its support, so
  // Delta_i(q) >= d(q, anchor_i) >= dist(q, box); for an all-disk subtree
  // Delta_i(q) = d(q, center_i) + radius_i additionally clears r_min.
  double lb = BoxDist(tree_.box(node), q);
  if (tree_.aug().second.all_disk(node)) lb += tree_.aug().first.min(node);
  // The support's farthest point sits radius_i away from the anchor, so
  // Delta_i(q) >= radius_i - d(q, anchor_i): bites when q is inside a
  // cluster of large supports.
  return std::max(lb,
                  tree_.aug().first.min(node) - tree_.box(node).MaxDistTo(q));
}

double QuantTree::MinDistLowerBound(int node, geom::Vec2 q) const {
  // The support lies within radius_i of its anchor, so
  // delta_i(q) >= d(q, anchor_i) - radius_i.
  return std::max(BoxDist(tree_.box(node), q) - tree_.aug().first.max(node),
                  0.0);
}

DeltaEnvelope QuantTree::MaxDistEnvelope(geom::Vec2 q, QueryStats* stats,
                                         const DeltaEnvelope* bound) const {
  DeltaEnvelope env;
  env.best = kInf;
  env.second = kInf;
  // Ordered DFS, nearer bound first: each child's bound is computed once
  // and serves as both its order key and its prune test. The envelope's
  // inserts are order-independent (DeltaEnvelope::Insert), and a pruned
  // subtree can change none of best, second or argbest, so the visit
  // order changes only how soon `second` tightens. A subtree prunable
  // against `bound` cannot change the union's envelope either.
  spatial::PrunedVisitOrdered(
      tree_, [&](int n) { return MaxDistLowerBound(n, q); },
      [&](int, double lb) {
        return EnvelopePrunable(lb, env) ||
               (bound != nullptr && EnvelopePrunable(lb, *bound));
      },
      [&](int n) {
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
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
  // clears the incumbent is skipped. The skips keep the relative guard
  // (kSkipGuard) and an absolute slack for the rounding of a computed
  // discrete mean, a few ulps of sum_s w_s |s| <= |q| + E[d]; so a skipped
  // point's computed E[d] is strictly above the incumbent, and with the
  // smaller-id tie break the result is the lexicographic argmin of the
  // computed (E[d], id), independent of the visit order (what a sharded
  // min-merge also computes).
  const double slack = 1e-12 * (std::abs(q.x) + std::abs(q.y));
  double best = kInf;
  int arg = -1;
  auto beaten = [&](double lb) { return lb * kSkipGuard - slack > best; };
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

void QuantTree::SupportsWithin(geom::Vec2 q, double r,
                               std::vector<int>* out) const {
  spatial::PrunedVisit(
      tree_,
      // Hypot throughout, not BoxDist: the closed-ball report must not
      // lose a support at distance exactly r to the squared form's
      // rounding.
      [&](int n) {
        return HypotBoxDist(tree_.box(n), q) - tree_.aug().first.max(n) > r;
      },
      [&](int n) {
        for (int j = tree_.begin(n); j < tree_.end(n); ++j) {
          int id = tree_.item(j);
          if ((*points_)[id].MinDist(q) <= r) out->push_back(id);
        }
        return true;
      });
}

std::vector<int> QuantTree::NonzeroNn(geom::Vec2 q) const {
  const DeltaEnvelope env = MaxDistEnvelope(q);
  std::vector<int> out;
  SupportsWithin(q, env.best, &out);
  // Lemma 2.1 with the oracle's own test (baselines::NonzeroNn).
  std::erase_if(out, [&](int id) {
    double threshold = env.ThresholdFor(id);
    return std::isfinite(threshold) &&
           !((*points_)[id].MinDist(q) < threshold);
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
