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

}  // namespace

ExpectedNn::ExpectedNn(const std::vector<UncertainPoint>* points)
    : points_(points) {
  UNN_CHECK(points_ != nullptr && !points_->empty());
  for (const auto& p : *points_) {
    if (p.is_disk()) {
      mean_.push_back(p.center());  // Radially symmetric pdfs.
      var_.push_back(DiskRadialVariance(p));
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

std::vector<int> ExpectedNn::RankByExpectedDistance(Vec2 q, int k) const {
  int n = static_cast<int>(points_->size());
  k = std::min(k, n);
  std::vector<std::pair<double, int>> ranked(n);
  for (int i = 0; i < n; ++i) {
    ranked[i] = {prob::ExpectedDistance((*points_)[i], q), i};
  }
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end());
  std::vector<int> out(k);
  for (int i = 0; i < k; ++i) out[i] = ranked[i].second;
  return out;
}

}  // namespace core
}  // namespace unn
