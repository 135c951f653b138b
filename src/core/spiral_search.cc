#include "core/spiral_search.h"

#include <algorithm>
#include <cmath>

#include <random>

#include "core/pnn_common.h"
#include "prob/distributions.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

SpiralSearch::SpiralSearch(std::vector<UncertainPoint> points)
    : points_(std::move(points)) {
  UNN_CHECK(!points_.empty());
  double wmin = 1.0, wmax = 0.0;
  std::vector<Vec2> sites;
  for (size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    UNN_CHECK_MSG(!p.is_disk(), "SpiralSearch requires discrete models");
    k_ = std::max(k_, static_cast<int>(p.sites().size()));
    for (size_t s = 0; s < p.sites().size(); ++s) {
      sites.push_back(p.sites()[s]);
      site_owner_.push_back(static_cast<int>(i));
      site_weight_.push_back(p.weights()[s]);
      wmin = std::min(wmin, p.weights()[s]);
      wmax = std::max(wmax, p.weights()[s]);
    }
  }
  rho_ = wmax / wmin;
  tree_ = std::make_unique<range::KdTree>(std::move(sites));
}

int SpiralSearch::SitesRetrieved(double eps) const {
  UNN_CHECK(eps > 0 && eps < 1);
  double m = rho_ * k_ * std::log(1.0 / eps) + k_ - 1;
  return std::min(static_cast<int>(std::ceil(m)), tree_->size());
}

std::vector<std::pair<int, double>> SpiralSearch::Query(Vec2 q,
                                                        double eps) const {
  if (!geom::IsFinite(q)) return {};
  int m = SitesRetrieved(eps);
  std::vector<WeightedSite> prefix;
  prefix.reserve(m);
  range::KdTree::Enumerator en(*tree_, q);
  for (int t = 0; t < m; ++t) {
    double d;
    int id = en.Next(&d);
    if (id < 0) break;
    prefix.push_back({d, site_owner_[id], site_weight_[id]});
  }
  std::vector<double> pi;
  AccumulateQuantification(prefix, static_cast<int>(points_.size()), &pi);
  std::vector<std::pair<int, double>> out;
  for (size_t i = 0; i < pi.size(); ++i) {
    if (pi[i] > 0) out.push_back({static_cast<int>(i), pi[i]});
  }
  return out;
}

ContinuousSpiralSearch::ContinuousSpiralSearch(
    const std::vector<UncertainPoint>& points, double eps_discretization,
    uint64_t seed, int samples_per_point) {
  UNN_CHECK(eps_discretization > 0 && eps_discretization < 1);
  int n = static_cast<int>(points.size());
  int k = samples_per_point;
  if (k <= 0) {
    // Theorem 4.5: alpha = eps/(2n) needs k(alpha) = O((1/alpha^2) log(..))
    // samples; the constants are far too pessimistic in practice, so we cap
    // and rely on the measured-error tests (the sampling error concentrates
    // much faster than the union-bound analysis).
    double alpha = eps_discretization / (2.0 * n);
    double ideal = 4.0 / (alpha * alpha);
    k = static_cast<int>(std::min(ideal, 4096.0));
    k = std::max(k, 16);
  }
  std::mt19937_64 rng(seed);
  std::vector<UncertainPoint> discretized;
  discretized.reserve(points.size());
  for (const auto& p : points) {
    if (p.is_disk()) {
      discretized.push_back(prob::DiscretizeBySampling(p, k, rng));
    } else {
      discretized.push_back(p);
    }
  }
  inner_ = std::make_unique<SpiralSearch>(std::move(discretized));
}

std::vector<std::pair<int, double>> ContinuousSpiralSearch::Query(
    geom::Vec2 q, double eps) const {
  return inner_->Query(q, eps);
}

}  // namespace core
}  // namespace unn
