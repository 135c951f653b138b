#include "baselines/brute_force.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pnn_common.h"
#include "prob/distance_cdf.h"

namespace unn {
namespace baselines {

using core::UncertainPoint;
using geom::Vec2;

std::vector<int> NonzeroNn(const std::vector<UncertainPoint>& pts, Vec2 q) {
  // Lemma 2.1 verbatim: delta_i(q) < Delta_j(q) for all j != i. A single
  // uncertain point is trivially always a candidate.
  core::DeltaEnvelope env = core::TwoSmallestMaxDist(pts, q);
  std::vector<int> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    double threshold = env.ThresholdFor(static_cast<int>(i));
    if (!std::isfinite(threshold) || pts[i].MinDist(q) < threshold) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

int ExpectedDistanceNn(const std::vector<UncertainPoint>& pts, Vec2 q) {
  if (!geom::IsFinite(q)) return -1;
  double best = std::numeric_limits<double>::infinity();
  int arg = -1;
  for (size_t i = 0; i < pts.size(); ++i) {
    double e = prob::ExpectedDistance(pts[i], q);
    if (e < best) {  // Id order: a tie keeps the smaller id.
      best = e;
      arg = static_cast<int>(i);
    }
  }
  return arg;
}

std::vector<double> QuantificationProbabilities(
    const std::vector<UncertainPoint>& pts, Vec2 q) {
  std::vector<core::WeightedSite> sites;
  for (size_t i = 0; i < pts.size(); ++i) {
    const auto& p = pts[i];
    for (size_t s = 0; s < p.sites().size(); ++s) {
      sites.push_back(
          {Dist(q, p.sites()[s]), static_cast<int>(i), p.weights()[s]});
    }
  }
  // Sites are listed in site-id order (owner, then site), so a stable sort
  // orders them by (distance, site id): the order every exact quantifier
  // accumulates in.
  std::stable_sort(sites.begin(), sites.end(),
                   [](const core::WeightedSite& a, const core::WeightedSite& b) {
                     return a.dist < b.dist;
                   });
  std::vector<double> pi;
  core::AccumulateQuantification(sites, static_cast<int>(pts.size()), &pi);
  return pi;
}

}  // namespace baselines
}  // namespace unn
