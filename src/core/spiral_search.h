#ifndef UNN_CORE_SPIRAL_SEARCH_H_
#define UNN_CORE_SPIRAL_SEARCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "range/kdtree.h"

/// \file spiral_search.h
/// The deterministic approximation structure of Theorem 4.7 (Section 4.3):
/// retrieve only the m(rho, eps) = ceil(rho k ln(1/eps)) + k - 1 sites
/// nearest to q (rho = spread of location probabilities, Eq. (9)) and
/// evaluate Eq. (10)/(11) on that prefix. Lemma 4.6 guarantees
/// hat-pi_i <= pi_i <= hat-pi_i + eps for every i. Site retrieval uses
/// incremental kd-tree nearest-neighbor enumeration — the quad-tree
/// branch-and-bound alternative the paper's Remark (ii) recommends over the
/// theoretical [AC09] structure.

namespace unn {
namespace core {

class SpiralSearch {
 public:
  /// All points must be discrete. O(N log N) preprocessing, O(N) space.
  explicit SpiralSearch(std::vector<UncertainPoint> points);

  /// rho = (max location probability) / (min location probability).
  double rho() const { return rho_; }
  /// Largest per-point support size k.
  int k() const { return k_; }
  /// Number of sites the query at accuracy eps retrieves.
  int SitesRetrieved(double eps) const;

  /// (id, hat-pi) for all ids with positive estimate, sorted by id; each
  /// true pi_i satisfies hat-pi_i <= pi_i <= hat-pi_i + eps. A query
  /// with a NaN or infinite coordinate gets no estimates.
  std::vector<std::pair<int, double>> Query(geom::Vec2 q, double eps) const;

 private:
  std::vector<UncertainPoint> points_;
  std::unique_ptr<range::KdTree> tree_;
  std::vector<int> site_owner_;
  std::vector<double> site_weight_;
  double rho_ = 1.0;
  int k_ = 1;
};

/// A prototype answer to the paper's open problem (iii) (Conclusions):
/// spiral search over *continuous* distributions. Each continuous point is
/// discretized by Theorem 4.5's sampling reduction (k(alpha) =
/// O((1/alpha^2) log(1/delta')) i.i.d. locations with uniform weights, so
/// rho = 1) and the discrete spiral search runs on the samples. The total
/// error is bounded by eps_discretization (w.h.p., Lemma 4.4) plus the
/// query-time eps passed to Query.
class ContinuousSpiralSearch {
 public:
  /// `samples_per_point` overrides the Theorem 4.5 count (0 = use
  /// k(alpha) with alpha = eps_discretization / (2n), capped at 4096).
  ContinuousSpiralSearch(const std::vector<UncertainPoint>& points,
                         double eps_discretization, uint64_t seed = 1,
                         int samples_per_point = 0);

  std::vector<std::pair<int, double>> Query(geom::Vec2 q, double eps) const;

  const SpiralSearch& discretized() const { return *inner_; }

 private:
  std::unique_ptr<SpiralSearch> inner_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_SPIRAL_SEARCH_H_
