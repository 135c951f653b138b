#ifndef UNN_CORE_EXPECTED_NN_H_
#define UNN_CORE_EXPECTED_NN_H_

#include <vector>

#include "core/uncertain_point.h"
#include "geom/vec2.h"
#include "spatial/flat_tree.h"

/// \file expected_nn.h
/// The expected-distance nearest neighbor of the companion paper I
/// ([AESZ12], PODS 2012), discussed in Section 1.2 of paper II as the
/// "easier" variant: the expected distance to each uncertain point is a
/// per-point quantity, so the minimizer needs no interaction between
/// points.
///
/// A paper-side structure (the unn_paper library; the serving path answers
/// argmin_i E[d(q, P_i)] with core::QuantTree::ExpectedDistanceNn). It
/// holds the other two semantics of Section 1.2:
///   * expected *squared* distance — exact and index-friendly, since
///     E[d(q,P)^2] = |q - mu|^2 + Var(P) (a "power-like" weighted NN,
///     answered by branch-and-bound in O(log n) expected time);
///   * the k-NN ranking by expected distance E[d(q,P)]
///     (prob::ExpectedDistance per point, then a partial sort).
///
/// Experiment E12 measures how often the expected-NN disagrees with the
/// most-probable NN — the [YTX+10] critique the paper cites for preferring
/// quantification probabilities under large uncertainty.

namespace unn {
namespace core {

class ExpectedNn {
 public:
  /// Borrows `points` (non-empty), which must outlive the structure
  /// unchanged.
  explicit ExpectedNn(const std::vector<UncertainPoint>* points);

  /// argmin_i E[d(q, P_i)^2]; exact.
  int QuerySquared(geom::Vec2 q) const;

  /// E[d(q, P_i)^2] = |q - mu_i|^2 + Var_i (closed form, all models).
  double ExpectedSquaredDistance(int i, geom::Vec2 q) const;

  /// The k-NN ranking by expected distance (Section 1.2: "rank them in a
  /// non-decreasing order of the expected distance"): the `k` ids with the
  /// smallest E[d(q, P_i)] (prob::ExpectedDistance), in that order. O(n).
  std::vector<int> RankByExpectedDistance(geom::Vec2 q, int k) const;

  geom::Vec2 mean(int i) const { return mean_[i]; }
  double variance(int i) const { return var_[i]; }

 private:
  const std::vector<UncertainPoint>* points_;
  std::vector<geom::Vec2> mean_;
  std::vector<double> var_;
  /// Kd-tree over the means, augmented with the subtree minimum variance:
  /// E[d(q,P)^2] = d(q, mu)^2 + Var is a power-like weighted distance, so
  /// box-distance-plus-min-variance is a valid subtree lower bound.
  spatial::FlatKdTree<spatial::MinAugment> tree_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_EXPECTED_NN_H_
