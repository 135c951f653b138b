#ifndef UNN_CORE_NN_NONZERO_DISCRETE_INDEX_H_
#define UNN_CORE_NN_NONZERO_DISCRETE_INDEX_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "range/kdtree.h"
#include "spatial/batch.h"

/// \file nn_nonzero_discrete_index.h
/// Exact quantification for discrete distributions over the NN!=0
/// candidates, in the two stages of Theorem 3.2. Stage one computes
/// Delta(q) = min_i max_s d(q, p_is) on the borrowed core::QuantTree
/// (MaxDistEnvelope). Stage two collects the sites in the closed disk
/// D(q, Delta(q)) — the paper's lifted halfspace query is exactly a
/// circular range query — from a kd-tree over all N sites. By Lemma 2.1
/// every point outside NN!=0(q) has pi_i(q) = 0, and no site farther than
/// Delta(q) scores, so Eq. (2) needs only those sites. Space O(N). The
/// kd-tree stands in for the paper's halfspace range-reporting structure:
/// same answers, no worst-case polylog bound (docs/ARCHITECTURE.md,
/// "Where each paper structure lives").
///
/// NN!=0 itself is core::QuantTree::NonzeroNn, on every model; this index
/// serves the probabilities only. Stage one is the scalar envelope walk
/// per query; stage two shares one range walk among geom::kLaneWidth
/// queries.

namespace unn {
namespace core {

class NnNonzeroDiscreteIndex {
 public:
  /// Borrows `tree` (over a non-empty, all-discrete point set) and the
  /// points through tree->points(); both must outlive the index unchanged.
  explicit NnNonzeroDiscreteIndex(const QuantTree* tree);

  /// Exact quantification probabilities: `out[i]` holds (id, pi) for
  /// every pi_i(queries[i]) > 0, sorted by id, bit-identical to
  /// core::DiscreteQuantification over the whole set. Stage one is
  /// MaxDistEnvelope; stage two collects the sites with d(q, p) <= Delta(q)
  /// through RangeCircleBatch; a sweep sorts those sites by (distance,
  /// site id) and runs core::AccumulateQuantification over their owners
  /// only, the same accumulation over the same prefix in the same order
  /// as the full Eq. (2) pass (every later site scores exactly 0).
  /// Queries are answered in the caller's order, so a Morton-sorted pack
  /// (spatial::InCoherentOrder) keeps the range walk's lanes pruning
  /// together. A query with a NaN or infinite coordinate gets no
  /// estimates.
  std::vector<std::vector<std::pair<int, double>>> ProbabilitiesBatch(
      std::span<const geom::Vec2> queries,
      spatial::BatchStats* stats = nullptr) const;

 private:
  /// The candidate sweep for one query: `hits` are site ids covering
  /// every site with d(q, p) <= delta (extra ones are dropped here).
  std::vector<std::pair<int, double>> QuantifyHits(
      geom::Vec2 q, double delta, std::vector<int>* hits) const;
  const std::vector<UncertainPoint>& points() const { return tree_->points(); }

  const QuantTree* tree_;
  std::unique_ptr<range::KdTree> site_tree_;
  /// Per site, in site-id order (owner by owner, then site by site).
  std::vector<int> site_owner_;
  std::vector<double> site_weight_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_NN_NONZERO_DISCRETE_INDEX_H_
