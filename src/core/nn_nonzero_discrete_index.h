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
/// The near-linear NN!=0 structure for discrete distributions (Theorem 3.2).
/// Stage one computes Delta(q) = min_i max_s d(q, p_is) on the borrowed
/// core::QuantTree (MaxDistEnvelope: the two smallest Delta_i and the
/// argmin, bounded by Delta_i(q)^2 >= d(q, mu_i)^2 + V_i about each
/// point's weighted mean). Stage two uses the lifting observation:
/// delta_i(q) < Delta(q) iff some site of P_i lies in the open disk
/// D(q, Delta(q)) — the paper's lifted halfspace query is exactly a
/// circular range query — served by a kd-tree over all N sites with owner
/// dedup. Space O(N). The kd-tree stands in for the paper's halfspace
/// range-reporting structure: same answers, no worst-case polylog bound
/// (docs/ARCHITECTURE.md, "Where each paper structure lives").
///
/// The same two stages answer exact quantification (ProbabilitiesBatch):
/// by Lemma 2.1 every point outside NN!=0(q) has pi_i(q) = 0, and no site
/// farther than Delta(q) scores, so Eq. (2) needs only the sites in the
/// closed disk of radius Delta(q).
///
/// Stage one is the scalar envelope walk per query; stage two shares one
/// range walk among geom::kLaneWidth queries. An 8-lane stage one was
/// slower than the scalar one on a Morton-sorted pack and was removed; the
/// lane range walk was faster than its scalar loop and stays.

namespace unn {
namespace core {

class NnNonzeroDiscreteIndex {
 public:
  /// Borrows `tree` (over a non-empty, all-discrete point set) and the
  /// points through tree->points(); both must outlive the index unchanged.
  explicit NnNonzeroDiscreteIndex(const QuantTree* tree);

  /// NN!=0(q), sorted ids. Exact.
  std::vector<int> Query(geom::Vec2 q) const;

  /// Batched Query: `out[i]` is bit-identical to `Query(queries[i])`.
  /// Stage one (the Delta envelope) is the scalar MaxDistEnvelope per query;
  /// stage two batches the lifted range queries through
  /// range::KdTree::RangeCircleBatch (per-lane hit lists are the scalar
  /// RangeCircle's verbatim) before the scalar owner dedup and argbest
  /// membership fix, so an identical envelope forces an identical
  /// answer. Queries are answered in the caller's order, so a
  /// Morton-sorted pack (spatial::InCoherentOrder) keeps the range
  /// walk's lanes pruning together. A query with a NaN or infinite
  /// coordinate gets Query's answer without a walk: the empty set, or {0}
  /// when the set has one point.
  std::vector<std::vector<int>> QueryBatch(
      std::span<const geom::Vec2> queries,
      spatial::BatchStats* stats = nullptr) const;

  /// Exact quantification probabilities: `out[i]` holds (id, pi) for
  /// every pi_i(queries[i]) > 0, sorted by id, bit-identical to
  /// core::DiscreteQuantification over the whole set. Stage one is
  /// MaxDistEnvelope; stage two collects the sites with d(q, p) <= Delta(q)
  /// through RangeCircleBatch; a sweep sorts those sites by (distance,
  /// site id) and runs core::AccumulateQuantification over their owners
  /// only, the same accumulation over the same prefix in the same order
  /// as the full Eq. (2) pass (every later site scores exactly 0). A query
  /// with a NaN or infinite coordinate gets no estimates.
  std::vector<std::vector<std::pair<int, double>>> ProbabilitiesBatch(
      std::span<const geom::Vec2> queries,
      spatial::BatchStats* stats = nullptr) const;

 private:
  /// Stage two for one query: range query then owner assembly.
  std::vector<int> AssembleFromEnvelope(geom::Vec2 q,
                                        const DeltaEnvelope& env) const;
  /// Owner dedup + argbest membership fix over a hit list (shared by the
  /// scalar range query and the batched one, which produce identical
  /// lists).
  std::vector<int> AssembleFromHits(geom::Vec2 q, const DeltaEnvelope& env,
                                    const std::vector<int>& hits) const;
  /// Stages one and two shared by QueryBatch and ProbabilitiesBatch, over
  /// the batch's finite queries in the caller's order: per query, its
  /// position in the batch, the query, its envelope and the ids of the
  /// sites in the open disk D(q, Delta(q)), or with `closed` every site of
  /// the closed disk (plus any the kClosedDiskSlack radius adds).
  struct BatchHits {
    std::vector<int> index;
    std::vector<geom::Vec2> queries;
    std::vector<DeltaEnvelope> envs;
    std::vector<std::vector<int>> hits;
  };
  BatchHits SitesWithinDelta(std::span<const geom::Vec2> queries, bool closed,
                             spatial::BatchStats* stats) const;
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
