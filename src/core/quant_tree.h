#ifndef UNN_CORE_QUANT_TREE_H_
#define UNN_CORE_QUANT_TREE_H_

#include <vector>

#include "core/uncertain_point.h"
#include "geom/vec2.h"
#include "spatial/flat_tree.h"
#include "spatial/traverse.h"

/// \file quant_tree.h
/// The quantification index: a kd-style hierarchy over the support regions
/// of an uncertain point set, answering the per-point quantification
/// primitives the serving layer's cross-shard merges and the Monte-Carlo
/// estimator consume — previously O(n) linear scans per query — by
/// branch-and-bound:
///
///   * MaxDistEnvelope(q)    — the two smallest Delta_i(q) = max-distance
///                             values plus the argmin (Lemma 2.1's pruning
///                             envelope), an ordered DFS (nearer bound
///                             first) that prunes a subtree once its
///                             MaxDist lower bound cannot beat the running
///                             runner-up: d(q, box) + r_min under an
///                             all-disk node, sqrt(d(q, box)^2 + V_min)
///                             over the per-point spread V_i (weighted
///                             site variance, or r_i^2) under any other,
///                             where a point's own sqrt(d(q, anchor)^2 +
///                             V_i) also skips its MaxDist in the leaf.
///                             The one envelope kernel on every model:
///                             batched callers (the Monte-Carlo sweep,
///                             Engine::MaxDistEnvelopeMany, the sharded
///                             plan's stage one, the exact discrete
///                             quantifier's stage one) loop it per query;
///   * LogSurvival(q, r)     — sum_i log(1 - G_{q,i}(r)), the log of the
///                             probability that every point is farther
///                             than r, visiting only points whose support
///                             intersects ball(q, r) (a disjoint support
///                             contributes factor 1 = log 0);
///   * SupportsWithin(q, r)  — the ids whose support meets ball(q, r),
///                             the candidate set of core::MonteCarloPnn;
///   * NonzeroNn(q)          — NN!=0(q) by Lemma 2.1, the two stages of
///                             Theorems 3.1 and 3.2 on any model: the
///                             envelope gives Delta(q), SupportsWithin's
///                             walk the candidates within Delta(q), and
///                             each keeps its place iff delta_i(q) <
///                             min_{j != i} Delta_j(q). Every Engine's
///                             NN!=0 path.
///   * ExpectedDistanceNn(q) — argmin_i E[d(q, P_i)] ([AESZ12], paper II
///                             Section 1.2), an ordered DFS keyed by the
///                             box distance over the anchors: every anchor
///                             is its model's mean, so by Jensen
///                             E[d(q, P_i)] >= d(q, mean_i) bounds a
///                             subtree.
///
/// This is the practical stand-in for the Delta-based NN!=0 machinery of
/// Section 3 (the [KMR+16] dynamic lower envelope of Theorem 3.1 and the
/// lifted halfspace reporting of Theorem 3.2 included) and the BBD/quadtree
/// hierarchies reused by the follow-up paper (*Nearest-Neighbor Searching
/// Under Uncertainty II*): per-node bounds come from a box over per-point
/// anchors (each model's mean: a disk's center, a discrete point's
/// weighted site mean) plus the min/max support radius and the minimum
/// spread about the anchor, so queries run in
/// O(log n + output) on bounded-density inputs while leaf evaluation stays
/// exact (experiment E14 measures the scaling against the scans side by
/// side).
///
/// Exactness: the search only ever prunes with *valid lower bounds* and
/// evaluates surviving points with the same arithmetic as the linear
/// scans, so MaxDistEnvelope reproduces core::TwoSmallestMaxDist
/// bit-identically (including argmin tie-breaking toward the smaller id)
/// and SupportsWithin reports exactly the scan's ids, so NonzeroNn equals
/// baselines::NonzeroNn bit for bit, far from the data included. Every
/// bound built on a computed discrete mean (the envelope's outside
/// all-disk nodes, and every expected-distance bound) is guard-banded by a
/// relative and a |q|-scaled absolute term, since the computed mean of
/// coincident sites may sit an ulp off them; ExpectedDistanceNn thus
/// returns the lexicographic argmin of the computed (E[d], id). LogSurvival
/// accumulates the same per-point terms in leaf visit order, so it
/// matches a linear log-space scan up to floating-point associativity
/// (~1e-15 relative).
///
/// Thread safety: immutable after construction; every query method is
/// const, allocates only local state, and may be called concurrently.
/// The tree does NOT own the points — the vector passed at construction
/// must outlive it unchanged (unn::Engine guarantees this for its own
/// point set). core::MonteCarloPnn and core::NnNonzeroDiscreteIndex
/// borrow the tree in turn and read the points through points(), so an
/// Engine builds one tree for its envelope, NN!=0 (both stages, on every
/// model), expected-distance NN, sharded-plan hooks, Monte-Carlo
/// estimator and the exact discrete quantifier's stage one, and
/// Engine::StructuresBuilt counts it once.

namespace unn {
namespace core {

/// Tracks whether every point in a subtree is a disk model, so the
/// quantification bounds know when the tighter all-disk lower bound
/// Delta_i(q) = d(q, center_i) + radius_i applies. A spatial augmentation
/// (see spatial/augment.h), composed with the min/max support radius.
class AllDiskAugment {
 public:
  AllDiskAugment() = default;
  explicit AllDiskAugment(const std::vector<UncertainPoint>* points)
      : points_(points) {}

  void Reserve(int nodes) { all_disk_.reserve(nodes); }
  void AddNode() { all_disk_.push_back(1); }
  void AbsorbRange(int node, const int* ids, int count) {
    bool all = all_disk_[node] != 0;
    for (int i = 0; i < count; ++i) all = all && (*points_)[ids[i]].is_disk();
    all_disk_[node] = all;
  }
  void Seal() { points_ = nullptr; }

  bool all_disk(int node) const { return all_disk_[node] != 0; }

 private:
  const std::vector<UncertainPoint>* points_ = nullptr;  ///< Build-only.
  std::vector<char> all_disk_;
};

class QuantTree {
 public:
  /// Per-query search-effort counters (caller-owned, so queries stay
  /// const and thread-safe). A sublinear query visits o(n) of each. The
  /// shared spatial::TraversalStats: the DFS engines fill nodes_visited /
  /// leaves_scanned / prunes; points_evaluated is counted here, at actual
  /// per-point evaluations.
  using QueryStats = spatial::TraversalStats;

  /// Builds the hierarchy in O(n log n). `points` must outlive the tree.
  explicit QuantTree(const std::vector<UncertainPoint>* points);

  int size() const { return static_cast<int>(points_->size()); }
  /// The borrowed point set the tree indexes, in id order. O(1).
  const std::vector<UncertainPoint>& points() const { return *points_; }

  /// The two smallest Delta_i(q) and the argmin — identical (bitwise,
  /// including ties toward the smaller id) to
  /// core::TwoSmallestMaxDist(*points, q). O(log n) on bounded-density
  /// inputs, O(n) worst case. With `bound`, an envelope over other points
  /// (another shard's), the walk also prunes every subtree that cannot
  /// change the envelope of the union with them: the result is then
  /// exact only as far as it matters to that union (what a cross-shard
  /// merge needs), and a far tree stops at its root.
  DeltaEnvelope MaxDistEnvelope(geom::Vec2 q, QueryStats* stats = nullptr,
                                const DeltaEnvelope* bound = nullptr) const;

  /// log prod_i (1 - G_{q,i}(r)) = sum_i log1p(-G_{q,i}(r)), accumulated
  /// in log space so products over 10^5+ points do not underflow;
  /// -infinity when some point is certainly within r. Only points whose
  /// support intersects ball(q, r) are evaluated. O(log n + k) for k
  /// intersecting supports.
  double LogSurvival(geom::Vec2 q, double r, QueryStats* stats = nullptr) const;

  /// Appends every id whose support reaches within `r` of q,
  /// MinDist(q) <= r, in left-first leaf order (not sorted). Prunes with
  /// the MinDistLowerBound bound, but takes the box distance by hypot
  /// throughout, as geom::Dist does, and widens the test past the
  /// rounding of d(q, anchor) - radius, so a support at distance exactly
  /// r is never pruned; the same bound on a point alone skips a discrete
  /// point's site distances. O(log n + k) for k reported supports.
  void SupportsWithin(geom::Vec2 q, double r, std::vector<int>* out) const;

  /// NN!=0(q), sorted ids: SupportsWithin's walk over radius Delta(q),
  /// each candidate's MinDist computed once and kept by the oracle's
  /// own test MinDist_i(q) < env.ThresholdFor(i), where the
  /// argmin is compared against the runner-up Delta — the distinction
  /// that keeps it when its delta and Delta round to one double, far from
  /// the data. Every answer id has MinDist_i <= Delta(q), so the
  /// candidates cover it. Equal to baselines::NonzeroNn on every model.
  /// O(log n + k) for k candidates on bounded-density inputs.
  std::vector<int> NonzeroNn(geom::Vec2 q) const;

  /// argmin_i E[d(q, P_i)] (prob::ExpectedDistance): the lexicographic
  /// argmin of the computed (E[d], id) pairs, so ties go to the smaller id;
  /// -1 for a non-finite q. `stats` counts nodes and E[d] evaluations.
  /// O(log n) on bounded-density inputs, O(n) worst case.
  int ExpectedDistanceNn(geom::Vec2 q, QueryStats* stats = nullptr) const;

  /// The O(n) linear-scan oracle for LogSurvival: the same per-point
  /// terms accumulated in id order. The one definition tests and
  /// benchmarks verify the index against, kept here so the oracle and
  /// the index cannot drift apart.
  static double LogSurvivalScan(const std::vector<UncertainPoint>& points,
                                geom::Vec2 q, double r);

 private:
  /// Per node: min/max support radius, then the minimum weighted variance
  /// and the all-disk flag.
  using Augment = spatial::PairAugment<
      spatial::MinMaxAugment,
      spatial::PairAugment<spatial::MinAugment, AllDiskAugment>>;
  const spatial::MinMaxAugment& radius_aug() const { return tree_.aug().first; }
  double min_var(int node) const { return tree_.aug().second.first.min(node); }
  bool all_disk(int node) const {
    return tree_.aug().second.second.all_disk(node);
  }

  /// The bounds take the box distance from its square, falling back to
  /// hypot where the squares overflow (|q| near 1e154 and beyond) or turn
  /// denormal (distances near 1e-146 and below), so the envelope stays
  /// bit-identical to the scan far from the data and at tiny scales too.
  ///
  /// Lower bound on min_{i in node} Delta_i(q); valid for mixed models.
  /// An all-disk node clears the box distance by r_min; any other node is
  /// bounded by sqrt(d(q, box)^2 + V_min), less the guard band for
  /// computed anchors (`slack` is the query's absolute part).
  double MaxDistLowerBound(int node, geom::Vec2 q, double slack) const;
  /// Guard-banded sqrt(d(q, anchor_i)^2 + V_i) <= Delta_i(q), the leaf
  /// skip of MaxDistEnvelope outside all-disk leaves.
  double PointLowerBound(int id, geom::Vec2 q, double slack) const;
  /// Lower bound on min_{i in node} delta_i(q).
  double MinDistLowerBound(int node, geom::Vec2 q) const;
  /// The one walk of SupportsWithin and NonzeroNn: calls visit(id,
  /// MinDist_i(q)) for every id with MinDist_i(q) <= r, in left-first
  /// leaf order, so each candidate's MinDist is computed once.
  template <class Visit>
  void ForEachSupportWithin(geom::Vec2 q, double r, Visit visit) const;

  const std::vector<UncertainPoint>* points_;
  /// Per-point anchor: the model's mean (disk center / weighted site
  /// mean), a point of the support's convex hull, so d(q, anchor) <=
  /// Delta_i(q) and (Jensen) d(q, anchor) <= E[d(q, P_i)] for every q.
  std::vector<geom::Vec2> anchors_;
  /// Per-point support radius: max distance from the anchor to the
  /// support, so Delta_i(q) <= d(q, anchor) + radius and
  /// delta_i(q) >= d(q, anchor) - radius.
  std::vector<double> radii_;
  /// Per-point spread about the anchor: a discrete point's weighted
  /// variance V_i = sum_s w_s |s - anchor|^2, a disk's radius^2 (0 where
  /// the square overflows). Either way Delta_i(q)^2 >= d(q, anchor)^2 +
  /// V_i, for a discrete point because the largest squared site distance
  /// is at least the weighted mean one, sum_s w_s |q - s|^2.
  std::vector<double> vars_;
  /// Widest-axis kd-tree over the anchors (shared spatial core),
  /// augmented with min/max support radius, minimum spread and the
  /// all-disk flag.
  spatial::FlatKdTree<Augment> tree_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_QUANT_TREE_H_
