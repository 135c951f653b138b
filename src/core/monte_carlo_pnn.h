#ifndef UNN_CORE_MONTE_CARLO_PNN_H_
#define UNN_CORE_MONTE_CARLO_PNN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "spatial/batch.h"

/// \file monte_carlo_pnn.h
/// The Monte-Carlo quantification-probability structure of Theorems 4.3
/// (discrete) and 4.5 (continuous). Preprocessing draws s independent
/// instantiations R_1..R_s of the point set. A query finds the nearest
/// neighbor of q in every instantiation and returns hat-pi_i = (times P_i
/// won) / s, which satisfies |hat-pi_i - pi_i| <= eps for all i
/// simultaneously with probability >= 1 - delta when
/// s = (1/2eps^2) ln(2 n |Q| / delta), |Q| = O(N^4) (Lemma 4.1).
///
/// Draws. Every point carries a key (its global id in a sharded set;
/// 0..n-1 by default), and x_ij = prob::KeyedSample(P_i, seed, key_i, j):
/// a SplitMix64 stream keyed on (seed, key_i, j). A sample depends on no
/// other point and no other instantiation, so
///   * a structure over a subset keyed by the subset's global ids holds
///     exactly the whole set's samples at those ids, and
///   * a structure with s' > s instantiations holds the s-instantiation
///     structure as its prefix: a query may use the first s only.
/// They are stored point-major, so one point's samples are contiguous.
///
/// Winners. The winner of instantiation j is argmin_i Dist(q, x_ij), ties
/// toward the smaller key. The paper answers it with one Voronoi diagram
/// per instantiation; this structure needs no per-instantiation index.
///
/// Candidate sweep. By Lemma 2.1 only points with delta_i(q) <= Delta(q)
/// can win any instantiation: that is NN!=0(q), a handful of points on
/// bounded-density inputs. A query takes the envelope from the QuantTree
/// (best = Delta_a(q) for a = argbest), collects
///   C(q) = {a} u {i : MinDist_i(q) <= best + guard}
/// with QuantTree::SupportsWithin, and scans only C(q) in every
/// instantiation: O(log n + |C| s) per query instead of s tree descents.
///
/// Soundness (the answer is the full n-point argmin, ties included).
/// Let w be the winner of instantiation j. Then Dist(q, x_wj) <=
/// Dist(q, x_aj), because a takes part in the argmin. The sample x_aj lies
/// in the support of P_a, so Dist(q, x_aj) <= Delta_a(q); and x_wj lies in
/// the support of P_w, so Dist(q, x_wj) >= delta_w(q). Together
/// delta_w(q) <= Delta_a(q) = best, so w is in C(q), and so is every other
/// id tied with w. The argmin over C(q) therefore equals the argmin over
/// all n points, with the same smaller-key tie rule. In floating point each
/// of these steps is off by rounding, and `guard` covers the total:
///   * a disk sample is placed as center + offset, so it may sit a few
///     ulps of the coordinates' magnitude outside its disk (discrete
///     samples are the sites themselves and sit exactly);
///   * Dist, MinDist, the envelope's MaxDist and the pruning box distance
///     are each within a few ulps, relative to the value or to the
///     magnitude of the coordinates they subtract.
/// guard = 1e-9 * best + 16 * DBL_EPSILON * (|q|_inf + scale), where scale
/// bounds |x|_inf over every support (|center|_inf + radius for a disk;
/// SupportScale), is orders of magnitude above that sum
/// (CandidateRadius = best + guard). C(q) holds a even if rounding
/// were to push it out, so a finite query has a winner in every
/// instantiation: at |q| = 1e154 every point lands in C(q) and the scan
/// still answers, where a squared-distance tree descent overflows.
/// A query with a NaN or infinite coordinate gets empty estimates.
///
/// Sharding. Over a union of disjoint subsets S_1..S_K, the winner of
/// instantiation j is the smallest (distance, key) pair among the
/// subsets' winners, so per-subset winners merge into the whole set's
/// counts by an elementwise minimum. The candidates are split the same
/// way: the caller (serve::ShardedEngine's plan) merges the subsets'
/// envelopes into the whole set's Delta(q) = Delta_a(q), takes the guard
/// with `scale` = the largest subset scale (= the whole set's, a max being
/// exact), and hands subset k
///   C_k(q) = {i in S_k : MinDist_i(q) <= best + guard}
/// through WinnersAmong. C_k(q) need not contain a, which may sit in
/// another subset. Soundness then needs nothing new: the soundness
/// argument above used a only through the bound Dist(q, x_wj) <=
/// Dist(q, x_aj) <= Delta_a(q) = best, which holds whichever subset a
/// belongs to, so every winner w (and every id tied with it) has
/// delta_w(q) <= best and lies in the C_k(q) of its own subset. Every
/// rounding term of the guard involves only q, the supports' own
/// coordinates (bounded by the whole set's scale) and best, which is the
/// same double on every subset. More: the union of the C_k(q) is the
/// unsharded C(q) itself. It is the unsharded SupportsWithin report at
/// the same radius, and that report holds a already, since
/// MinDist_a(q) <= MaxDist_a(q) = best holds in floating point too
/// (d - r <= d + r; min over sites <= max over sites). So the subsets scan
/// exactly the unsharded candidates and the merged counts are one
/// structure's counts bit for bit. A subset with C_k(q) empty holds no
/// winner of any instantiation and is skipped: it adds the identity of
/// the merge.
///
/// Thread safety: immutable after construction; queries are const and may
/// run concurrently. The structure holds only its keys, samples and scale.
/// It borrows the QuantTree, and the points through QuantTree::points();
/// both must outlive it unchanged. unn::Engine lends its own tree, so an
/// estimator rebuild for more instantiations builds no tree.

namespace unn {
namespace core {

/// One instantiation's winner: its distance to the query and its key.
/// key -1 marks a query with no winners (a non-finite coordinate).
struct InstantiationWinner {
  double dist = 0.0;
  int key = -1;
};

/// Bound on |x|_inf over every support of `points`: |center|_inf + radius
/// for a disk, the largest |site|_inf for a discrete point; 0 when empty.
/// The scale of a union of sets is the max of their scales. O(N).
double SupportScale(const std::vector<UncertainPoint>& points);

/// The candidate sweep's radius: Delta(q) = `best` plus the guard band of
/// the soundness argument above, 1e-9 * best + 16 * DBL_EPSILON *
/// (|q|_inf + scale), with `scale` = SupportScale of the whole set. O(1).
double CandidateRadius(double best, geom::Vec2 q, double scale);

struct MonteCarloPnnOptions {
  double eps = 0.1;
  double delta = 0.05;
  uint64_t seed = 0xC0FFEE;
  /// Overrides the theorem's sample count when > 0 (benchmarks/tests).
  int s_override = 0;
};

class MonteCarloPnn {
 public:
  /// Draws the instantiations of `tree->points()` (non-empty); queries
  /// take their envelopes and candidates from `tree`. `keys[i]` keys point
  /// i's draws and its winning ties; keys must be distinct and
  /// non-negative. Empty means 0..n-1.
  explicit MonteCarloPnn(const QuantTree* tree,
                         const MonteCarloPnnOptions& opts = {},
                         std::vector<int> keys = {});

  /// Theorem 4.3 sample count for the given parameters and input size.
  static int RequiredSamples(int n, int k, double eps, double delta);

  int num_instantiations() const { return s_; }

  /// x_ij, point i's sample in instantiation j. O(1).
  geom::Vec2 sample(int i, int j) const {
    return samples_[static_cast<size_t>(i) * s_ + j];
  }

  /// Estimates (id, hat-pi) for all ids with a nonzero count, sorted by
  /// id. A one-query QueryBatch.
  std::vector<std::pair<int, double>> Query(geom::Vec2 q) const;

  /// Query for every query of the batch over the first `s` instantiations
  /// (0 means all of them; otherwise 0 < s <= num_instantiations()),
  /// through one envelope walk (QuantTree::MaxDistEnvelope, whose node,
  /// leaf and prune counts land in `stats`) and one candidate sweep per
  /// finite query. `out[i]` does not depend on the batch around
  /// `queries[i]`.
  std::vector<std::vector<std::pair<int, double>>> QueryBatch(
      std::span<const geom::Vec2> queries, spatial::BatchStats* stats = nullptr,
      int s = 0) const;

  /// The per-instantiation winners over caller-supplied candidates,
  /// walking no tree: out[i * s + j] is instantiation j's winner for
  /// queries[i] (0 < s <= num_instantiations()) among
  /// `candidates[i]` (point indices, any order, repeats allowed). A
  /// non-finite query or an empty candidate list keeps key -1 in all s
  /// entries. The sharded plan passes each shard's C_k(q) (see
  /// "Sharding"). O(|C| log |C| + |C| s) per query.
  std::vector<InstantiationWinner> WinnersAmong(
      std::span<const geom::Vec2> queries,
      std::span<const std::vector<int>> candidates, int s) const;

 private:
  /// Instantiation j's winner over `cand` for j < s: sorts `cand` by key
  /// and drops repeats, then sets `winner[j]` (an index into `cand`) and
  /// `best_d[j]`. `cand` must be non-empty.
  void Scan(geom::Vec2 q, int s, std::vector<int>* cand,
            std::vector<double>* best_d, std::vector<int>* winner) const;

  /// Borrowed: the envelope and candidate enumeration, and the points.
  const QuantTree* tree_;
  std::vector<int> keys_;
  int s_ = 0;
  /// x_ij at samples_[i * s_ + j].
  std::vector<geom::Vec2> samples_;
  /// Bound on |x|_inf over every support: the coordinate magnitude the
  /// guard band's absolute term scales with.
  double scale_ = 0.0;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_MONTE_CARLO_PNN_H_
