#ifndef UNN_CORE_NN_NONZERO_INDEX_H_
#define UNN_CORE_NN_NONZERO_INDEX_H_

#include <memory>
#include <vector>

#include "core/uncertain_point.h"
#include "range/disk_tree.h"

/// \file nn_nonzero_index.h
/// The near-linear-size NN!=0 query structure of Theorem 3.1 (continuous
/// disks). A query runs in two stages:
///   1. compute Delta(q) = min_i (d(q,c_i) + r_i) by branch-and-bound over
///      a weighted disk tree (the paper locates q in the additively
///      weighted Voronoi diagram M instead; voronoi::WeightedVoronoi
///      builds M, and weighted_voronoi_test checks that both agree);
///   2. report all i with delta_i(q) < Delta(q), i.e. all disks meeting the
///      open disk D(q, Delta(q)) — the [KMR+16] black box replaced by the
///      output-sensitive disk-tree reporter (DESIGN.md section 3).
/// Space is O(n); answers are exact.

namespace unn {
namespace core {

class NnNonzeroIndex {
 public:
  explicit NnNonzeroIndex(const std::vector<UncertainPoint>& points);

  /// NN!=0(q), sorted ids. Exact.
  std::vector<int> Query(geom::Vec2 q) const;

  /// Delta(q) = min_i MaxDist(q, P_i).
  double Delta(geom::Vec2 q) const;

 private:
  std::unique_ptr<range::DiskTree> tree_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_NN_NONZERO_INDEX_H_
