#ifndef UNN_RANGE_KDTREE_H_
#define UNN_RANGE_KDTREE_H_

#include <cmath>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "spatial/batch.h"
#include "spatial/flat_tree.h"
#include "spatial/traverse.h"

/// \file kdtree.h
/// A static planar kd-tree over points. Provides nearest neighbor, k-NN,
/// circular range reporting, and incremental ("spiral") nearest-neighbor
/// enumeration — the quad-tree/branch-and-bound alternative the paper's
/// Section 4.3 Remark (ii) endorses in place of the impractical [AC09]
/// structure. Built on the shared spatial core (spatial::FlatKdTree with
/// no augmentation); the enumeration is a spatial::BestFirstEnumerator
/// keyed by point distance.

namespace unn {
namespace range {

class KdTree {
 public:
  /// Builds a balanced tree (median splits, alternating axes). Point ids
  /// are indices into `pts`.
  explicit KdTree(std::vector<geom::Vec2> pts);

  int size() const { return static_cast<int>(pts_.size()); }
  geom::Vec2 point(int id) const { return pts_[id]; }

  /// Nearest point id (-1 if empty); optionally its distance.
  int Nearest(geom::Vec2 q, double* dist = nullptr) const;

  /// Ids of the k nearest points, ordered by increasing distance.
  std::vector<int> KNearest(geom::Vec2 q, int k) const;

  /// Appends all ids with d(q, p) <= r, in left-first leaf order; a point
  /// exactly at distance r too, since the squared-distance node prune is
  /// widened past its rounding.
  void RangeCircle(geom::Vec2 q, double r, std::vector<int>* out) const;

  /// RangeCircle for a batch with a per-query radius: `(*out)[i]` is
  /// bit-identical to `RangeCircle(queries[i], radii[i], ...)` — same
  /// ids, same left-first report order. Packs share one BatchPrunedVisit
  /// (per lane exactly the scalar prune sequence) and a SIMD
  /// squared-distance prefilter that only skips points provably outside
  /// the radius; every survivor runs the scalar accept test verbatim.
  void RangeCircleBatch(std::span<const geom::Vec2> queries,
                        std::span<const double> radii,
                        std::vector<std::vector<int>>* out,
                        spatial::BatchStats* stats = nullptr) const;

  /// Streams points by increasing distance from a fixed query.
  class Enumerator {
   public:
    Enumerator(const KdTree& tree, geom::Vec2 q);
    /// Next-closest point id, or -1 when exhausted (and forever after).
    int Next(double* dist = nullptr) { return impl_.Next(dist); }

   private:
    struct Keys {
      const KdTree* tree;
      geom::Vec2 q;
      double NodeKey(int node) const {
        return std::sqrt(tree->tree_.box(node).DistSqTo(q));
      }
      double ItemKey(int id) const { return Dist(q, tree->pts_[id]); }
    };
    spatial::BestFirstEnumerator<spatial::FlatKdTree<>, Keys> impl_;
  };

 private:
  std::vector<geom::Vec2> pts_;
  spatial::FlatKdTree<> tree_;

  friend class Enumerator;
};

}  // namespace range
}  // namespace unn

#endif  // UNN_RANGE_KDTREE_H_
