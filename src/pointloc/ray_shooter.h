#ifndef UNN_POINTLOC_RAY_SHOOTER_H_
#define UNN_POINTLOC_RAY_SHOOTER_H_

#include <vector>

#include "dcel/planar_subdivision.h"
#include "geom/vec2.h"

/// \file ray_shooter.h
/// Grid-accelerated vertical ray shooting over a planar subdivision: the
/// practical point-location structure behind Theorem 2.11 queries. The
/// query shoots a ray straight up from q, finds the first edge hit, and
/// returns the half-edge whose left face contains q; the caller then reads
/// that loop's stored label. Expected O(1) candidate edges per query on
/// bounded-density subdivisions; worst case linear. Queries carry no
/// shared mutable state, so a built RayShooter may be queried from any
/// number of threads concurrently.

namespace unn {
namespace pointloc {

class RayShooter {
 public:
  /// Indexes all edges of `sub` (which must stay alive and unchanged).
  /// `cells_per_axis` = 0 chooses ~sqrt(#edges), clamped to [4, 512].
  explicit RayShooter(const dcel::PlanarSubdivision& sub,
                      int cells_per_axis = 0);

  /// Half-edge whose left face contains `q`, or -1 when the upward ray
  /// leaves the subdivision without hitting any edge (q is in the unbounded
  /// face). Queries exactly on edges/vertices are resolved by a tiny
  /// horizontal jitter (documented general-position policy).
  int LocateHalfEdgeAbove(geom::Vec2 q) const;

  /// All edge crossings of the upward vertical ray from `q`, as
  /// (y, edge_id) sorted by increasing y. Used by label-parity fallbacks
  /// and by the self-tests.
  std::vector<std::pair<double, int>> CrossingsAbove(geom::Vec2 q) const;

 private:
  struct Hit {
    double y;
    int edge;
    geom::Vec2 dir;
  };

  void CollectHits(geom::Vec2 q, bool first_only, std::vector<Hit>* hits) const;
  int CellOfX(double x) const;
  int CellOfY(double y) const;

  const dcel::PlanarSubdivision& sub_;
  geom::Box world_;
  int nx_ = 0, ny_ = 0;
  double cell_w_ = 0, cell_h_ = 0;
  /// Edge ids per grid cell (row-major, y-major within a column visit).
  std::vector<std::vector<int>> cells_;
};

}  // namespace pointloc
}  // namespace unn

#endif  // UNN_POINTLOC_RAY_SHOOTER_H_
