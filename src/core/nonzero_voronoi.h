#ifndef UNN_CORE_NONZERO_VORONOI_H_
#define UNN_CORE_NONZERO_VORONOI_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/uncertain_point.h"
#include "dcel/planar_subdivision.h"
#include "envelope/polar_envelope.h"
#include "geom/vec2.h"
#include "persist/persistent_set.h"
#include "pointloc/ray_shooter.h"

/// \file nonzero_voronoi.h
/// The nonzero Voronoi diagram V!=0(P) for uncertain points with disk
/// uncertainty regions (Section 2.1 and Theorems 2.5/2.11 of the paper).
///
/// Construction pipeline (Section 2 of the paper; docs/ARCHITECTURE.md,
/// "Where each paper structure lives"):
///   1. gamma_i = lower envelope, polar about c_i, of the hyperbola
///      branches gamma_ij = {delta_i = Delta_j} (Lemma 2.2);
///   2. vertices of A(Gamma) = breakpoints of each gamma_i plus pairwise
///      crossings gamma_i x gamma_j, the latter obtained by intersecting
///      gamma_i's arcs with the bisector conic {delta_i = delta_j} — a
///      closed-form linear trigonometric equation per arc;
///   3. curves are clipped to a rectangular window, split at vertices, and
///      assembled into a DCEL together with the window frame;
///   4. every boundary loop receives its label set P_phi by BFS — crossing
///      an edge of gamma_i toggles i — stored as versions of a partially
///      persistent treap ([DSST89]; O(mu) total label space, Theorem 2.11);
///   5. queries locate q by grid-accelerated vertical ray shooting and
///      return the loop's stored set in O(t) after location.
///
/// Queries outside the window (or hitting an unlabeled sliver) fall back to
/// the O(n) definition, so answers are always exact.

namespace unn {
namespace core {

struct NonzeroVoronoiOptions {
  /// Clipping window. Empty (default) selects the bounding box of the
  /// input disks inflated by `auto_window_margin` times its diagonal.
  geom::Box window;
  double auto_window_margin = 1.0;
  /// Grid resolution for the point-location accelerator (0 = auto).
  int locator_cells_per_axis = 0;
};

class NonzeroVoronoi {
 public:
  struct Stats {
    /// Total arcs over all gamma_i envelopes.
    int64_t gamma_arcs = 0;
    /// Total Lemma-2.2 breakpoints over all gamma_i.
    int64_t gamma_breakpoints = 0;
    /// Distinct gamma_i x gamma_j crossing points (unclipped plane count;
    /// this plus breakpoints is the paper's vertex count of A(Gamma)).
    int64_t curve_crossings = 0;
    /// curve_crossings + gamma_breakpoints.
    int64_t arrangement_vertices = 0;
    /// DCEL-level counts inside the clipping window (frame included).
    int dcel_vertices = 0;
    int dcel_edges = 0;
    int dcel_faces_euler = 0;
    int bounded_faces = 0;
    int components = 0;
    /// Loops that could not be labeled (queries there fall back; 0 in
    /// healthy builds apart from the frame-exterior loop).
    int unlabeled_loops = 0;
    /// Nodes in the persistent label store (Theorem 2.11 space accounting).
    int64_t label_nodes = 0;
    /// Sub-arcs dropped by defensive finite/inside checks (0 expected).
    int64_t dropped_subarcs = 0;
  };

  /// Builds V!=0 of `points` (all must have disk regions).
  explicit NonzeroVoronoi(std::vector<UncertainPoint> points,
                          const NonzeroVoronoiOptions& opts = {});

  /// NN!=0(q): ids of all points with nonzero probability of being the
  /// nearest neighbor of q, sorted increasing. Exact.
  std::vector<int> Query(geom::Vec2 q) const;

  /// The *guaranteed* nearest neighbor at q, if any: the single id whose
  /// NN probability is 1 (|NN!=0(q)| == 1). Returns -1 when no point is
  /// guaranteed. Cells with a guaranteed NN form the linear-complexity
  /// guaranteed Voronoi diagram of [SE08] (Section 1.2 of the paper).
  int GuaranteedNn(geom::Vec2 q) const;

  /// Number of bounded faces whose label is a single point — the cells of
  /// the [SE08] guaranteed Voronoi diagram inside the window.
  int NumGuaranteedFaces() const;

  /// True if the last-resort O(n) fallback would be used for q (outside
  /// window or unlabeled sliver).
  bool IsFallbackQuery(geom::Vec2 q) const;

  const Stats& stats() const { return stats_; }
  const geom::Box& window() const { return window_; }
  const std::vector<UncertainPoint>& points() const { return points_; }
  const dcel::PlanarSubdivision& subdivision() const { return sub_; }
  const std::vector<envelope::PolarEnvelope>& gammas() const { return gammas_; }

 private:
  struct ArcEvents {
    std::vector<double> thetas;
  };

  void ComputeGammas();
  void EnumerateCrossings();
  void EnumerateBoxCrossings();
  void BuildEdges();
  void BuildFrame();
  void AssignLabels();
  int SnapVertex(geom::Vec2 p);
  std::vector<int> BruteQuery(geom::Vec2 q) const;

  std::vector<UncertainPoint> points_;
  geom::Box window_;
  double scale_ = 1.0;

  std::vector<envelope::PolarEnvelope> gammas_;
  /// events_[i][arc_index] = split angles within that envelope arc.
  std::vector<std::vector<ArcEvents>> events_;
  /// Frame-side crossing registry: (side 0..3, parameter, vertex id).
  std::vector<std::vector<std::pair<double, int>>> frame_hits_;

  dcel::PlanarSubdivision sub_;
  std::unique_ptr<pointloc::RayShooter> shooter_;

  persist::PersistentSet labels_;
  std::vector<persist::Version> loop_version_;

  // Vertex snapping grid.
  double snap_tol_ = 1e-9;
  std::unordered_map<uint64_t, std::vector<int>> snap_grid_;

  Stats stats_;
};

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_NONZERO_VORONOI_H_
