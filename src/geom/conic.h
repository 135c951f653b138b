#ifndef UNN_GEOM_CONIC_H_
#define UNN_GEOM_CONIC_H_

#include <optional>

#include "geom/vec2.h"

/// \file conic.h
/// Focal conics: single hyperbola branches expressed in polar form about one
/// focus. Every curve appearing in the nonzero Voronoi machinery of the
/// paper (its Section 2) is such a branch:
///
///   gamma_ij = { x : delta_i(x) = Delta_j(x) }   (distance difference r_i+r_j)
///   bisector { delta_i = delta_j }               (distance difference r_i-r_j)
///   AW-Voronoi bisector { d(x,c_i)+r_i = d(x,c_j)+r_j }
///
/// all have the form { x : d(x, origin) - d(x, other) = s } with |s| < D,
/// D = |origin - other|, which in polar coordinates (r, theta) about
/// `origin` is the function graph
///
///   r(theta) = (D^2 - s^2) / (2 (D cos(theta - phi) - s)),
///
/// valid on the open angular window |theta - phi| < alpha = arccos(s/D),
/// where phi is the direction from `origin` to `other`. Each ray from the
/// origin focus meets the branch at most once, which is what makes
/// polar-envelope computation (Lemma 2.2) possible.

namespace unn {
namespace geom {

/// One hyperbola branch { x : d(x, origin) - d(x, other) = s }, |s| < D,
/// as a polar function graph about `origin`. Immutable value type.
class FocalConic {
 public:
  /// Builds the branch, or nullopt when it is empty (|s| >= D, including the
  /// degenerate |s| == D ray, which we treat as empty per the general-position
  /// policy).
  static std::optional<FocalConic> DistanceDifference(Vec2 origin, Vec2 other,
                                                      double s);

  /// Polar radius at angle `theta` (caller must ensure InDomain(theta);
  /// values blow up toward the domain boundary).
  double RadiusAt(double theta) const;

  /// Point on the branch at angle `theta` about the origin focus.
  Vec2 PointAt(double theta) const;

  /// True if `theta` lies strictly inside the angular domain, shrunk by
  /// `slack` radians on both sides (slack may be negative to widen).
  bool InDomain(double theta, double slack = 0.0) const;

  /// Direction from origin focus to the other focus, in [0, 2*pi).
  double phi() const { return phi_; }
  /// Half-width of the angular domain, in (0, pi).
  double alpha() const { return alpha_; }
  /// Domain endpoints (not normalized; lo may be negative, hi may exceed
  /// 2*pi; the domain is (lo, hi) on the circle).
  double DomainLo() const { return phi_ - alpha_; }
  double DomainHi() const { return phi_ + alpha_; }

  Vec2 origin() const { return origin_; }
  Vec2 other() const { return other_; }
  double D() const { return dist_; }
  double s() const { return s_; }

  /// Implicit function F(x) = d(x, origin) - d(x, other) - s whose zero set
  /// is this branch. Sign tells which side of the branch `x` lies on:
  /// negative on the side containing the origin focus.
  double Implicit(Vec2 x) const;

  /// Intersections of two branches that share the same origin focus.
  /// Writes up to two angles (normalized to [0, 2*pi)) at which the two
  /// polar graphs coincide and are both in-domain; returns the count.
  static int Intersect(const FocalConic& c1, const FocalConic& c2,
                       double out_thetas[2]);

  /// An intersection between this branch and a parametric segment.
  struct SegmentHit {
    double t;       ///< Parameter along [p, q], in [0, 1].
    double theta;   ///< Polar angle about the origin focus, in [0, 2*pi).
    Vec2 point;     ///< The intersection point.
  };

  /// Intersections with the closed segment [p, q]; at most two.
  int IntersectSegment(Vec2 p, Vec2 q, SegmentHit out[2]) const;

 private:
  FocalConic(Vec2 origin, Vec2 other, double s, double dist, double phi,
             double alpha)
      : origin_(origin),
        other_(other),
        s_(s),
        dist_(dist),
        phi_(phi),
        alpha_(alpha) {}

  Vec2 origin_;
  Vec2 other_;
  double s_;
  double dist_;
  double phi_;
  double alpha_;
};

}  // namespace geom
}  // namespace unn

#endif  // UNN_GEOM_CONIC_H_
