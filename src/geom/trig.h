#ifndef UNN_GEOM_TRIG_H_
#define UNN_GEOM_TRIG_H_

/// \file trig.h
/// Closed-form trigonometric solvers. Every vertex computation in the
/// nonzero Voronoi machinery reduces to the linear trigonometric equation
///   A cos(t) + B sin(t) = C:
/// two focal conics about a common focus (conic.h) cross where their
/// polar radii (D^2 - s^2) / (2 (D cos(t - phi) - s)) agree, and clearing
/// the denominators leaves an equation linear in cos(t) and sin(t). It is
/// solved here exactly up to floating-point rounding.

namespace unn {
namespace geom {

/// Two pi.
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Maps an angle to the canonical range [0, 2*pi).
double NormalizeAngle(double a);

/// Signed circular difference `a - b` mapped to (-pi, pi].
double AngleDiff(double a, double b);

/// Solves `a*cos(t) + b*sin(t) = c` on [0, 2*pi).
///
/// Writes up to two distinct roots into `roots` and returns their count.
/// Tangential (double) roots are reported once. Returns 0 when the equation
/// has no solution or is degenerate (a = b = 0).
int SolveCosSin(double a, double b, double c, double roots[2]);

/// True if angle `t` lies in the circular closed interval from `lo` to `hi`
/// traversed counter-clockwise (all normalized internally). The interval may
/// wrap through 0; if lo == hi the interval is the single point.
bool AngleInCcwInterval(double t, double lo, double hi);

}  // namespace geom
}  // namespace unn

#endif  // UNN_GEOM_TRIG_H_
