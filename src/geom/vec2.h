#ifndef UNN_GEOM_VEC2_H_
#define UNN_GEOM_VEC2_H_

#include <algorithm>
#include <cmath>
#include <limits>

/// \file vec2.h
/// Plane vectors/points and axis-aligned boxes. These are deliberately
/// passive value types (Google-style structs): all state is public and all
/// operations are free functions or tiny inline members.

namespace unn {
namespace geom {

/// A point or vector in the plane.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double xx, double yy) : x(xx), y(yy) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double t) const { return {x * t, y * t}; }
  constexpr Vec2 operator/(double t) const { return {x / t, y / t}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  constexpr bool operator==(Vec2 o) const { return x == o.x && y == o.y; }
  constexpr bool operator!=(Vec2 o) const { return !(*this == o); }
};

constexpr Vec2 operator*(double t, Vec2 v) { return v * t; }

/// Dot product.
constexpr double Dot(Vec2 a, Vec2 b) { return a.x * b.x + a.y * b.y; }

/// 2D cross product (z-component of the 3D cross product).
constexpr double Cross(Vec2 a, Vec2 b) { return a.x * b.y - a.y * b.x; }

/// Squared Euclidean norm.
constexpr double NormSq(Vec2 v) { return Dot(v, v); }

/// Euclidean norm.
inline double Norm(Vec2 v) { return std::hypot(v.x, v.y); }

/// Squared Euclidean distance.
constexpr double DistSq(Vec2 a, Vec2 b) { return NormSq(a - b); }

/// Euclidean distance.
inline double Dist(Vec2 a, Vec2 b) { return Norm(a - b); }

/// Counter-clockwise perpendicular.
constexpr Vec2 Perp(Vec2 v) { return {-v.y, v.x}; }

/// Unit vector in direction `theta` (radians).
inline Vec2 UnitVec(double theta) { return {std::cos(theta), std::sin(theta)}; }

/// Angle of `v` in [-pi, pi].
inline double Angle(Vec2 v) { return std::atan2(v.y, v.x); }

/// Normalized copy of `v`; returns (0,0) for the zero vector.
inline Vec2 Normalized(Vec2 v) {
  double n = Norm(v);
  return n > 0 ? v / n : Vec2{0, 0};
}

/// True when neither coordinate is NaN or infinite.
inline bool IsFinite(Vec2 v) {
  return std::isfinite(v.x) && std::isfinite(v.y);
}

/// Linear interpolation `a + t (b - a)`.
constexpr Vec2 Lerp(Vec2 a, Vec2 b, double t) { return a + (b - a) * t; }

/// An axis-aligned bounding box. Default-constructed boxes are empty and
/// absorb points via Expand().
struct Box {
  Vec2 lo{std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
  Vec2 hi{-std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};

  constexpr Box() = default;
  constexpr Box(Vec2 l, Vec2 h) : lo(l), hi(h) {}

  bool Empty() const { return lo.x > hi.x || lo.y > hi.y; }

  /// Grows the box to contain `p`.
  void Expand(Vec2 p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }

  /// Grows the box to contain `b`.
  void Expand(const Box& b) {
    Expand(b.lo);
    Expand(b.hi);
  }

  bool Contains(Vec2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  Vec2 Center() const { return (lo + hi) * 0.5; }
  double Width() const { return hi.x - lo.x; }
  double Height() const { return hi.y - lo.y; }
  double Diagonal() const { return Dist(lo, hi); }

  /// Box grown by `margin` on every side.
  Box Inflated(double margin) const {
    return Box{{lo.x - margin, lo.y - margin}, {hi.x + margin, hi.y + margin}};
  }

  /// Squared distance from `p` to the box (0 if inside).
  double DistSqTo(Vec2 p) const {
    double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
    double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
    return dx * dx + dy * dy;
  }

  /// Largest distance from `p` to any point of the box.
  double MaxDistTo(Vec2 p) const {
    double dx = std::max(std::abs(p.x - lo.x), std::abs(p.x - hi.x));
    double dy = std::max(std::abs(p.y - lo.y), std::abs(p.y - hi.y));
    return std::hypot(dx, dy);
  }
};

}  // namespace geom
}  // namespace unn

#endif  // UNN_GEOM_VEC2_H_
