#include "geom/seb.h"

#include <algorithm>
#include <cmath>

#include "util/splitmix64.h"

namespace unn {
namespace geom {
namespace {

Circle FromTwo(Vec2 a, Vec2 b) {
  Vec2 c = (a + b) * 0.5;
  return {c, Dist(a, b) * 0.5};
}

Circle FromThree(Vec2 a, Vec2 b, Vec2 c) {
  // Circumcircle via the perpendicular-bisector linear system.
  double bx = b.x - a.x, by = b.y - a.y;
  double cx = c.x - a.x, cy = c.y - a.y;
  double d = 2.0 * (bx * cy - by * cx);
  if (d == 0.0) {
    // Collinear: return the smallest circle through the two extremes.
    Circle r = FromTwo(a, b);
    Circle s = FromTwo(a, c);
    Circle t = FromTwo(b, c);
    Circle best = r;
    if (s.radius > best.radius) best = s;
    if (t.radius > best.radius) best = t;
    return best;
  }
  double b2 = bx * bx + by * by;
  double c2 = cx * cx + cy * cy;
  Vec2 center{a.x + (cy * b2 - by * c2) / d, a.y + (bx * c2 - cx * b2) / d};
  return {center, Dist(center, a)};
}

bool InCircle(const Circle& c, Vec2 p) {
  return Dist(c.center, p) <= c.radius * (1.0 + 1e-12) + 1e-12;
}

}  // namespace

Circle SmallestEnclosingCircle(std::vector<Vec2> pts, uint64_t seed) {
  if (pts.empty()) return {Vec2{0, 0}, 0.0};
  // SplitMix64 seeds in O(1): seeding an mt19937_64 fills 312 words,
  // more work than Welzl's pass over a few sites.
  util::SplitMix64 rng(seed);
  std::shuffle(pts.begin(), pts.end(), rng);

  // Welzl's move-to-front scheme, iterative formulation.
  Circle c{pts[0], 0.0};
  int n = static_cast<int>(pts.size());
  for (int i = 1; i < n; ++i) {
    if (InCircle(c, pts[i])) continue;
    c = {pts[i], 0.0};
    for (int j = 0; j < i; ++j) {
      if (InCircle(c, pts[j])) continue;
      c = FromTwo(pts[i], pts[j]);
      for (int k = 0; k < j; ++k) {
        if (InCircle(c, pts[k])) continue;
        c = FromThree(pts[i], pts[j], pts[k]);
      }
    }
  }
  return c;
}

}  // namespace geom
}  // namespace unn
