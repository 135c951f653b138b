#include "dcel/planar_subdivision.h"

#include <cmath>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "arrangement/segment_arrangement.h"
#include "envelope/polar_envelope.h"
#include "geom/trig.h"
#include "pointloc/ray_shooter.h"

namespace unn {
namespace dcel {
namespace {

using geom::Box;
using geom::FocalConic;
using geom::Vec2;

PlanarSubdivision MakeBox(Vec2 lo, Vec2 hi, int* vids = nullptr) {
  PlanarSubdivision sub;
  int v0 = sub.AddVertex(lo);
  int v1 = sub.AddVertex({hi.x, lo.y});
  int v2 = sub.AddVertex(hi);
  int v3 = sub.AddVertex({lo.x, hi.y});
  sub.AddEdge(v0, v1, EdgeShape::Segment(lo, {hi.x, lo.y}), kFrameCurve);
  sub.AddEdge(v1, v2, EdgeShape::Segment({hi.x, lo.y}, hi), kFrameCurve);
  sub.AddEdge(v2, v3, EdgeShape::Segment(hi, {lo.x, hi.y}), kFrameCurve);
  sub.AddEdge(v3, v0, EdgeShape::Segment({lo.x, hi.y}, lo), kFrameCurve);
  if (vids != nullptr) {
    vids[0] = v0;
    vids[1] = v1;
    vids[2] = v2;
    vids[3] = v3;
  }
  return sub;
}

TEST(PlanarSubdivision, PlainBoxTopology) {
  PlanarSubdivision sub = MakeBox({0, 0}, {10, 10});
  sub.Build();
  EXPECT_EQ(sub.NumVertices(), 4);
  EXPECT_EQ(sub.NumEdges(), 4);
  EXPECT_EQ(sub.NumLoops(), 2);
  EXPECT_EQ(sub.NumComponents(), 1);
  EXPECT_EQ(sub.NumFacesEuler(), 2);   // Interior + unbounded.
  EXPECT_EQ(sub.NumCcwLoops(), 1);     // One bounded face.
}

TEST(PlanarSubdivision, BoxWithDiagonal) {
  int v[4];
  PlanarSubdivision sub = MakeBox({0, 0}, {10, 10}, v);
  sub.AddEdge(v[0], v[2], EdgeShape::Segment({0, 0}, {10, 10}), 7);
  sub.Build();
  EXPECT_EQ(sub.NumEdges(), 5);
  EXPECT_EQ(sub.NumFacesEuler(), 3);
  EXPECT_EQ(sub.NumCcwLoops(), 2);
  EXPECT_EQ(sub.NumLoops(), 3);
}

TEST(PlanarSubdivision, IslandInsideFrame) {
  PlanarSubdivision sub = MakeBox({0, 0}, {10, 10});
  // Disconnected island square.
  int a = sub.AddVertex({4, 4});
  int b = sub.AddVertex({6, 4});
  int c = sub.AddVertex({6, 6});
  int d = sub.AddVertex({4, 6});
  sub.AddEdge(a, b, EdgeShape::Segment({4, 4}, {6, 4}), 1);
  sub.AddEdge(b, c, EdgeShape::Segment({6, 4}, {6, 6}), 1);
  sub.AddEdge(c, d, EdgeShape::Segment({6, 6}, {4, 6}), 1);
  sub.AddEdge(d, a, EdgeShape::Segment({4, 6}, {4, 4}), 1);
  sub.Build();
  EXPECT_EQ(sub.NumComponents(), 2);
  EXPECT_EQ(sub.NumFacesEuler(), 3);  // Ring face, island face, unbounded.
  EXPECT_EQ(sub.NumCcwLoops(), 2);
  EXPECT_EQ(sub.NumLoops(), 4);
}

TEST(PlanarSubdivision, DanglingEdgeWalksBackOnItself) {
  PlanarSubdivision sub;
  int a = sub.AddVertex({0, 0});
  int b = sub.AddVertex({1, 0});
  sub.AddEdge(a, b, EdgeShape::Segment({0, 0}, {1, 0}), 0);
  sub.Build();
  EXPECT_EQ(sub.NumLoops(), 1);
  EXPECT_EQ(sub.loop(0).num_half_edges, 2);
  EXPECT_EQ(sub.NumFacesEuler(), 1);  // Just the unbounded face.
  EXPECT_EQ(sub.NumCcwLoops(), 0);
}

/// Builds the closed envelope curve gamma_0 of a small disk surrounded by a
/// ring of disks (fully covered in every direction), as a loop of conic arcs.
struct ClosedCurveFixture {
  PlanarSubdivision sub;
  Vec2 center{0, 0};
  envelope::PolarEnvelope env;

  ClosedCurveFixture() {
    std::vector<std::optional<FocalConic>> curves;
    double ring_r = 6.0, disk_r = 1.0, center_r = 0.5;
    for (int j = 0; j < 4; ++j) {
      double ang = geom::kTwoPi * j / 4.0;
      Vec2 cj = center + geom::UnitVec(ang) * ring_r;
      curves.push_back(
          FocalConic::DistanceDifference(center, cj, center_r + disk_r));
    }
    env = envelope::PolarEnvelope::Compute(curves);
    EXPECT_TRUE(env.FullyCovered());
    // Vertices at arc boundaries; arcs between consecutive ones.
    const auto& arcs = env.arcs();
    std::vector<int> vid(arcs.size());
    for (size_t i = 0; i < arcs.size(); ++i) {
      Vec2 p = curves[arcs[i].curve]->PointAt(arcs[i].lo);
      vid[i] = sub.AddVertex(p);
    }
    for (size_t i = 0; i < arcs.size(); ++i) {
      size_t nxt = (i + 1) % arcs.size();
      EdgeShape shape =
          EdgeShape::Arc(*curves[arcs[i].curve], arcs[i].lo, arcs[i].hi);
      sub.AddEdge(vid[i], vid[nxt], shape, 0);
    }
    sub.Build();
  }
};

TEST(PlanarSubdivision, ClosedConicLoopTopology) {
  ClosedCurveFixture fx;
  EXPECT_EQ(fx.sub.NumLoops(), 2);
  EXPECT_EQ(fx.sub.NumCcwLoops(), 1);
  EXPECT_EQ(fx.sub.NumFacesEuler(), 2);
  // The CCW loop must be the one bounding the interior.
  int ccw_loop = fx.sub.loop(0).ccw ? 0 : 1;
  EXPECT_TRUE(fx.sub.loop(ccw_loop).ccw);
  EXPECT_FALSE(fx.sub.loop(1 - ccw_loop).ccw);
}

TEST(RayShooter, LocatesInsideAndOutsideOfClosedConicLoop) {
  ClosedCurveFixture fx;
  pointloc::RayShooter shooter(fx.sub);
  int ccw_loop = fx.sub.loop(0).ccw ? 0 : 1;

  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> au(0, geom::kTwoPi);
  int inside_checked = 0, outside_checked = 0;
  for (int i = 0; i < 500; ++i) {
    double theta = au(rng);
    auto [rstar, idx] = fx.env.Eval(theta);
    ASSERT_NE(idx, envelope::kNoCurve);
    std::uniform_real_distribution<double> fu(0.05, 0.95);
    Vec2 q_in = fx.center + geom::UnitVec(theta) * (rstar * fu(rng));
    int h = shooter.LocateHalfEdgeAbove(q_in);
    ASSERT_GE(h, 0);
    EXPECT_EQ(fx.sub.half_edge(h).loop, ccw_loop) << "inside point i=" << i;
    ++inside_checked;

    Vec2 q_out = fx.center + geom::UnitVec(theta) * (rstar * 1.5);
    int h2 = shooter.LocateHalfEdgeAbove(q_out);
    if (h2 >= 0) {
      EXPECT_EQ(fx.sub.half_edge(h2).loop, 1 - ccw_loop)
          << "outside point i=" << i;
      ++outside_checked;
    }
  }
  EXPECT_GT(inside_checked, 400);
  EXPECT_GT(outside_checked, 50);
}

TEST(RayShooter, CrossingsParityMatchesContainment) {
  ClosedCurveFixture fx;
  pointloc::RayShooter shooter(fx.sub);
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> u(-10, 10);
  for (int i = 0; i < 300; ++i) {
    Vec2 q{u(rng), u(rng)};
    double theta = geom::Angle(q - fx.center);
    auto [rstar, idx] = fx.env.Eval(theta);
    ASSERT_NE(idx, envelope::kNoCurve);
    double rq = Dist(q, fx.center);
    if (std::abs(rq - rstar) < 1e-3) continue;  // Skip near-boundary.
    bool inside = rq < rstar;
    auto crossings = shooter.CrossingsAbove(q);
    EXPECT_EQ(crossings.size() % 2 == 1, inside) << "i=" << i;
  }
}

TEST(RayShooter, EmptyAboveReturnsMinusOne) {
  PlanarSubdivision sub = MakeBox({0, 0}, {10, 10});
  sub.Build();
  pointloc::RayShooter shooter(sub);
  EXPECT_EQ(shooter.LocateHalfEdgeAbove({5, 20}), -1);
  EXPECT_EQ(shooter.LocateHalfEdgeAbove({-5, 5}), -1);
  int h = shooter.LocateHalfEdgeAbove({5, 5});
  ASSERT_GE(h, 0);
  // Inside the box: left face is the bounded CCW loop.
  EXPECT_TRUE(sub.loop(sub.half_edge(h).loop).ccw);
  int h2 = shooter.LocateHalfEdgeAbove({5, -5});
  ASSERT_GE(h2, 0);
  EXPECT_FALSE(sub.loop(sub.half_edge(h2).loop).ccw);
}

PlanarSubdivision RandomSegmentArrangement(int nsegs, uint64_t seed,
                                           const Box& window) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(window.lo.x - 2, window.hi.x + 2);
  arrangement::SegmentArrangementBuilder builder(window);
  for (int i = 0; i < nsegs; ++i) {
    builder.AddSegment({u(rng), u(rng)}, {u(rng), u(rng)}, i);
  }
  return builder.Build();
}

/// The half-edge whose left face contains q, by definition: scan every
/// non-vertical segment whose x-span holds q.x for the lowest one strictly
/// above q, then take its side facing q. -1 when nothing is above.
int FirstHalfEdgeAboveByScan(const PlanarSubdivision& sub, Vec2 q) {
  int best = -1;
  double best_y = 0.0;
  for (int e = 0; e < sub.NumEdges(); ++e) {
    Vec2 a = sub.edge(e).shape.a();
    Vec2 b = sub.edge(e).shape.b();
    if (a.x == b.x) continue;
    if (a.x > b.x) std::swap(a, b);
    if (q.x < a.x || q.x >= b.x) continue;
    double y = a.y + (b.y - a.y) * ((q.x - a.x) / (b.x - a.x));
    if (y > q.y && (best < 0 || y < best_y)) {
      best = e;
      best_y = y;
    }
  }
  if (best < 0) return -1;
  const Edge& ed = sub.edge(best);
  double side = Cross(ed.shape.b() - ed.shape.a(), q - ed.shape.a());
  return sub.HalfEdgeOf(best, side > 0);
}

TEST(RayShooter, MatchesScanOnRandomArrangements) {
  Box window{{-10, -10}, {10, 10}};
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> qu(-9.5, 9.5);
  for (int iter = 0; iter < 10; ++iter) {
    auto sub = RandomSegmentArrangement(12 + iter, 100 + iter, window);
    pointloc::RayShooter shooter(sub);
    int checked = 0;
    for (int t = 0; t < 400; ++t) {
      Vec2 q{qu(rng), qu(rng)};
      int want = FirstHalfEdgeAboveByScan(sub, q);
      int got = shooter.LocateHalfEdgeAbove(q);
      if (want < 0 || got < 0) {
        // Both must agree that nothing is above (the shooter may bail on
        // ambiguity; skip those).
        if (want < 0 && got < 0) ++checked;
        continue;
      }
      // Same first edge above, or at least the same face (loop).
      EXPECT_EQ(sub.half_edge(got).loop, sub.half_edge(want).loop)
          << "iter=" << iter << " q=(" << q.x << "," << q.y << ")";
      ++checked;
    }
    EXPECT_GT(checked, 350);
  }
}

}  // namespace
}  // namespace dcel
}  // namespace unn
