// Quickstart: every query type of the library on a small mixed scenario.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "core/nonzero_voronoi.h"
#include "core/quant_tree.h"
#include "core/spiral_search.h"
#include "core/vpr_diagram.h"
#include "engine/engine.h"

using namespace unn;
using core::UncertainPoint;
using geom::Vec2;

int main() {
  // --- Continuous model: three sensors with disk-shaped position noise. ---
  std::vector<UncertainPoint> sensors = {
      UncertainPoint::Disk({0, 0}, 1.0),
      UncertainPoint::Disk({6, 1}, 2.0),
      UncertainPoint::Disk({3, 6}, 0.5),
  };
  Vec2 q{3, 2};

  // Nonzero Voronoi diagram (Theorem 2.5 / 2.11): who can be the NN?
  core::NonzeroVoronoi diagram(sensors);
  printf("NN!=0(q) via V!=0 diagram:");
  for (int id : diagram.Query(q)) printf(" P%d", id);
  printf("   (diagram: %lld vertices, %d faces)\n",
         static_cast<long long>(diagram.stats().arrangement_vertices),
         diagram.stats().bounded_faces);

  // The near-linear index (Theorem 3.1) answers the same query in O(n) space.
  core::QuantTree index(&sensors);
  printf("NN!=0(q) via near-linear index:");
  for (int id : index.NonzeroNn(q)) printf(" P%d", id);
  printf("   (Delta(q) = %.3f)\n", index.MaxDistEnvelope(q).best);

  // Monte-Carlo quantification probabilities (Theorem 4.5).
  core::MonteCarloPnnOptions mc_opts;
  mc_opts.eps = 0.02;
  core::MonteCarloPnn mc(&index, mc_opts);
  printf("pi_i(q) by Monte Carlo (eps=0.02, s=%d):", mc.num_instantiations());
  for (auto [id, p] : mc.Query(q)) printf("  P%d: %.3f", id, p);
  printf("\n");

  // Expected-distance NN (the paper-I variant) can disagree with the
  // most-probable NN.
  core::ExpectedNn enn(&sensors);
  printf("argmin E[d^2] = P%d, argmin E[d] = P%d\n", enn.QuerySquared(q),
         index.ExpectedDistanceNn(q));

  // --- Discrete model: check-in locations with probabilities. ---
  std::vector<UncertainPoint> users = {
      UncertainPoint::Discrete({{1, 1}, {2, 3}}, {0.7, 0.3}),
      UncertainPoint::Discrete({{5, 0}, {4, 2}, {6, 1}}, {0.5, 0.25, 0.25}),
      UncertainPoint::Discrete({{0, 5}, {2, 6}}, {0.5, 0.5}),
  };

  // Exact probabilities via the (tiny) exact VPr diagram (Theorem 4.2).
  core::VprDiagram vpr(users);
  printf("exact pi_i(q) via VPr:");
  for (auto [id, p] : vpr.Query(q)) printf("  U%d: %.4f", id, p);
  printf("   (VPr: %d faces)\n", vpr.stats().bounded_faces);

  // Spiral search (Theorem 4.7): deterministic eps-approximation.
  core::SpiralSearch spiral(users);
  printf("pi_i(q) by spiral search (eps=0.01):");
  for (auto [id, p] : spiral.Query(q, 0.01)) printf("  U%d: %.4f", id, p);
  printf("   (retrieved %d of %d sites)\n", spiral.SitesRetrieved(0.01), 7);

  // --- The Engine facade: every query type behind one API. ---
  // kAuto quantifies discrete input exactly (Eq. (2) over the NN!=0
  // candidates), so its probabilities match the VPr line above.
  Engine engine(users);
  printf("\nEngine facade (backend=auto): most-probable NN = U%d, "
         "expected-distance NN = U%d\n",
         engine.MostProbableNn(q), engine.ExpectedDistanceNn(q));

  // Threshold and top-k queries on top of the same probabilities.
  printf("users with pi >= 0.25 (exact):");
  for (auto [id, p] : engine.Threshold(q, 0.25)) printf("  U%d(%.3f)", id, p);
  printf("\n");
  auto top = engine.TopK(q, 2);
  printf("top-2 probable NN: U%d then U%d\n", top[0].first,
         top.size() > 1 ? top[1].first : -1);
  std::vector<Vec2> batch = {{3, 2}, {0, 0}, {5, 5}};
  auto answers =
      engine.QueryMany(batch, {Engine::QueryType::kMostProbableNn});
  printf("batched most-probable NN over %zu queries:", batch.size());
  for (const auto& r : answers) printf(" U%d", r.nn);
  printf("\n");
  return 0;
}
