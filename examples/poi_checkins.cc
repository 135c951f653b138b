// Scenario: location-based service with discrete check-in distributions
// (the classic motivating application of probabilistic NN queries; cf.
// [CXY+10, LS07] in the paper). Each user has k recent check-in spots with
// empirical frequencies; a venue at q asks: who is probably nearest?
//
//   ./build/examples/poi_checkins [n] [k]

#include <cstdio>
#include <cstdlib>

#include "baselines/brute_force.h"
#include "core/monte_carlo_pnn.h"
#include "core/quant_tree.h"
#include "core/spiral_search.h"
#include "engine/engine.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 40;
  int k = argc > 2 ? std::atoi(argv[2]) : 4;
  auto users = workload::RandomDiscrete(n, k, /*seed=*/77, 0.0, 2.0,
                                        /*uniform_weights=*/false);
  Vec2 venue{0.0, 0.0};

  // Candidate set: who has any chance at all (Lemma 2.1 on the
  // quantification tree the Monte-Carlo estimator below borrows too).
  core::QuantTree tree(&users);
  auto candidates = tree.NonzeroNn(venue);
  printf("venue at (0,0): %zu of %d users have nonzero probability of being "
         "nearest\n",
         candidates.size(), n);

  // Probabilities three ways: exact (Eq. 2), spiral (Thm 4.7), MC (Thm 4.3).
  auto exact = baselines::QuantificationProbabilities(users, venue);
  core::SpiralSearch spiral(users);
  std::vector<double> sp(users.size(), 0.0);
  for (auto [id, p] : spiral.Query(venue, 0.01)) sp[id] = p;
  core::MonteCarloPnnOptions opts;
  opts.s_override = 20000;
  core::MonteCarloPnn mc(&tree, opts);
  std::vector<double> mcp(users.size(), 0.0);
  for (auto [id, p] : mc.Query(venue)) mcp[id] = p;

  printf("%6s %10s %10s %10s\n", "user", "exact", "spiral", "monte-carlo");
  for (int id : candidates) {
    if (exact[id] < 5e-4) continue;
    printf("%6d %10.4f %10.4f %10.4f\n", id, exact[id], sp[id], mcp[id]);
  }
  printf("(spiral retrieved %d of %d sites; rho = %.2f)\n",
         spiral.SitesRetrieved(0.01), n * k, spiral.rho());

  // Service decisions through the Engine facade (kAuto answers
  // all-discrete inputs exactly: Eq. (2) over each query's NN!=0
  // candidates, so these match the "exact" column).
  Engine engine(users);
  printf("users with pi >= 0.2:");
  for (auto [id, p] : engine.Threshold(venue, 0.2)) {
    printf("  %d (%.3f)", id, p);
  }
  printf("\n");
  printf("push notification order:");
  for (auto [id, p] : engine.TopK(venue, 3)) printf("  %d", id);
  printf("\n");
  printf("engine: most-probable NN = %d\n", engine.MostProbableNn(venue));
  return 0;
}
