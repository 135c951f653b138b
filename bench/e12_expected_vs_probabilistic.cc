// Experiment E12 — Section 1.2 / paper I [AESZ12] / [YTX+10]: the
// expected-distance NN increasingly disagrees with the most-probable NN as
// uncertainty grows — the paper's motivation for quantification
// probabilities over expected distances.

#include <cstdio>

#include "bench_util.h"
#include "core/expected_nn.h"
#include "core/monte_carlo_pnn.h"
#include "workload/generators.h"

using namespace unn;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e12");
  printf("E12: expected-NN vs most-probable-NN disagreement (paper I "
         "variant, [YTX+10] critique)\n");
  printf("%14s %16s\n", "radius_scale", "disagreement_%%");
  auto scales = bench::Sweep<double>(args.tiny, {0.5, 2.0},
                                     {0.1, 0.5, 1.0, 2.0, 4.0});
  for (double scale : scales) {
    auto pts = workload::RandomDisks(20, /*seed=*/31, 10.0, 0.05 * scale,
                                     2.0 * scale);
    core::ExpectedNn enn(&pts);
    core::MonteCarloPnnOptions opts;
    opts.s_override = args.tiny ? 400 : 2000;
    core::QuantTree tree(&pts);
    core::MonteCarloPnn mc(&tree, opts);
    int disagree = 0;
    auto queries = bench::RandomQueries(args.tiny ? 60 : 300, 12, 43);
    for (auto q : queries) {
      int expected_nn = enn.QuerySquared(q);
      auto est = mc.Query(q);
      int most_probable = -1;
      double best = -1;
      for (auto [id, p] : est) {
        if (p > best) {
          best = p;
          most_probable = id;
        }
      }
      if (expected_nn != most_probable) ++disagree;
    }
    printf("%14.1f %15.1f%%\n", scale,
           100.0 * disagree / static_cast<double>(queries.size()));
    json.StartRow();
    json.Metric("radius_scale", scale);
    json.Metric("disagreement_pct",
                100.0 * disagree / static_cast<double>(queries.size()));
  }
  printf("(disagreement grows with the uncertainty radius — expected "
         "distance is a poor summary under large uncertainty)\n");
  return json.Write(args.json_path) ? 0 : 1;
}
