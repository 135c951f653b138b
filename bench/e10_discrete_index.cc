// Experiment E10 — Theorem 3.2: the near-linear discrete NN!=0 index
// (the QuantTree's Delta envelope + lifted circular reporting) vs the O(N)
// scan. Query time grows sublinearly in N = nk, matching the sqrt(N)-type
// bound's shape.

#include <cstdio>

#include "baselines/brute_force.h"
#include "bench_util.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/quant_tree.h"
#include "workload/generators.h"

using namespace unn;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e10");
  printf("E10: discrete NN!=0 index vs brute force (Theorem 3.2), k=4\n");
  printf("%8s %8s %14s %14s %14s %10s\n", "n", "N", "build_ms",
         "index_query_us", "brute_query_us", "speedup");
  std::vector<std::pair<double, double>> growth;
  auto sizes =
      bench::Sweep<int>(args.tiny, {125, 500}, {125, 500, 2000, 8000});
  for (int n : sizes) {
    auto pts = workload::RandomDiscrete(n, 4, /*seed=*/12);
    double extent = std::sqrt(static_cast<double>(n)) * 2.5;
    auto queries = bench::RandomQueries(args.tiny ? 100 : 1000, extent, 41);
    bench::Timer tb;
    core::QuantTree tree(&pts);
    core::NnNonzeroDiscreteIndex ix(&tree);
    double build = tb.Ms();
    size_t sink = 0;
    bench::Timer ti;
    for (auto q : queries) sink += ix.Query(q).size();
    double index_us = ti.Ms() * 1000 / queries.size();
    bench::Timer tbr;
    for (auto q : queries) sink += baselines::NonzeroNn(pts, q).size();
    double brute_us = tbr.Ms() * 1000 / queries.size();
    if (sink == 0) printf("");
    printf("%8d %8d %14.1f %14.2f %14.2f %9.1fx\n", n, 4 * n, build, index_us,
           brute_us, brute_us / index_us);
    json.StartRow();
    json.Metric("n", n);
    json.Metric("N", 4 * n);
    json.Metric("build_ms", build);
    json.Metric("index_query_us", index_us);
    json.Metric("brute_query_us", brute_us);
    growth.push_back({static_cast<double>(4 * n), index_us});
  }
  printf("measured query-time growth exponent vs N: %.2f (sublinear; brute "
         "force is 1.0)\n",
         bench::LogLogSlope(growth));
  json.StartRow();
  json.Metric("growth_exponent", bench::LogLogSlope(growth));
  return json.Write(args.json_path) ? 0 : 1;
}
