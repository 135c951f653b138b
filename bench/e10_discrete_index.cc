// Experiment E10 — Theorem 3.2: discrete NN!=0 on the quantification
// index (QuantTree::NonzeroNn: the Delta envelope, then the supports
// within Delta(q)) vs the O(N) scan. Query time grows sublinearly in
// N = nk, matching the sqrt(N)-type bound's shape. Every timed answer is
// checked against the scan, and a mismatch fails the run.

#include <cstdio>
#include <vector>

#include "baselines/brute_force.h"
#include "bench_util.h"
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
  size_t total_mismatches = 0;
  auto sizes =
      bench::Sweep<int>(args.tiny, {125, 500}, {125, 500, 2000, 8000});
  for (int n : sizes) {
    auto pts = workload::RandomDiscrete(n, 4, /*seed=*/12);
    double extent = std::sqrt(static_cast<double>(n)) * 2.5;
    auto queries = bench::RandomQueries(args.tiny ? 100 : 1000, extent, 41);
    bench::Timer tb;
    core::QuantTree tree(&pts);
    double build = tb.Ms();
    std::vector<std::vector<int>> got(queries.size());
    bench::Timer ti;
    for (size_t i = 0; i < queries.size(); ++i) {
      got[i] = tree.NonzeroNn(queries[i]);
    }
    double index_us = ti.Ms() * 1000 / queries.size();
    size_t mismatches = 0;
    bench::Timer tbr;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (baselines::NonzeroNn(pts, queries[i]) != got[i]) ++mismatches;
    }
    double brute_us = tbr.Ms() * 1000 / queries.size();
    total_mismatches += mismatches;
    printf("%8d %8d %14.1f %14.2f %14.2f %9.1fx%s\n", n, 4 * n, build,
           index_us, brute_us, brute_us / index_us,
           mismatches ? "  MISMATCH" : "");
    json.StartRow();
    json.Metric("n", n);
    json.Metric("N", 4 * n);
    json.Metric("build_ms", build);
    json.Metric("index_query_us", index_us);
    json.Metric("brute_query_us", brute_us);
    json.Metric("mismatches", static_cast<double>(mismatches));
    growth.push_back({static_cast<double>(4 * n), index_us});
  }
  printf("measured query-time growth exponent vs N: %.2f (sublinear; brute "
         "force is 1.0)\n",
         bench::LogLogSlope(growth));
  printf("mismatches against the scan: %zu\n", total_mismatches);
  json.StartRow();
  json.Metric("growth_exponent", bench::LogLogSlope(growth));
  return (json.Write(args.json_path) && total_mismatches == 0) ? 0 : 1;
}
