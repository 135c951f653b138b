// Experiment E6 — Theorem 2.11 vs Theorem 3.1: the V!=0 point-location
// structure answers NN!=0 queries fastest but its size can blow up (cubic
// worst case); the near-linear index (core::QuantTree::NonzeroNn, the
// Delta envelope then the supports within Delta(q)) trades a slightly
// slower query for O(n) space; the O(n) brute-force scan anchors the
// comparison.

#include <cstdio>

#include "baselines/brute_force.h"
#include "bench_util.h"
#include "core/nonzero_voronoi.h"
#include "core/quant_tree.h"
#include "workload/generators.h"

using namespace unn;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e06");
  printf("E6: NN!=0 query structures (Thm 2.11 diagram vs Thm 3.1 index vs "
         "brute force)\n");
  printf("%6s %14s %14s %14s %14s %14s %12s\n", "n", "diagram_ms",
         "diag_query_us", "index_query_us", "brute_query_us", "diagram_mu",
         "label_nodes");
  auto sizes = bench::Sweep<int>(args.tiny, {50}, {50, 200, 800});
  int num_queries = args.tiny ? 200 : 2000;
  for (int n : sizes) {
    auto pts = workload::RandomDisks(n, /*seed=*/5);
    double extent = std::sqrt(static_cast<double>(n)) * 2.5;
    auto queries = bench::RandomQueries(num_queries, extent, 99);

    double diagram_build = -1, diag_q = -1;
    long long mu = -1, label_nodes = -1;
    if (n <= 200) {  // The diagram's O(n^3) construction is the point here.
      bench::Timer tb;
      core::NonzeroVoronoi vd(pts);
      diagram_build = tb.Ms();
      mu = vd.stats().arrangement_vertices;
      label_nodes = vd.stats().label_nodes;
      bench::Timer tq;
      size_t sink = 0;
      for (auto q : queries) sink += vd.Query(q).size();
      diag_q = tq.Ms() * 1000.0 / queries.size();
      if (sink == 0) printf("");
    }

    core::QuantTree ix(&pts);
    bench::Timer ti;
    size_t sink = 0;
    for (auto q : queries) sink += ix.NonzeroNn(q).size();
    double index_q = ti.Ms() * 1000.0 / queries.size();

    bench::Timer tbr;
    for (auto q : queries) sink += baselines::NonzeroNn(pts, q).size();
    double brute_q = tbr.Ms() * 1000.0 / queries.size();
    if (sink == 0) printf("");

    printf("%6d %14.1f %14.2f %14.2f %14.2f %14lld %12lld\n", n,
           diagram_build, diag_q, index_q, brute_q, mu, label_nodes);
    json.StartRow();
    json.Metric("n", n);
    json.Metric("diagram_build_ms", diagram_build);
    json.Metric("diagram_query_us", diag_q);
    json.Metric("index_query_us", index_q);
    json.Metric("brute_query_us", brute_q);
    json.Metric("diagram_mu", static_cast<double>(mu));
    json.Metric("label_nodes", static_cast<double>(label_nodes));
  }
  printf("(both structures beat the O(n) scan and stay flat in n; on random "
         "inputs the O(n)-space index even outruns the diagram, whose value "
         "is the O(log n + t) guarantee plus the complexity statistics; the "
         "diagram's superlinear size/build cost is visible in diagram_ms and "
         "diagram_mu)\n");
  return json.Write(args.json_path) ? 0 : 1;
}
