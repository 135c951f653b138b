// Experiment E8 — Theorems 4.3/4.5: Monte-Carlo estimation of all pi_i(q).
// Measured max error stays below the configured eps at the theorem's sample
// count s ~ (1/2 eps^2) ln(2 n |Q| / delta); the [CKP04]-style numerical
// integration baseline for the continuous case is orders of magnitude
// slower per query.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/brute_force.h"
#include "bench_util.h"
#include "core/exact_pnn.h"
#include "core/monte_carlo_pnn.h"
#include "workload/generators.h"

using namespace unn;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e08");
  printf("E8a: Monte-Carlo vs exact (discrete, n=10 k=3, delta=0.05)\n");
  printf("%8s %8s %12s %12s %14s\n", "eps", "s", "max_err", "err<=eps",
         "query_ms");
  auto pts = workload::RandomDiscrete(10, 3, /*seed=*/8, 8.0, 2.5);
  auto queries = bench::RandomQueries(args.tiny ? 10 : 30, 9, 17);
  auto epss = bench::Sweep<double>(args.tiny, {0.2, 0.1}, {0.2, 0.1, 0.05});
  for (double eps : epss) {
    core::MonteCarloPnnOptions opts;
    opts.eps = eps;
    opts.delta = 0.05;
    core::QuantTree tree(&pts);
    core::MonteCarloPnn mc(&tree, opts);
    double max_err = 0;
    bench::Timer tq;
    for (auto q : queries) {
      auto exact = baselines::QuantificationProbabilities(pts, q);
      std::vector<double> est(pts.size(), 0.0);
      for (auto [id, p] : mc.Query(q)) est[id] = p;
      for (size_t i = 0; i < pts.size(); ++i) {
        max_err = std::max(max_err, std::abs(est[i] - exact[i]));
      }
    }
    printf("%8.2f %8d %12.4f %12s %14.2f\n", eps, mc.num_instantiations(),
           max_err, max_err <= eps ? "yes" : "NO",
           tq.Ms() / queries.size());
    json.StartRow();
    json.Metric("eps", eps);
    json.Metric("s", mc.num_instantiations());
    json.Metric("max_err", max_err);
    json.Metric("query_ms", tq.Ms() / queries.size());
  }

  printf("\nE8b: continuous case — MC structure vs numerical integration "
         "(n=6 truncated-Gaussian disks)\n");
  // Truncated Gaussians: every cdf evaluation inside Eq. (1) is itself a
  // quadrature, which is what makes the [CKP04] baseline expensive for
  // non-uniform pdfs (sampling is O(1) regardless).
  auto disks = workload::RandomDisks(6, /*seed=*/4, 4.0, 0.5, 1.5);
  for (auto& d : disks) {
    d = core::UncertainPoint::Disk(d.center(), d.radius(),
                                   core::DiskPdf::kTruncatedGaussian);
  }
  core::MonteCarloPnnOptions opts;
  opts.eps = args.tiny ? 0.1 : 0.05;
  opts.delta = 0.05;
  core::QuantTree tree(&disks);
  core::MonteCarloPnn mc(&tree, opts);
  auto qs = bench::RandomQueries(args.tiny ? 4 : 10, 5, 23);
  bench::Timer tmc;
  for (auto q : qs) mc.Query(q);
  double mc_ms = tmc.Ms() / qs.size();
  bench::Timer tint;
  for (auto q : qs) core::IntegrateAllQuantifications(disks, q, 1e-8);
  double int_ms = tint.Ms() / qs.size();
  printf("MC query (s=%d): %.2f ms;  integration (Eq. 1): %.2f ms;  "
         "ratio %.0fx\n",
         mc.num_instantiations(), mc_ms, int_ms, int_ms / std::max(mc_ms, 1e-9));
  json.StartRow();
  json.Metric("continuous_mc_ms", mc_ms);
  json.Metric("continuous_integration_ms", int_ms);
  return json.Write(args.json_path) ? 0 : 1;
}
