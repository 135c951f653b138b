// Experiment E14 — the quantification index (core::QuantTree) against the
// O(n) linear scans it replaces behind Engine::MaxDistEnvelope and
// Engine::LogSurvivalProbability. For each n the driver measures, on the
// same query set, (a) the two-smallest max-distance envelope via the
// definition-level scan and via the index, and (b) the log-space survival
// probability via a linear log accumulation and via the index, verifying
// the answers agree (envelope bit-identical, survival within float
// associativity). The index time should grow ~log n (growth exponent
// near 0) while the scans grow linearly (exponent near 1) — the claim
// behind making exact sharded merges sublinear per shard.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e14");
  printf("E14: quantification index vs linear scan "
         "(MaxDistEnvelope / log-survival)\n");
  printf("%9s %9s %12s %12s %8s %10s %12s %12s %8s\n", "n", "build_ms",
         "scan_env_us", "idx_env_us", "env_spd", "idx_pts", "scan_srv_us",
         "idx_srv_us", "srv_spd");

  std::vector<std::pair<double, double>> scan_growth, idx_growth;
  size_t total_mismatches = 0;
  auto sizes = bench::Sweep<int>(args.tiny, {1000, 10000},
                                 {1000, 10000, 100000, 1000000});
  for (int n : sizes) {
    // Bounded-density disks: the spread scales with sqrt(n) inside the
    // generator, the regime where branch-and-bound is near-logarithmic.
    auto pts = workload::RandomDisks(n, /*seed=*/14);
    const int num_queries = n >= 100000 ? 32 : 200;
    // The generator's default extent is 2.5 sqrt(n); span all of it.
    auto queries = bench::RandomQueries(
        num_queries, 2.5 * std::sqrt(static_cast<double>(n)), 141);

    bench::Timer tb;
    core::QuantTree tree(&pts);
    double build_ms = tb.Ms();

    // Envelope: scan vs index, verified identical (values and argmin).
    std::vector<core::DeltaEnvelope> scan_env(queries.size());
    bench::Timer ts;
    for (size_t i = 0; i < queries.size(); ++i) {
      scan_env[i] = core::TwoSmallestMaxDist(pts, queries[i]);
    }
    double scan_env_us = ts.Ms() * 1000.0 / num_queries;

    size_t mismatches = 0;
    long long points_evaluated = 0;
    bench::Timer ti;
    for (size_t i = 0; i < queries.size(); ++i) {
      core::QuantTree::QueryStats stats;
      core::DeltaEnvelope env = tree.MaxDistEnvelope(queries[i], &stats);
      points_evaluated += stats.points_evaluated;
      if (env.best != scan_env[i].best || env.second != scan_env[i].second ||
          env.argbest != scan_env[i].argbest) {
        ++mismatches;
      }
    }
    double idx_env_us = ti.Ms() * 1000.0 / num_queries;
    double idx_pts_avg = static_cast<double>(points_evaluated) / num_queries;

    // Survival at r slightly below the envelope: a handful of supports
    // intersect the ball partially (none is fully contained — that would
    // need Delta_i <= r < min_j Delta_j — so every log stays finite and
    // the exactness gate below compares real values), and the index
    // touches only those supports.
    std::vector<double> radii(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      radii[i] = scan_env[i].best * 0.95;
    }
    std::vector<double> scan_srv(queries.size());
    bench::Timer ss;
    for (size_t i = 0; i < queries.size(); ++i) {
      scan_srv[i] =
          core::QuantTree::LogSurvivalScan(pts, queries[i], radii[i]);
    }
    double scan_srv_us = ss.Ms() * 1000.0 / num_queries;

    bench::Timer si;
    for (size_t i = 0; i < queries.size(); ++i) {
      double got = tree.LogSurvival(queries[i], radii[i]);
      // Infinities compare by identity (|inf - inf| is NaN, which would
      // silently pass a tolerance check); finite values by relative gap.
      bool agree = std::isfinite(got) && std::isfinite(scan_srv[i])
                       ? std::abs(got - scan_srv[i]) <=
                             1e-9 * (1.0 + std::abs(scan_srv[i]))
                       : got == scan_srv[i];
      if (!agree) ++mismatches;
    }
    double idx_srv_us = si.Ms() * 1000.0 / num_queries;

    printf("%9d %9.1f %12.2f %12.2f %8.1f %10.1f %12.2f %12.2f %8.1f%s\n", n,
           build_ms, scan_env_us, idx_env_us, scan_env_us / idx_env_us,
           idx_pts_avg, scan_srv_us, idx_srv_us, scan_srv_us / idx_srv_us,
           mismatches ? "  MISMATCH" : "");
    json.StartRow();
    json.Metric("n", n);
    json.Metric("build_ms", build_ms);
    json.Metric("scan_envelope_us", scan_env_us);
    json.Metric("index_envelope_us", idx_env_us);
    json.Metric("envelope_speedup", scan_env_us / idx_env_us);
    json.Metric("index_points_evaluated_avg", idx_pts_avg);
    json.Metric("scan_survival_us", scan_srv_us);
    json.Metric("index_survival_us", idx_srv_us);
    json.Metric("survival_speedup", scan_srv_us / idx_srv_us);
    json.Metric("mismatches", static_cast<double>(mismatches));
    total_mismatches += mismatches;
    scan_growth.push_back({static_cast<double>(n), scan_env_us});
    idx_growth.push_back({static_cast<double>(n), idx_env_us});
  }

  printf("envelope growth exponent: scan %.2f (theory ~1), index %.2f "
         "(theory ~0, log n)\n",
         bench::LogLogSlope(scan_growth), bench::LogLogSlope(idx_growth));
  json.StartRow();
  json.Metric("scan_growth_exponent", bench::LogLogSlope(scan_growth));
  json.Metric("index_growth_exponent", bench::LogLogSlope(idx_growth));
  // A scan-vs-index disagreement is an exactness regression, not a perf
  // data point: fail the run so CI's bench smoke catches it.
  return (json.Write(args.json_path) && total_mismatches == 0) ? 0 : 1;
}
