// Observability tour: stands up a QueryServer over a random uncertain
// dataset, drives a mixed query stream at it (batch + single submits,
// repeats for cache hits), then prints
//   1. the full Prometheus text exposition from DumpMetrics() — the
//      exact bytes a /metrics endpoint would serve;
//   2. the same snapshot as JSON;
//   3. the slow-query log, each entry rendered as an ASCII span tree.
//
//   ./build/examples/metrics_dump

#include <chrono>
#include <cstdio>
#include <vector>

#include "engine/engine.h"
#include "obs/trace.h"
#include "serve/query_server.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

int main() {
  auto pts = workload::RandomDiscrete(2000, 3, /*seed=*/41, /*spread=*/8.0);

  serve::QueryServer::Options options;
  options.num_threads = 4;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 8u << 20;
  // Every request at or above 50us lands in the slow-query ring, with its
  // span tree captured.
  options.slow_query_threshold = std::chrono::microseconds(50);
  options.slow_query_log_size = 8;
  serve::QueryServer server(pts, {}, options);

  // A batch, then repeats of its prefix (cache hits), then single submits
  // of a second query type so the per-type counters diverge.
  std::vector<serve::Request> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({{-8.0 + 16.0 * i / 64, 6.0 - 12.0 * i / 64},
                     {Engine::QueryType::kMostProbableNn}});
  }
  server.QueryBatch(batch);
  server.QueryBatch(batch);
  for (int i = 0; i < 16; ++i) {
    server.Submit({batch[i].q, {Engine::QueryType::kNonzeroNn}}).get();
  }

  std::printf("=== Prometheus exposition (DumpMetrics) ===\n\n%s\n",
              server.DumpMetrics().c_str());
  std::printf("=== JSON snapshot ===\n\n%s\n",
              server.DumpMetrics(obs::MetricsFormat::kJson).c_str());

  auto slow = server.SlowQueries();
  std::printf("=== Slow-query log (threshold %lld us, %zu entries) ===\n\n",
              static_cast<long long>(options.slow_query_threshold.count()),
              slow.size());
  for (const auto& sq : slow) {
    std::printf("q=(%.2f, %.2f) latency=%lld us batch_size=%d\n%s\n", sq.q.x,
                sq.q.y, static_cast<long long>(sq.latency.count()),
                sq.batch_size, obs::RenderSpanTree(sq.spans).c_str());
  }
  if (slow.empty()) {
    std::printf("(no query crossed the threshold — rerun on a slower "
                "machine or lower slow_query_threshold)\n");
  }
  return 0;
}
