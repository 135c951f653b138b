#include "serve/parallel.h"

#include <algorithm>
#include <cstddef>

#include "spatial/batch.h"
#include "util/check.h"

namespace unn {
namespace serve {

std::vector<Engine::QueryResult> QueryMany(const ShardedEngine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool,
                                           obs::TraceNode trace) {
  UNN_CHECK(pool != nullptr);
  if (queries.empty()) return {};
  // A pack of one has no queries to split: its shards are the parallel
  // axis.
  if (queries.size() == 1) return engine.QueryMany(queries, spec, pool, trace);
  // A larger pack splits across queries instead: sorted once, contiguous
  // blocks of the sorted copy run on the pool, each visiting the shards
  // serially (no nested fan-out), and the results are scattered back.
  return spatial::InCoherentOrder(
      queries, [&](std::span<const geom::Vec2> sorted) {
        std::vector<Engine::QueryResult> results(sorted.size());
        pool->ParallelFor(sorted.size(), [&](size_t begin, size_t end) {
          const auto block = sorted.subspan(begin, end - begin);
          auto answers = engine.QueryMany(block, spec, /*pool=*/nullptr);
          std::move(answers.begin(), answers.end(),
                    results.begin() + static_cast<std::ptrdiff_t>(begin));
        });
        return results;
      });
}

}  // namespace serve
}  // namespace unn
