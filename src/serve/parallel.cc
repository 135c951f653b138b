#include "serve/parallel.h"

#include <algorithm>
#include <cstddef>

#include "spatial/batch.h"
#include "util/check.h"

namespace unn {
namespace serve {

namespace {

/// Sorts the pack into Morton order once, runs `query_block` over
/// contiguous blocks of the sorted copy on the pool, and scatters the
/// results back: each block is then one compact region of the plane.
template <typename QueryBlock>
std::vector<Engine::QueryResult> SortedParallelFor(
    std::span<const geom::Vec2> queries, ThreadPool* pool,
    QueryBlock query_block) {
  return spatial::InCoherentOrder(
      queries, [&](std::span<const geom::Vec2> sorted) {
        std::vector<Engine::QueryResult> results(sorted.size());
        pool->ParallelFor(sorted.size(), [&](size_t begin, size_t end) {
          auto block = query_block(sorted.subspan(begin, end - begin));
          std::move(block.begin(), block.end(),
                    results.begin() + static_cast<std::ptrdiff_t>(begin));
        });
        return results;
      });
}

}  // namespace

std::vector<Engine::QueryResult> QueryMany(const Engine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool) {
  UNN_CHECK(pool != nullptr);
  if (queries.empty()) return {};
  engine.Warmup(spec);
  return SortedParallelFor(queries, pool, [&](std::span<const geom::Vec2> b) {
    return engine.QueryMany(b, spec);
  });
}

std::vector<Engine::QueryResult> QueryMany(const ShardedEngine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool) {
  UNN_CHECK(pool != nullptr);
  if (queries.empty()) return {};
  engine.Warmup(spec, pool);
  // Queries are the parallel axis; shards are visited serially inside
  // each block (no nested fan-out).
  return SortedParallelFor(queries, pool, [&](std::span<const geom::Vec2> b) {
    return engine.QueryMany(b, spec, /*pool=*/nullptr);
  });
}

}  // namespace serve
}  // namespace unn
