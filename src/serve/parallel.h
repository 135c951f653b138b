#ifndef UNN_SERVE_PARALLEL_H_
#define UNN_SERVE_PARALLEL_H_

#include <span>
#include <vector>

#include "engine/engine.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"

/// \file parallel.h
/// The parallel batched-query path: sort a query batch into Morton order
/// once (spatial::PackCoherentOrder), split the sorted copy across a
/// thread pool, one contiguous block per task, every worker querying the
/// same warmed (single or sharded) engine, and scatter the results back.
/// Each block is then one compact region of the plane, so its queries
/// share cached tree nodes. `results[i]` answers `queries[i]` regardless
/// of thread count or scheduling — each block writes only its own slots,
/// and the engine's structures are built once up front (Warmup) so
/// workers race on nothing. Speedup is near-linear because queries are
/// read-only and independent.

namespace unn {
namespace serve {

/// Parallel Engine::QueryMany: identical results (including the
/// degenerate-parameter semantics documented on the serial method), wall
/// clock divided across `pool`'s workers plus the calling thread. Warms
/// the engine for `spec` before splitting. Thread-safe (concurrent calls
/// may share the engine and the pool).
std::vector<Engine::QueryResult> QueryMany(const Engine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool);

/// Parallel ShardedEngine::QueryMany: same contract against the sharded
/// merge semantics. The batch parallelism is across queries — each
/// worker's queries visit the shards serially, so a large batch saturates
/// the pool without nested fan-out overhead (a single low-latency query
/// should instead call ShardedEngine::QueryMany with the pool directly).
/// Thread-safe.
std::vector<Engine::QueryResult> QueryMany(const ShardedEngine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool);

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_PARALLEL_H_
