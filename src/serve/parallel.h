#ifndef UNN_SERVE_PARALLEL_H_
#define UNN_SERVE_PARALLEL_H_

#include <span>
#include <vector>

#include "engine/engine.h"
#include "obs/trace.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"

/// \file parallel.h
/// The pack path QueryServer serves every spec group through, Submit's
/// pack of one included. The pack's size chooses how it spreads over the
/// pool: a pack of one fans out across the shards, which then run
/// concurrently; a larger pack is sorted into Morton order once
/// (spatial::PackCoherentOrder), split across the pool one contiguous
/// block per task, each block visiting the shards serially, and scattered
/// back. Each block is then one compact region of the plane, so its
/// queries share cached tree nodes. `results[i]` answers `queries[i]`
/// regardless of thread count or scheduling: each block writes only its
/// own slots, and a structure the engine builds lazily is built once
/// under the engine's own synchronization. Speedup is near-linear because
/// queries are read-only and independent.

namespace unn {
namespace serve {

/// Parallel ShardedEngine::QueryMany: identical results (including the
/// degenerate-parameter semantics documented there), wall clock divided
/// across `pool`'s workers plus the calling thread. `trace` receives a
/// pack of one's shard fan-out and merge spans; a larger pack records
/// none. Builds nothing up front: warm the engine (ShardedEngine::Warmup,
/// QueryServer::Options::warm) to keep builds off the serving path.
/// Thread-safe (concurrent calls may share the engine and the pool).
std::vector<Engine::QueryResult> QueryMany(const ShardedEngine& engine,
                                           std::span<const geom::Vec2> queries,
                                           const Engine::QuerySpec& spec,
                                           ThreadPool* pool,
                                           obs::TraceNode trace = {});

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_PARALLEL_H_
