#ifndef UNN_SERVE_RESULT_CACHE_H_
#define UNN_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "geom/vec2.h"
#include "obs/metrics.h"
#include "serve/server_stats.h"
#include "util/thread_annotations.h"

/// \file result_cache.h
/// The snapshot-keyed query-result cache. Every quantification answer is
/// a pure function of (snapshot, QuerySpec, query point), and QueryServer
/// pins immutable snapshots behind an atomic swap — so a result cache
/// keyed on the *snapshot generation* gets invalidation for free: a
/// ReplaceDataset swap bumps the generation, every old entry stops
/// matching, and the stale entries simply age out of the LRU under the
/// byte budget. No invalidation sweep, no epoch bookkeeping on the read
/// path.
///
/// Keys canonicalize the QuerySpec (parameters a query type ignores are
/// zeroed, so `TopK(k=3)` submitted with any tau hits the same entry) and
/// the query point (its exact bits, with -0.0 folded onto +0.0).
/// Degenerate specs (query_contract::Classify != kRegular) are never
/// cached — their answers are definition-level and their keying is not
/// meaningful.
///
/// A hit returns a stored copy of exactly what the same snapshot computed
/// for exactly that key — bit-identical to recomputation
/// (docs/QUERY_SEMANTICS.md spells out the one estimator-refinement
/// caveat).
///
/// Thread safety: the cache is sharded by key hash; each shard is an
/// independent mutex + LRU list + map with 1/num_shards of the byte
/// budget, so concurrent lookups on different shards never contend and
/// critical sections are a few pointer moves. All methods are
/// thread-safe.

namespace unn {
namespace serve {

/// The canonical cache key. Two requests collide exactly when the same
/// snapshot generation must produce the same answer for them.
struct CacheKey {
  uint64_t generation = 0;
  uint32_t type = 0;    ///< static_cast of Engine::QueryType.
  uint64_t param = 0;   ///< Canonicalized tau bits / k; 0 if ignored.
  uint64_t qx = 0;      ///< Coordinate bits, -0.0 folded onto +0.0.
  uint64_t qy = 0;

  bool operator==(const CacheKey&) const = default;
};

class ResultCache {
 public:
  struct Options {
    /// Total byte budget across all shards; 0 disables the cache (every
    /// Lookup misses, Insert is a no-op).
    size_t max_bytes = 64u << 20;
    /// Shard count (rounded up to a power of two, clamped to [1, 256]).
    int num_shards = 16;
  };

  /// `registry` is where the cache registers its metrics
  /// (`unn_cache_*_total` counters plus the `unn_cache_entries` /
  /// `unn_cache_bytes` gauges); it must outlive the cache. When null the
  /// cache owns a private registry, so standalone use needs no setup —
  /// QueryServer passes its own registry so one DumpMetrics covers both.
  explicit ResultCache(const Options& options,
                       obs::Registry* registry = nullptr);

  /// Builds the canonical key for (generation, spec, q). The caller must
  /// only key kRegular specs (query_contract::Classify); parameters the
  /// type ignores are zeroed so equivalent specs share an entry.
  static CacheKey MakeKey(uint64_t generation, const Engine::QuerySpec& spec,
                          geom::Vec2 q);

  /// On hit copies the stored result into `*out`, refreshes the entry's
  /// LRU position and returns true. O(1) expected, one shard mutex.
  bool Lookup(const CacheKey& key, Engine::QueryResult* out);

  /// Stores a copy of `result` under `key`, evicting least-recently-used
  /// entries of the shard (stale generations and live ones alike) until
  /// the shard's byte share is respected. An entry larger than the whole
  /// shard budget is not stored. Re-inserting an existing key refreshes
  /// its value (concurrent computes of the same key race benignly).
  void Insert(const CacheKey& key, const Engine::QueryResult& result);

  /// Drops every entry (test/bench hook; production swaps rely on
  /// generation keying instead). Takes every shard mutex in turn.
  void Clear();

  /// Relaxed-counter snapshot (same ordering contract as ServerStats).
  CacheStats stats() const;

  /// True when the configured budget is 0: callers can skip key building.
  bool disabled() const { return options_.max_bytes == 0; }

  const Options& options() const { return options_; }

 private:
  struct Entry {
    CacheKey key;
    Engine::QueryResult result;
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  struct Shard {
    Mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru UNN_GUARDED_BY(mu);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> map
        UNN_GUARDED_BY(mu);
    size_t bytes UNN_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const CacheKey& key);
  /// Evicts from `shard`'s tail until its bytes fit `budget`; counts into
  /// evictions_. The capability annotation is parameter-relative: the
  /// caller must hold that shard's mutex.
  void EvictToFit(Shard& shard, size_t budget) UNN_REQUIRES(shard.mu);

  Options options_;
  size_t per_shard_budget_ = 0;
  uint32_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;

  /// Owned fallback registry when the constructor got none.
  std::unique_ptr<obs::Registry> owned_registry_;
  /// Registry-backed counters (same relaxed ordering contract the old
  /// bare atomics had). Monotone totals are counters; entries/bytes move
  /// both ways, so they are gauges.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* entries_ = nullptr;
  obs::Gauge* bytes_ = nullptr;
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_RESULT_CACHE_H_
