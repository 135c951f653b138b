#ifndef UNN_SERVE_QUERY_SERVER_H_
#define UNN_SERVE_QUERY_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/parallel.h"
#include "serve/request.h"
#include "serve/result_cache.h"
#include "serve/server_stats.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"
#include "util/thread_annotations.h"

/// \file query_server.h
/// The serving front end: a QueryServer owns a worker pool and the current
/// dataset as an immutable snapshot — a `std::shared_ptr<const
/// ShardedEngine>` behind a tiny mutex held only for the pointer copy (a
/// single-Engine deployment is the one-shard case, with zero merge
/// overhead). Readers copy the pointer once per call and query the
/// snapshot with no further coordination (shards are thread-safe Engines
/// and the merge layer is stateless); `ReplaceDataset` partitions and
/// builds a fresh shard set off to the side — on the pool, in parallel —
/// and publishes it with one locked pointer swap. In-flight queries keep
/// the old snapshot alive through their shared_ptr and finish on the
/// shard set they started on; the old engines are destroyed when the
/// last such query releases them. There is no copy-on-read and no pause
/// on swap — the snapshot mutex is held for two pointer-sized writes,
/// never across a build or a query. Replacements may change the shard
/// count and partitioner mid-flight; concurrent replacements serialize
/// on a separate mutex that readers never touch.
///
/// The serving API is `Submit(Request)` / `QueryBatch(span<const
/// Request>)` over the types in request.h. On top of the snapshot the
/// server layers three QoS mechanisms (docs/ARCHITECTURE.md, "Serving
/// QoS"):
///
///   * a snapshot-keyed result cache (result_cache.h): every answer is a
///     pure function of (snapshot, spec, point), snapshots carry a
///     monotone generation, and `ReplaceDataset` bumps it — so stale
///     entries die by unreachability, with no invalidation sweep;
///   * admission control: past `Options::max_inflight` in-flight
///     backend queries, new regular requests are shed
///     (`ResultSource::kShed`); definition-level (degenerate-spec)
///     answers are never refused;
///   * deadlines + priorities: a request past its deadline is dropped
///     without touching a backend — checked at admission and again at
///     dispatch — and `Request::priority` maps onto the pool's strict
///     priority queue.

namespace unn {
namespace serve {

class QueryServer {
 public:
  struct Options {
    /// Worker threads; <= 0 picks std::thread::hardware_concurrency().
    int num_threads = 0;
    /// Query types warmed on every snapshot before it starts serving
    /// (construction and ReplaceDataset). A type left out builds its
    /// structures on its first query, inside that query's latency.
    std::vector<Engine::QueryType> warm;
    /// Data partitioning for snapshots the server builds itself
    /// (dataset constructors and ReplaceDataset). num_shards <= 1 serves
    /// one Engine; > 1 partitions the dataset across that many Engines,
    /// built in parallel on the pool, merged per query
    /// (docs/QUERY_SEMANTICS.md).
    ShardingOptions sharding;
    /// Result-cache configuration. Opt-in: the default budget of 0
    /// disables caching; set `cache.max_bytes > 0` to serve repeated
    /// (snapshot, spec, point) requests from memory.
    ResultCache::Options cache{.max_bytes = 0};
    /// Admission control: maximum backend queries in flight (queued +
    /// executing) before new regular requests are shed
    /// (`ResultSource::kShed`: empty result, ~0 latency); 0 disables.
    /// Cache hits and definition-level answers never count against it.
    int max_inflight = 0;
    /// Slow-query logging: a request (or batch) whose serving latency
    /// reaches this threshold lands in the slow-query ring (SlowQueries)
    /// with its span tree. A positive threshold also makes the server
    /// trace every Submit request it owns (callers can trace selectively
    /// via Request::trace instead); 0 — the default — disables the log
    /// and the server-initiated tracing with it.
    std::chrono::microseconds slow_query_threshold{0};
    /// Capacity of the slow-query ring; oldest entries fall off.
    int slow_query_log_size = 32;
  };

  /// Serves an already-built engine as a single shard (shared: other
  /// servers or offline readers may hold it too).
  QueryServer(std::shared_ptr<const Engine> engine, const Options& options);
  explicit QueryServer(std::shared_ptr<const Engine> engine);
  /// Serves a caller-assembled shard set.
  QueryServer(std::shared_ptr<const ShardedEngine> engine,
              const Options& options);
  /// Builds the shard set from a dataset + config per Options::sharding.
  /// `points` must be non-empty, every support finite
  /// (core::UncertainPoint::finite); the build checks both.
  QueryServer(std::vector<core::UncertainPoint> points,
              const Engine::Config& config, const Options& options);
  QueryServer(std::vector<core::UncertainPoint> points,
              const Engine::Config& config);

  /// Refuses new pool work, then drains calls already inside the server
  /// — Submit/QueryBatch (a late Submit may be answering inline on the
  /// stopping pool) and the Replace* family (which hold replace_mu_ and
  /// write the snapshot) — before member teardown begins. See the
  /// shutdown note on Submit.
  ~QueryServer();

  /// The single-Engine view of the current snapshot: the engine itself
  /// when the snapshot has one shard, nullptr when it is partitioned
  /// (use sharded_snapshot() then). Callers may hold the result as long
  /// as they like; it stays valid (and immutable) across any number of
  /// ReplaceDataset calls. O(1), thread-safe.
  std::shared_ptr<const Engine> snapshot() const {
    std::shared_ptr<const Snapshot> s = LoadState();
    return s->engine->num_shards() == 1 ? s->engine->shard_ptr(0) : nullptr;
  }

  /// The shard set currently serving (always non-null; one shard in the
  /// unsharded case). Same lifetime guarantees as snapshot(). O(1),
  /// thread-safe.
  std::shared_ptr<const ShardedEngine> sharded_snapshot() const {
    return LoadState()->engine;
  }

  /// The current snapshot generation: 1 for the snapshot the server was
  /// constructed with, +1 per replacement. Result-cache keys carry it,
  /// which is the entire invalidation story. O(1), thread-safe.
  uint64_t generation() const {
    return LoadState()->generation;
  }

  /// Async single query under the full QoS contract: a pack of one
  /// through QueryBatch's admission (deadline check, result-cache probe,
  /// admission control) on the submitting thread, then its compute and
  /// respond stages (deadline check two, the query, cache insert),
  /// against the snapshot current at submission time (a sharded snapshot
  /// runs the shards that hold candidates, two or more across the pool).
  /// Where the compute stage runs (ThreadPool::RunOrPost):
  ///   * when a worker is free (parked, not lent to another Submit, and
  ///     no task queued), on the submitting thread, which borrows that
  ///     worker until the query is answered — a pool task would only
  ///     wake the worker, and the worker would then wake the caller. The
  ///     future is then ready when Submit returns, and the request's
  ///     `queue` span reads ~0;
  ///   * otherwise in a pool task at `Request::priority`, queued behind
  ///     higher classes. Priorities order only queued requests: one
  ///     answered on its caller never waits, whatever its class.
  /// A borrowed worker takes no task, so `Options::num_threads` still
  /// bounds how many requests compute at once; with more concurrent
  /// Submits than free workers the rest queue by priority as before.
  /// Either way a miss counts in `max_inflight`'s in-flight total from
  /// admission to completion. A caller that pipelines many Submits from
  /// one thread on an idle server computes them one after another on
  /// that thread; QueryBatch is the API for packs.
  /// The future is always satisfied — refusals are Responses (`kShed` /
  /// `kDeadlineExceeded`), never exceptions. Degenerate spec parameters
  /// follow Engine::QueryMany's definitions and are never cached or
  /// shed. Thread-safe. Shutdown note:
  /// a Submit that races server destruction no longer aborts — once the
  /// pool refuses new tasks the query runs inline on the submitting
  /// thread against the pinned snapshot (the same degradation
  /// ParallelFor applies to QueryBatch). Two backstops narrow the race:
  /// the destructor first drains every Submit/QueryBatch/Replace* that
  /// has already entered (atomic in-flight count), and the pool is the
  /// first member destroyed, so a call that slips in while the
  /// destructor is blocked joining the workers still finds every other
  /// member alive (the shutdown stress test pins that window). These
  /// narrow the race but cannot license it: a call not ordered before
  /// destruction can still land after the drain and a fast join, racing
  /// member teardown — undefined behavior, as for any object. Callers
  /// must stop submitting before destroying the server; the backstops
  /// exist to fail loudly less and corrupt quietly never in the windows
  /// they cover.
  std::future<Response> Submit(const Request& request);

  /// Blocking batched API: probes the cache per request, then computes
  /// the misses across the pool (plus the calling thread), one pack per
  /// distinct spec; responses[i] answers requests[i]. The whole batch
  /// runs on one snapshot. Per-request deadlines are checked twice: at
  /// admission and again just before the misses are computed.
  /// Admission control is batch-level: when the server is already at
  /// its in-flight limit the batch's regular misses are all shed (a
  /// batch the server accepts is not split). Responses decided at
  /// admission (cache hits and refusals) carry their admission-time
  /// latency; the rest the batch completion latency. Thread-safe.
  std::vector<Response> QueryBatch(std::span<const Request> requests);

  /// Atomically replaces the dataset: partitions per the server's current
  /// replacement sharding — the most recent of Options::sharding, the
  /// resharding ReplaceDataset overload, or the shape of a
  /// caller-installed shard set — builds the new shard set on the pool
  /// (same Engine config as the current snapshot), warms Options::warm,
  /// then swaps and bumps the snapshot generation (cached results of the
  /// old snapshot become unreachable; no sweep). Queries submitted
  /// before the swap finish on the old snapshot; queries submitted after
  /// see the new one. Safe to call concurrently with queries and with
  /// other replacements (replacements serialize). Returns false, and
  /// leaves the snapshot, the generation and the replacement sharding as
  /// they were, when `points` is empty, when some disk centre, site or
  /// radius has a NaN or infinite coordinate, or when the sharding names
  /// `Partitioning::kExternal` (the marker of an assembled shard set,
  /// not a partitioner).
  bool ReplaceDataset(std::vector<core::UncertainPoint> points);
  /// Same, additionally changing the sharding (shard count and/or
  /// partitioner) for this and future replacements — resharding
  /// mid-flight is just another snapshot swap. A refused call changes
  /// nothing, the replacement sharding included.
  bool ReplaceDataset(std::vector<core::UncertainPoint> points,
                      const ShardingOptions& sharding);
  /// Same swap for a caller-assembled shard set (a caller-built Engine
  /// is the one-shard `ShardedEngine(engine)`); its shape (shard count,
  /// round-robin for assembled sets) becomes the replacement sharding
  /// for future ReplaceDataset calls.
  void ReplaceShardedEngine(std::shared_ptr<const ShardedEngine> engine);

  /// The worker pool (shared with callers that want to fan out their own
  /// work). Thread-safe.
  ThreadPool& pool() { return pool_; }

  /// One stats snapshot: traffic counters, per-type counts, QoS
  /// outcomes, cache counters and latency percentiles. Every underlying
  /// counter is relaxed-atomic — individually monotone and never lossy,
  /// but a concurrent reader may observe increments in any relative
  /// order (e.g. a swap before the queries that preceded it); a snapshot
  /// taken after the server quiesces is exact. O(histogram buckets),
  /// thread-safe.
  ServerStats stats() const;

  /// The result cache (counters, configuration). Thread-safe.
  const ResultCache& result_cache() const { return cache_; }

  /// The server's unified metrics registry: serving counters and latency
  /// histograms, the result-cache metrics, plus any metrics the caller
  /// registers beside them (one DumpMetrics covers everything).
  /// Thread-safe.
  obs::Registry& metrics_registry() { return registry_; }

  /// Renders every registered metric — serving counters, per-type latency
  /// histograms, cache counters and point-in-time gauges (pool queue
  /// depth, in-flight queries, cache hit ratio, latency percentiles) — in
  /// Prometheus text exposition format or as JSON. Refreshes the gauges,
  /// so not const. O(registered metrics); thread-safe, callable under
  /// traffic (relaxed counter snapshot, same ordering contract as
  /// stats()).
  std::string DumpMetrics(
      obs::MetricsFormat format = obs::MetricsFormat::kPrometheus);

  /// One slow-query log entry: what was asked, how it was answered, how
  /// long it took, and the span tree recorded while serving it (render
  /// with obs::RenderSpanTree). `batch_size == 0` marks a Submit-path
  /// entry; batch entries carry the batch size and the first request's
  /// query/spec as a representative.
  struct SlowQuery {
    geom::Vec2 q;
    Engine::QuerySpec spec;
    ResultSource source = ResultSource::kComputed;
    std::chrono::microseconds latency{0};
    int batch_size = 0;
    std::vector<obs::Span> spans;
  };

  /// The slow-query ring, oldest first (kept only while
  /// `Options::slow_query_threshold > 0`; at most slow_query_log_size
  /// entries). Thread-safe.
  std::vector<SlowQuery> SlowQueries() const;

 private:
  /// One immutable serving state: the shard set and the generation
  /// cache keys carry. Swapped as a unit so a request can never pair
  /// engine A with generation B.
  struct Snapshot {
    std::shared_ptr<const ShardedEngine> engine;
    uint64_t generation = 0;
  };

  /// A request admission sends to the backend: its index in the pack
  /// and whether its answer goes into the result cache.
  struct Miss {
    size_t index;
    bool cacheable;
  };

  /// The admission stage of both entry points, over a pack (Submit's is a
  /// pack of one). Per request, in order: counts it, refuses it if its
  /// deadline has passed, probes the cache, and sheds a regular request
  /// when the in-flight limit (read once per pack) is reached; those
  /// decisions land in `responses`. Returns the rest, headed for the
  /// backend, and adds them to active_. Each probe opens a
  /// `cache_lookup` span under `lookup_trace`.
  std::vector<Miss> Admit(std::span<const Request> requests,
                          const Snapshot& snap,
                          std::chrono::steady_clock::time_point t0,
                          std::span<Response> responses,
                          obs::TraceNode lookup_trace);
  /// The compute and respond stages for Admit's misses: refuses those
  /// whose deadline has passed since, answers the rest with one
  /// serve::QueryMany per distinct spec under a `compute_span` span of
  /// `trace`, caches the cacheable answers (`cache_insert` span),
  /// releases the misses from active_ and stamps the completion latency.
  void ComputeAndRespond(std::span<const Request> requests,
                         std::span<const Miss> misses, const Snapshot& snap,
                         std::chrono::steady_clock::time_point t0,
                         std::span<Response> responses, obs::TraceNode trace,
                         const char* compute_span);
  /// Assembles + warms (Options::warm) a Snapshot and returns it ready to
  /// install.
  std::shared_ptr<const Snapshot> MakeSnapshot(
      std::shared_ptr<const ShardedEngine> engine, uint64_t generation);
  /// Shared replacement path: input check, optional resharding, build on
  /// the pool, then InstallLocked. Takes replace_mu_.
  bool ReplaceImpl(std::vector<core::UncertainPoint> points,
                   const ShardingOptions* sharding) UNN_EXCLUDES(replace_mu_);
  /// Warm + snapshot swap + swap count; the annotation is the old "replace_mu_
  /// must be held" comment made checkable.
  void InstallLocked(std::shared_ptr<const ShardedEngine> engine)
      UNN_REQUIRES(replace_mu_);
  /// One locked shared_ptr copy: the snapshot serving at this instant.
  std::shared_ptr<const Snapshot> LoadState() const UNN_EXCLUDES(state_mu_);
  /// Publishes `next` as the serving snapshot. The displaced snapshot is
  /// released after the lock drops: in-flight queries usually keep it
  /// alive, and when the store does hold the last reference, the engine
  /// teardown must not run under state_mu_.
  void StoreState(std::shared_ptr<const Snapshot> next)
      UNN_EXCLUDES(state_mu_);
  /// Counts a pack in, with one counter update per query type rather than
  /// per request: the admission loop is serial, ahead of the pool.
  void CountQueries(std::span<const Request> requests);
  /// Records `us` `n` times into the type's latency histogram.
  void RecordLatency(Engine::QueryType type, std::chrono::microseconds us,
                     std::uint64_t n = 1);
  /// Resolves every registry handle below; called once per constructor,
  /// before any traffic can exist.
  void InitMetrics();
  /// Appends to the slow-query ring when the log is enabled and `latency`
  /// reaches the threshold (copies the span snapshot out of `ctx` when
  /// one was recorded).
  void MaybeLogSlowQuery(geom::Vec2 q, const Engine::QuerySpec& spec,
                         ResultSource source, std::chrono::microseconds latency,
                         const obs::TraceContext* ctx, int batch_size);

  Options options_;
  /// Declared before cache_: the cache registers its metrics here.
  obs::Registry registry_;
  ResultCache cache_;
  /// Guards state_ alone and is held only for a shared_ptr copy or swap.
  /// Deliberately not std::atomic<shared_ptr>: libstdc++ implements that
  /// with a spin lock folded into the control-block pointer, and its load
  /// path releases the spin lock with a relaxed RMW — so a reader-to-
  /// writer lock handoff carries no release/acquire edge over the stored
  /// pointer, a formal data race that TSan reports. A real mutex has the
  /// intended semantics, and the cost is one uncontended lock per
  /// Submit/QueryBatch (per batch, not per query).
  mutable Mutex state_mu_;
  std::shared_ptr<const Snapshot> state_ UNN_GUARDED_BY(state_mu_);
  /// Serializes replacements and guards sharding_ (readers never take it).
  Mutex replace_mu_;
  /// Replacement sharding for self-built snapshots: the most recent of
  /// Options::sharding, the resharding ReplaceDataset overload, or the
  /// shape of a caller-installed shard set. (Constructors initialize it
  /// without the lock; construction is single-threaded by definition and
  /// outside the analysis.)
  ShardingOptions sharding_ UNN_GUARDED_BY(replace_mu_);
  /// Next generation to assign (constructor installs 1).
  uint64_t next_generation_ UNN_GUARDED_BY(replace_mu_) = 2;
  /// Registry-backed serving counters (resolved once in InitMetrics;
  /// handles are pointer-stable for the registry's lifetime). Same
  /// relaxed ordering contract the old bare atomics had.
  obs::Counter* queries_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* swaps_ = nullptr;
  std::array<obs::Counter*, kNumQueryTypes> queries_by_type_{};
  obs::Counter* shed_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  /// Submits whose compute stage ran on the submitting thread.
  obs::Counter* submit_inline_ = nullptr;
  std::array<obs::Histogram*, kNumQueryTypes> latency_{};
  /// Backend queries in flight (admission control's load signal): every
  /// miss from admission to completion (a Submit's time in the queue
  /// included). Cache hits and refusals never count.
  std::atomic<int> active_{0};
  /// Slow-query ring (see SlowQueries); touched only for requests at or
  /// past the latency threshold.
  mutable Mutex slow_mu_;
  std::deque<SlowQuery> slow_log_ UNN_GUARDED_BY(slow_mu_);
  /// Submit/QueryBatch calls currently inside the server; the destructor
  /// drains it to zero (atomic wait) before member teardown. draining_
  /// gates the exit-side notify so the hot path never pays a wake.
  std::atomic<int> inflight_{0};
  std::atomic<bool> draining_{false};
  /// Declared last, so it is the first member destroyed: while the
  /// destructor blocks joining the workers, every other member a
  /// late-racing Submit/QueryBatch touches (snapshot, cache, counters)
  /// is still alive. See the shutdown note on Submit.
  ThreadPool pool_;
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_QUERY_SERVER_H_
