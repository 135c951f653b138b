#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "engine/query_contract.h"
#include "util/check.h"

namespace unn {
namespace serve {

namespace {

/// Counts a Submit/QueryBatch in and out of the server, so the
/// destructor can drain calls that raced it. The exit notifies the
/// counter only while a drain is in progress, keeping the hot path free
/// of wake syscalls.
class InflightGuard {
 public:
  InflightGuard(std::atomic<int>& counter, const std::atomic<bool>& draining)
      : counter_(counter), draining_(draining) {
    counter_.fetch_add(1);
  }
  ~InflightGuard() {
    counter_.fetch_sub(1);
    if (draining_.load()) counter_.notify_all();
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<int>& counter_;
  const std::atomic<bool>& draining_;
};

/// True when every coordinate of the point's support and its radius are
/// finite. A NaN centre would also break the strict weak ordering the
/// spatial partitioner sorts by.
bool FiniteSupport(const core::UncertainPoint& p) {
  if (p.is_disk()) {
    return geom::IsFinite(p.center()) && std::isfinite(p.radius());
  }
  return std::all_of(p.sites().begin(), p.sites().end(),
                     [](geom::Vec2 s) { return geom::IsFinite(s); });
}

/// The sharding a caller-installed shard set implies for future
/// replacements: its own shape, with the assembled-set marker mapped to
/// a strategy PartitionPoints accepts.
ShardingOptions ImpliedSharding(const ShardedEngine& engine) {
  ShardingOptions s = engine.options();
  if (s.partitioning == Partitioning::kExternal) {
    s.partitioning = Partitioning::kRoundRobin;
  }
  return s;
}

std::chrono::microseconds ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
}

TaskPriority ToTaskPriority(Priority p) {
  switch (p) {
    case Priority::kHigh:
      return TaskPriority::kHigh;
    case Priority::kLow:
      return TaskPriority::kLow;
    case Priority::kNormal:
      break;
  }
  return TaskPriority::kNormal;
}

/// Stable label values for the per-type metrics (indexed like
/// Engine::QueryType).
constexpr std::array<const char*, kNumQueryTypes> kQueryTypeNames = {
    "most_probable_nn", "expected_distance_nn", "threshold", "top_k",
    "nonzero_nn"};

bool IsRegular(const Engine::QuerySpec& spec) {
  return query_contract::Classify(spec) ==
         query_contract::SpecClass::kRegular;
}

/// Raw spec equality — good enough for batching decisions (canonical
/// equivalence, e.g. TopK specs differing only in tau, is the cache
/// key's business).
bool SpecEquals(const Engine::QuerySpec& a, const Engine::QuerySpec& b) {
  return a.type == b.type && a.tau == b.tau && a.k == b.k;
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const ShardedEngine> engine,
                         const Options& options)
    : options_(options),
      cache_(options.cache, &registry_),
      sharding_(options.sharding),
      pool_(options.num_threads) {
  InitMetrics();
  UNN_CHECK(engine != nullptr);
  // An explicitly sharded Options wins; otherwise future ReplaceDataset
  // calls keep the shape of the engine the server was given (a server
  // seeded with 4 shards must not silently rebuild monolithic).
  if (sharding_.num_shards <= 1) sharding_ = ImpliedSharding(*engine);
  StoreState(MakeSnapshot(std::move(engine), 1));
}

QueryServer::QueryServer(std::shared_ptr<const Engine> engine,
                         const Options& options)
    : QueryServer(std::make_shared<const ShardedEngine>(std::move(engine)),
                  options) {}

QueryServer::QueryServer(std::shared_ptr<const Engine> engine)
    : QueryServer(std::move(engine), Options{}) {}

QueryServer::QueryServer(std::vector<core::UncertainPoint> points,
                         const Engine::Config& config, const Options& options)
    : options_(options),
      cache_(options.cache, &registry_),
      sharding_(options.sharding),
      pool_(options.num_threads) {
  InitMetrics();
  StoreState(MakeSnapshot(std::make_shared<const ShardedEngine>(
                              std::move(points), config, sharding_, &pool_),
                          1));
}

QueryServer::QueryServer(std::vector<core::UncertainPoint> points,
                         const Engine::Config& config)
    : QueryServer(std::move(points), config, Options{}) {}

std::shared_ptr<const QueryServer::Snapshot> QueryServer::MakeSnapshot(
    std::shared_ptr<const ShardedEngine> engine, uint64_t generation) {
  for (Engine::QueryType type : options_.warm) engine->Warmup(type, &pool_);
  auto snap = std::make_shared<Snapshot>();
  snap->engine = std::move(engine);
  snap->generation = generation;
  return snap;
}

QueryServer::~QueryServer() {
  // Stop accepting pool work first, so a Submit that entered before (or
  // during) this line either queued its task already — drained when the
  // pool joins its workers below — or sees TryPost fail and answers
  // inline. Then block (atomic wait, no spinning) until every such call
  // has left the building before member destructors run. Calls entering
  // later are still caught by the pool join — see the shutdown note on
  // Submit.
  pool_.BeginShutdown();
  draining_.store(true);
  for (int n = inflight_.load(); n > 0; n = inflight_.load()) {
    inflight_.wait(n);
  }
}

void QueryServer::InitMetrics() {
  queries_ = registry_.GetCounter("unn_server_queries_total",
                                  "Queries accepted (single + batched)");
  batches_ = registry_.GetCounter("unn_server_batches_total",
                                  "QueryBatch calls");
  swaps_ = registry_.GetCounter("unn_server_swaps_total",
                                "Dataset replacements installed");
  shed_ = registry_.GetCounter("unn_server_shed_total",
                               "Requests refused by admission control");
  deadline_exceeded_ = registry_.GetCounter(
      "unn_server_deadline_exceeded_total",
      "Requests dropped because their deadline passed");
  for (int t = 0; t < kNumQueryTypes; ++t) {
    obs::Labels labels{{"type", kQueryTypeNames[t]}};
    queries_by_type_[t] =
        registry_.GetCounter("unn_server_queries_by_type_total",
                             "Queries accepted, by query type", labels);
    latency_[t] = registry_.GetHistogram(
        "unn_server_latency_us",
        "Serving latency (admission to completion), microseconds", labels);
  }
}

void QueryServer::CountQuery(const Engine::QuerySpec& spec) {
  queries_->Inc();
  const int t = static_cast<int>(spec.type);
  if (t >= 0 && t < kNumQueryTypes) queries_by_type_[t]->Inc();
}

void QueryServer::RecordLatency(Engine::QueryType type,
                                std::chrono::microseconds us) {
  const int t = static_cast<int>(type);
  if (t >= 0 && t < kNumQueryTypes) {
    latency_[t]->Record(static_cast<double>(us.count()));
  }
}

void QueryServer::MaybeLogSlowQuery(geom::Vec2 q,
                                    const Engine::QuerySpec& spec,
                                    ResultSource source,
                                    std::chrono::microseconds latency,
                                    const obs::TraceContext* ctx,
                                    int batch_size) {
  if (options_.slow_query_threshold.count() <= 0) return;
  if (latency < options_.slow_query_threshold) return;
  SlowQuery entry;
  entry.q = q;
  entry.spec = spec;
  entry.source = source;
  entry.latency = latency;
  entry.batch_size = batch_size;
  if (ctx != nullptr) entry.spans = ctx->spans();
  const size_t cap =
      static_cast<size_t>(std::max(1, options_.slow_query_log_size));
  MutexLock lock(&slow_mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > cap) slow_log_.pop_front();
}

std::vector<QueryServer::SlowQuery> QueryServer::SlowQueries() const {
  MutexLock lock(&slow_mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::future<Response> QueryServer::Submit(const Request& request) {
  InflightGuard inflight(inflight_, draining_);
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> result = promise->get_future();
  const auto t0 = std::chrono::steady_clock::now();
  // Pin the snapshot at submission: the request is answered against the
  // dataset (and cache generation) that was current when the server
  // accepted it, even if a swap lands before a worker picks it up.
  std::shared_ptr<const Snapshot> snap = LoadState();
  CountQuery(request.spec);

  // Tracing: the caller's context when the request carries one, a
  // server-owned context when the slow-query log is on (so slow requests
  // always come with a span tree), null otherwise — and null makes every
  // span site below a pointer test (obs/trace.h).
  obs::TraceContext* ctx = request.trace;
  std::shared_ptr<obs::TraceContext> owned;
  if (ctx == nullptr && options_.slow_query_threshold.count() > 0) {
    owned = std::make_shared<obs::TraceContext>();
    ctx = owned.get();
  }
  const std::int32_t root =
      ctx != nullptr ? ctx->StartSpan("request") : -1;
  const obs::TraceNode root_node{ctx, root};

  // Every path delivers through here: close the root span, feed the
  // slow-query log, satisfy the caller's future. `owned` keeps a
  // server-allocated context alive until then.
  auto finish = [this, ctx, owned = std::move(owned), root, request,
                 promise = std::move(promise)](Response&& resp) {
    if (ctx != nullptr) ctx->EndSpan(root);
    MaybeLogSlowQuery(request.q, request.spec, resp.source, resp.latency,
                      ctx, 0);
    promise->set_value(std::move(resp));
  };

  // The admission span covers everything up to the dispatch decision.
  obs::ScopedSpan admission(root_node, "admission");

  // Deadline check one: already dead on arrival.
  if (request.deadline != kNoDeadline && t0 >= request.deadline) {
    deadline_exceeded_->Inc();
    admission.End();
    finish(Response{{}, ResultSource::kDeadlineExceeded, ElapsedUs(t0)});
    return result;
  }

  const bool regular = IsRegular(request.spec);
  const bool cacheable = regular && !cache_.disabled();

  // Cache probe: a hit answers on the submitting thread, touching no
  // backend and no admission state.
  if (cacheable) {
    obs::ScopedSpan lookup(admission.node(), "cache_lookup");
    Response resp;
    if (cache_.Lookup(
            ResultCache::MakeKey(snap->generation, request.spec, request.q),
            &resp.result)) {
      lookup.End();
      admission.End();
      resp.source = ResultSource::kCache;
      resp.latency = ElapsedUs(t0);
      RecordLatency(request.spec.type, resp.latency);
      finish(std::move(resp));
      return result;
    }
  }

  // Admission control. Definition-level answers (degenerate specs) are
  // never refused: they cost no backend work worth protecting.
  // relaxed: active_ is a load-shedding heuristic; admission may read a
  // slightly stale count, which only shifts where the limit bites.
  if (options_.max_inflight > 0 && regular &&
      active_.load(std::memory_order_relaxed) >= options_.max_inflight) {
    admission.End();
    shed_->Inc();
    finish(Response{{}, ResultSource::kShed, ElapsedUs(t0)});
    return result;
  }

  admission.End();
  // relaxed: pure counter traffic; nothing is published through active_.
  active_.fetch_add(1, std::memory_order_relaxed);
  // Queue span: post to worker pickup (ended first thing in the task).
  const std::int32_t queue_span =
      ctx != nullptr ? ctx->StartSpan("queue", root) : -1;
  // The worker fans a multi-shard query back out across the pool (nested
  // ParallelFor; on a stopping pool it degrades to the worker alone).
  ThreadPool* fan = snap->engine->num_shards() > 1 ? &pool_ : nullptr;
  std::function<void()> task =
      [this, snap = std::move(snap), finish = std::move(finish), request,
       cacheable, fan, t0, ctx, root, queue_span] {
        if (ctx != nullptr) ctx->EndSpan(queue_span);
        const obs::TraceNode root_at{ctx, root};
        Response resp;
        if (request.deadline != kNoDeadline &&
            std::chrono::steady_clock::now() >= request.deadline) {
          // Deadline check two: aged out while queued.
          resp.source = ResultSource::kDeadlineExceeded;
          deadline_exceeded_->Inc();
        } else {
          // Route through QueryMany so degenerate spec parameters follow
          // the documented definitions instead of tripping single-query
          // CHECKs.
          obs::ScopedSpan engine_span(root_at, "engine_query");
          std::span<const geom::Vec2> one(&request.q, 1);
          resp.result = std::move(
              snap->engine->QueryMany(one, request.spec, fan,
                                      engine_span.node())[0]);
          engine_span.End();
          if (cacheable) {
            obs::ScopedSpan insert(root_at, "cache_insert");
            cache_.Insert(ResultCache::MakeKey(snap->generation, request.spec,
                                               request.q),
                          resp.result);
          }
        }
        // relaxed: counter only; the response is delivered via the
        // promise, which provides the ordering the caller observes.
        active_.fetch_sub(1, std::memory_order_relaxed);
        resp.latency = ElapsedUs(t0);
        if (resp.source == ResultSource::kComputed) {
          RecordLatency(request.spec.type, resp.latency);
        }
        finish(std::move(resp));
      };
  if (!pool_.TryPost(std::move(task), ToTaskPriority(request.priority))) {
    // A submit racing server shutdown: once the pool's destructor has
    // begun no task can be enqueued, so answer inline on the submitting
    // thread against the snapshot pinned above (the nested fan-out
    // degrades the same way inside ParallelFor). TryPost leaves the task
    // intact on failure, so running it here is safe; the future is
    // always satisfied and nothing aborts.
    task();
  }
  return result;
}

std::vector<Response> QueryServer::QueryBatch(
    std::span<const Request> requests) {
  InflightGuard inflight(inflight_, draining_);
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const Snapshot> snap = LoadState();
  batches_->Inc();
  std::vector<Response> responses(requests.size());
  if (requests.empty()) return responses;

  // Batch tracing rides the slow-query log (Request::trace is a
  // Submit-path feature): one context per batch, its root span tagged
  // with the batch size.
  std::unique_ptr<obs::TraceContext> ctx;
  std::int32_t root = -1;
  if (options_.slow_query_threshold.count() > 0) {
    ctx = std::make_unique<obs::TraceContext>();
    root = ctx->StartSpan("batch", -1,
                          static_cast<std::int64_t>(requests.size()));
  }
  const obs::TraceNode root_node{ctx.get(), root};

  // Pass one, serial: per-request deadline check, cache probe and
  // admission; everything unanswered is a miss headed for the backend.
  std::vector<size_t> compute;
  compute.reserve(requests.size());
  size_t shed = 0;
  // Batch-level admission: the limit decides the batch's fate once, on
  // the way in (a batch the server accepts is not split).
  const bool at_limit =
      options_.max_inflight > 0 &&
      // relaxed: same load-shedding heuristic as Submit's admission.
      active_.load(std::memory_order_relaxed) >= options_.max_inflight;
  {
    obs::ScopedSpan admission(root_node, "batch_admission");
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      CountQuery(r.spec);
      if (r.deadline != kNoDeadline && t0 >= r.deadline) {
        responses[i].source = ResultSource::kDeadlineExceeded;
        deadline_exceeded_->Inc();
        continue;
      }
      const bool regular = IsRegular(r.spec);
      if (regular && !cache_.disabled() &&
          cache_.Lookup(ResultCache::MakeKey(snap->generation, r.spec, r.q),
                        &responses[i].result)) {
        responses[i].source = ResultSource::kCache;
        responses[i].latency = ElapsedUs(t0);
        RecordLatency(r.spec.type, responses[i].latency);
        continue;
      }
      if (at_limit && regular) {
        responses[i].source = ResultSource::kShed;
        ++shed;
      } else {
        compute.push_back(i);
      }
    }
  }
  if (shed > 0) shed_->Inc(shed);

  if (!compute.empty()) {
    // relaxed: pure counter traffic; nothing is published through active_.
    active_.fetch_add(static_cast<int>(compute.size()),
                      std::memory_order_relaxed);
    {
      // The misses are partitioned by distinct spec (the dedup scan is
      // quadratic in the handful of distinct specs, cheaper than hashing)
      // and each group runs through serve::QueryMany, so cache misses of
      // the same spec form packs for the batched traversal kernels
      // whether the batch arrived uniform (the common case: one group) or
      // mixed, instead of fanning scalar singletons. Per-spec
      // amortizations (warm once, block splitting) are kept either way,
      // and the grouping cannot change any answer: each Response is
      // produced by the same QueryMany contract in request order.
      obs::ScopedSpan span(root_node, "compute",
                           static_cast<std::int64_t>(compute.size()));
      std::vector<Engine::QuerySpec> distinct;
      std::vector<std::vector<size_t>> groups;
      for (size_t i : compute) {
        size_t g = 0;
        while (g < distinct.size() &&
               !SpecEquals(distinct[g], requests[i].spec))
          ++g;
        if (g == distinct.size()) {
          distinct.push_back(requests[i].spec);
          groups.emplace_back();
        }
        groups[g].push_back(i);
      }
      for (size_t g = 0; g < groups.size(); ++g) {
        std::vector<geom::Vec2> points(groups[g].size());
        for (size_t j = 0; j < groups[g].size(); ++j) {
          points[j] = requests[groups[g][j]].q;
        }
        std::vector<Engine::QueryResult> results =
            QueryMany(*snap->engine, points, distinct[g], &pool_);
        for (size_t j = 0; j < groups[g].size(); ++j) {
          responses[groups[g][j]].result = std::move(results[j]);
        }
      }
    }
    for (size_t i : compute) responses[i].source = ResultSource::kComputed;
    if (!cache_.disabled()) {
      obs::ScopedSpan span(root_node, "cache_insert");
      for (size_t i : compute) {
        const Request& r = requests[i];
        if (IsRegular(r.spec)) {
          cache_.Insert(ResultCache::MakeKey(snap->generation, r.spec, r.q),
                        responses[i].result);
        }
      }
    }
    // relaxed: pure counter traffic; nothing is published through active_.
    active_.fetch_sub(static_cast<int>(compute.size()),
                      std::memory_order_relaxed);
  }

  // Completion latency for everything decided by this batch (cache hits
  // keep their probe-time latency); histograms get answered requests
  // only.
  const std::chrono::microseconds batch_latency = ElapsedUs(t0);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (responses[i].source == ResultSource::kCache) continue;
    responses[i].latency = batch_latency;
    if (responses[i].source == ResultSource::kComputed) {
      RecordLatency(requests[i].spec.type, batch_latency);
    }
  }
  if (ctx != nullptr) {
    ctx->EndSpan(root);
    // One representative slow-log entry per slow batch: the first
    // request stands in for the batch, the batch size disambiguates.
    MaybeLogSlowQuery(requests[0].q, requests[0].spec,
                      ResultSource::kComputed, batch_latency, ctx.get(),
                      static_cast<int>(requests.size()));
  }
  return responses;
}

bool QueryServer::ReplaceDataset(std::vector<core::UncertainPoint> points) {
  return ReplaceImpl(std::move(points), nullptr);
}

bool QueryServer::ReplaceDataset(std::vector<core::UncertainPoint> points,
                                 const ShardingOptions& sharding) {
  return ReplaceImpl(std::move(points), &sharding);
}

bool QueryServer::ReplaceImpl(std::vector<core::UncertainPoint> points,
                              const ShardingOptions* sharding) {
  // Counted in-flight like the query paths: a replacement that entered
  // before destruction must finish (it holds replace_mu_ and writes the
  // snapshot) before member teardown begins.
  InflightGuard inflight(inflight_, draining_);
  MutexLock lock(&replace_mu_);
  // Refuse what ShardedEngine would abort on, and data no query could be
  // answered from, before any state changes.
  const Partitioning partitioning = sharding != nullptr
                                        ? sharding->partitioning
                                        : sharding_.partitioning;
  if (points.empty() || partitioning == Partitioning::kExternal ||
      !std::all_of(points.begin(), points.end(), FiniteSupport)) {
    return false;
  }
  // Read the config under the lock: a racing ReplaceShardedEngine may
  // have just installed a snapshot with different accuracy settings, and
  // "same config as the current snapshot" must mean the latest one.
  const Engine::Config config = sharded_snapshot()->config();
  if (sharding != nullptr) sharding_ = *sharding;
  InstallLocked(std::make_shared<const ShardedEngine>(std::move(points),
                                                      config, sharding_,
                                                      &pool_));
  return true;
}

void QueryServer::ReplaceEngine(std::shared_ptr<const Engine> engine) {
  UNN_CHECK(engine != nullptr);
  ReplaceShardedEngine(
      std::make_shared<const ShardedEngine>(std::move(engine)));
}

void QueryServer::ReplaceShardedEngine(
    std::shared_ptr<const ShardedEngine> engine) {
  UNN_CHECK(engine != nullptr);
  InflightGuard inflight(inflight_, draining_);
  MutexLock lock(&replace_mu_);
  // A caller-installed shard set is an explicit statement of shape:
  // later ReplaceDataset calls keep it.
  sharding_ = ImpliedSharding(*engine);
  InstallLocked(std::move(engine));
}

void QueryServer::InstallLocked(std::shared_ptr<const ShardedEngine> engine) {
  // Build and warm entirely off to the side; the swap itself is one
  // locked pointer swap. In-flight queries hold the old snapshot's shared_ptr,
  // so it dies only when the last of them finishes — and the generation
  // bump retires every cached result of the old snapshot without a
  // sweep.
  StoreState(MakeSnapshot(std::move(engine), next_generation_++));
  swaps_->Inc();
}

std::shared_ptr<const QueryServer::Snapshot> QueryServer::LoadState() const {
  MutexLock lock(&state_mu_);
  return state_;
}

void QueryServer::StoreState(std::shared_ptr<const Snapshot> next) {
  {
    MutexLock lock(&state_mu_);
    state_.swap(next);
  }
  // `next` now holds the displaced snapshot; it dies here — outside the
  // lock — once no in-flight query still pins it.
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.queries = queries_->Value();
  s.batches = batches_->Value();
  s.swaps = swaps_->Value();
  s.shed = shed_->Value();
  s.deadline_exceeded = deadline_exceeded_->Value();
  for (int t = 0; t < kNumQueryTypes; ++t) {
    s.queries_by_type[t] = queries_by_type_[t]->Value();
    const obs::HistogramSummary h = latency_[t]->Summarize();
    s.latency_by_type[t] = LatencySummary{h.count, h.p50, h.p95, h.p99};
  }
  s.cache = cache_.stats();
  return s;
}

std::string QueryServer::DumpMetrics(obs::MetricsFormat format) {
  // Refresh the point-in-time gauges before snapshotting. GetGauge is
  // idempotent on (name, labels), so resolving here (a dump is never the
  // hot path) keeps the handle plumbing out of the server's members.
  registry_
      .GetGauge("unn_pool_queue_depth",
                "Tasks queued in the worker pool, all priority classes")
      ->Set(pool_.queue_depth());
  registry_.GetGauge("unn_pool_threads", "Worker threads in the serving pool")
      ->Set(pool_.num_threads());
  registry_
      .GetGauge("unn_server_inflight",
                "Backend queries in flight (admission control's signal)")
      // relaxed: point-in-time observability reading; staleness is fine.
      ->Set(active_.load(std::memory_order_relaxed));
  registry_
      .GetGauge("unn_server_generation", "Current snapshot generation")
      ->Set(static_cast<double>(generation()));
  const CacheStats c = cache_.stats();
  const uint64_t lookups = c.hits + c.misses;
  registry_
      .GetGauge("unn_cache_hit_ratio",
                "Result-cache hits over all lookups (0 when none)")
      ->Set(lookups == 0
                ? 0.0
                : static_cast<double>(c.hits) / static_cast<double>(lookups));
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const obs::Labels labels{{"type", kQueryTypeNames[t]}};
    const obs::HistogramSummary h = latency_[t]->Summarize();
    registry_
        .GetGauge("unn_server_latency_p50_us",
                  "p50 serving latency, microseconds", labels)
        ->Set(h.p50);
    registry_
        .GetGauge("unn_server_latency_p95_us",
                  "p95 serving latency, microseconds", labels)
        ->Set(h.p95);
    registry_
        .GetGauge("unn_server_latency_p99_us",
                  "p99 serving latency, microseconds", labels)
        ->Set(h.p99);
  }
  return obs::Export(registry_.Snapshot(), format);
}

}  // namespace serve
}  // namespace unn
