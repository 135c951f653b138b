#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
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
  // pool joins its workers below — or sees RunOrPost run it on the caller.
  // Then block (atomic wait, no spinning) until every such call
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
  submit_inline_ = registry_.GetCounter(
      "unn_server_submit_inline_total",
      "Submits computed on the submitting thread (in place of a parked "
      "worker with nothing queued, or on a stopping pool)");
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

void QueryServer::CountQueries(std::span<const Request> requests) {
  std::array<std::uint64_t, kNumQueryTypes> by_type{};
  for (const Request& r : requests) {
    const int t = static_cast<int>(r.spec.type);
    if (t >= 0 && t < kNumQueryTypes) ++by_type[t];
  }
  queries_->Inc(requests.size());
  for (int t = 0; t < kNumQueryTypes; ++t) {
    if (by_type[t] > 0) queries_by_type_[t]->Inc(by_type[t]);
  }
}

void QueryServer::RecordLatency(Engine::QueryType type,
                                std::chrono::microseconds us,
                                std::uint64_t n) {
  const int t = static_cast<int>(type);
  if (t >= 0 && t < kNumQueryTypes) {
    latency_[t]->Record(static_cast<double>(us.count()), n);
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
  SlowQuery entry{q, spec, source, latency, batch_size, {}};
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

  // A pack of one through QueryBatch's stages. What admission decides (a
  // refusal or a cache hit) is answered on the submitting thread.
  Response decided;
  std::vector<Miss> misses;
  {
    obs::ScopedSpan admission(root_node, "admission");
    misses = Admit({&request, 1}, *snap, t0, {&decided, 1}, admission.node());
  }
  if (misses.empty()) {
    finish(std::move(decided));
    return result;
  }
  // Queue span: post to worker pickup (ended first thing in the task).
  const std::int32_t queue_span =
      ctx != nullptr ? ctx->StartSpan("queue", root) : -1;
  std::function<void()> task =
      [this, snap = std::move(snap), finish = std::move(finish), request,
       misses = std::move(misses), t0, root_node, queue_span] {
        if (root_node.ctx != nullptr) root_node.ctx->EndSpan(queue_span);
        Response resp;
        ComputeAndRespond({&request, 1}, misses, *snap, t0, {&resp, 1},
                          root_node, "engine_query");
        finish(std::move(resp));
      };
  // RunOrPost answers on the submitting thread in place of a free worker
  // (parked, not lent to another caller, nothing queued), which it
  // borrows until the task returns: a post would only wake that worker,
  // and the worker would then wake this caller, so running here saves
  // both handoffs and the queue span above closes at once. With no worker free the task queues
  // at the request's priority. A submit racing server shutdown, when no
  // task can be enqueued, is answered here too, against the snapshot
  // pinned above (the shard fan-out degrades the same way inside
  // ParallelFor), so the future is always satisfied.
  if (pool_.RunOrPost(std::move(task), ToTaskPriority(request.priority))) {
    submit_inline_->Inc();
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

  std::vector<Miss> misses;
  {
    // No per-request cache_lookup spans: a traced batch would record one
    // per request.
    obs::ScopedSpan admission(root_node, "batch_admission");
    misses = Admit(requests, *snap, t0, responses, {});
  }
  ComputeAndRespond(requests, misses, *snap, t0, responses, root_node,
                    "compute");
  if (ctx != nullptr) {
    ctx->EndSpan(root);
    // One representative slow-log entry per slow batch: the first
    // request stands in for the batch, the batch size disambiguates.
    MaybeLogSlowQuery(requests[0].q, requests[0].spec,
                      ResultSource::kComputed, ElapsedUs(t0), ctx.get(),
                      static_cast<int>(requests.size()));
  }
  return responses;
}

std::vector<QueryServer::Miss> QueryServer::Admit(
    std::span<const Request> requests, const Snapshot& snap,
    std::chrono::steady_clock::time_point t0, std::span<Response> responses,
    obs::TraceNode lookup_trace) {
  CountQueries(requests);
  std::vector<Miss> misses;
  misses.reserve(requests.size());
  // The in-flight limit decides the pack's fate once, on the way in (a
  // pack the server accepts is not split).
  const bool at_limit =
      options_.max_inflight > 0 &&
      // relaxed: active_ is a load-shedding heuristic; a slightly stale
      // count only shifts where the limit bites.
      active_.load(std::memory_order_relaxed) >= options_.max_inflight;
  uint64_t expired = 0;
  uint64_t shed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    Response& resp = responses[i];
    // Deadline check one: already dead on arrival (never for kNoDeadline,
    // the clock's maximum).
    if (t0 >= r.deadline) {
      resp.source = ResultSource::kDeadlineExceeded;
      resp.latency = ElapsedUs(t0);
      ++expired;
      continue;
    }
    const bool regular = query_contract::Classify(r.spec) ==
                         query_contract::SpecClass::kRegular;
    const bool cacheable = regular && !cache_.disabled();
    if (cacheable) {
      obs::ScopedSpan lookup(lookup_trace, "cache_lookup");
      if (cache_.Lookup(ResultCache::MakeKey(snap.generation, r.spec, r.q),
                        &resp.result)) {
        resp.source = ResultSource::kCache;
        resp.latency = ElapsedUs(t0);
        RecordLatency(r.spec.type, resp.latency);
        continue;
      }
    }
    // Definition-level answers (degenerate specs) are never refused: they
    // cost no backend work worth protecting.
    if (at_limit && regular) {
      resp.source = ResultSource::kShed;
      resp.latency = ElapsedUs(t0);
      ++shed;
      continue;
    }
    misses.push_back({i, cacheable});
  }
  if (expired > 0) deadline_exceeded_->Inc(expired);
  if (shed > 0) shed_->Inc(shed);
  if (!misses.empty()) {
    // relaxed: pure counter traffic; nothing is published through active_.
    active_.fetch_add(static_cast<int>(misses.size()),
                      std::memory_order_relaxed);
  }
  return misses;
}

void QueryServer::ComputeAndRespond(std::span<const Request> requests,
                                    std::span<const Miss> misses,
                                    const Snapshot& snap,
                                    std::chrono::steady_clock::time_point t0,
                                    std::span<Response> responses,
                                    obs::TraceNode trace,
                                    const char* compute_span) {
  if (misses.empty()) return;
  // Deadline check two drops a miss that aged out since admission (queued
  // behind other work). The rest are partitioned by distinct spec (the
  // dedup scan is quadratic in the handful of distinct specs, cheaper than
  // hashing), so misses of one spec form one pack for the batched kernels
  // whether the pack arrived uniform or mixed. Grouping cannot change an
  // answer: each one comes from the same QueryMany contract.
  const auto now = std::chrono::steady_clock::now();
  uint64_t expired = 0;
  bool inserts = false;
  std::vector<std::pair<Engine::QuerySpec, std::vector<size_t>>> groups;
  for (const Miss& m : misses) {
    const Request& r = requests[m.index];
    if (now >= r.deadline) {
      responses[m.index].source = ResultSource::kDeadlineExceeded;
      ++expired;
      continue;
    }
    inserts = inserts || m.cacheable;
    auto g = groups.begin();
    while (g != groups.end() && g->first != r.spec) ++g;
    if (g == groups.end()) g = groups.insert(g, {r.spec, {}});
    g->second.push_back(m.index);
  }
  if (expired > 0) deadline_exceeded_->Inc(expired);
  if (!groups.empty()) {
    obs::ScopedSpan span(trace, compute_span,
                         static_cast<std::int64_t>(misses.size() - expired));
    for (const auto& [spec, slots] : groups) {
      std::vector<geom::Vec2> points(slots.size());
      for (size_t j = 0; j < slots.size(); ++j) {
        points[j] = requests[slots[j]].q;
      }
      std::vector<Engine::QueryResult> results =
          QueryMany(*snap.engine, points, spec, &pool_, span.node());
      for (size_t j = 0; j < slots.size(); ++j) {
        responses[slots[j]].result = std::move(results[j]);
      }
    }
  }
  if (inserts) {
    obs::ScopedSpan span(trace, "cache_insert");
    for (const Miss& m : misses) {
      const Request& r = requests[m.index];
      if (m.cacheable && responses[m.index].source == ResultSource::kComputed) {
        cache_.Insert(ResultCache::MakeKey(snap.generation, r.spec, r.q),
                      responses[m.index].result);
      }
    }
  }
  // relaxed: counter only; responses reach the caller through the promise
  // or the return value, which order what the caller observes.
  active_.fetch_sub(static_cast<int>(misses.size()), std::memory_order_relaxed);
  // Completion latency, shared by the pack; the histograms get answered
  // requests only, one recording per query type.
  const std::chrono::microseconds latency = ElapsedUs(t0);
  std::array<std::uint64_t, kNumQueryTypes> answered{};
  for (const Miss& m : misses) {
    Response& resp = responses[m.index];
    resp.latency = latency;
    const int t = static_cast<int>(requests[m.index].spec.type);
    if (resp.source == ResultSource::kComputed && t >= 0 &&
        t < kNumQueryTypes) {
      ++answered[t];
    }
  }
  for (int t = 0; t < kNumQueryTypes; ++t) {
    RecordLatency(static_cast<Engine::QueryType>(t), latency, answered[t]);
  }
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
      !std::ranges::all_of(points, &core::UncertainPoint::finite)) {
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
  // The sharded plan counts on the serving snapshot itself (a
  // ReplaceDataset starts them over), so they are read here.
  const ShardedEngine::PlanStats plan = sharded_snapshot()->plan_stats();
  registry_
      .GetGauge("unn_shard_plan_shards_run",
                "Shards the sharded plan ran (held a candidate), summed over "
                "queries, current snapshot")
      ->Set(static_cast<double>(plan.shards_run));
  registry_
      .GetGauge("unn_shard_plan_shards_skipped",
                "Shards the sharded plan skipped (no candidate), summed over "
                "queries, current snapshot")
      ->Set(static_cast<double>(plan.shards_skipped));
  registry_
      .GetGauge("unn_shard_plan_inline_queries",
                "Sharded queries answered without a pool task, current "
                "snapshot")
      ->Set(static_cast<double>(plan.inline_queries));
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
