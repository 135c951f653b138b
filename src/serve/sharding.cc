#include "serve/sharding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "engine/query_contract.h"
#include "util/check.h"

namespace unn {
namespace serve {

namespace {

using query_contract::SortByEstimate;

/// Recursive kd-style splitter: hands `ids` out to `target` shards in
/// proportion, splitting by the median region center along the wider
/// axis. Appends each finished shard's id list to `out`.
void SpatialSplit(const std::vector<core::UncertainPoint>& points,
                  std::vector<int>* ids, size_t begin, size_t end, int target,
                  std::vector<std::vector<int>>* out) {
  if (target <= 1 || end - begin <= 1) {
    out->emplace_back(ids->begin() + begin, ids->begin() + end);
    return;
  }
  geom::Box box;
  for (size_t i = begin; i < end; ++i) {
    box.Expand(points[(*ids)[i]].Bounds().Center());
  }
  bool split_x = box.Width() >= box.Height();
  int left_target = target / 2;
  size_t mid = begin + (end - begin) * static_cast<size_t>(left_target) /
                           static_cast<size_t>(target);
  // lint:allow(kd-builder) data partitioner for shard assignment, not a
  // query index — kd *query* structures belong in src/spatial/ (PR 5).
  std::nth_element(ids->begin() + begin, ids->begin() + mid,
                   ids->begin() + end, [&](int a, int b) {
                     geom::Vec2 ca = points[a].Bounds().Center();
                     geom::Vec2 cb = points[b].Bounds().Center();
                     return split_x ? ca.x < cb.x : ca.y < cb.y;
                   });
  SpatialSplit(points, ids, begin, mid, left_target, out);
  SpatialSplit(points, ids, mid, end, target - left_target, out);
}

}  // namespace

std::vector<std::vector<int>> PartitionPoints(
    const std::vector<core::UncertainPoint>& points,
    const ShardingOptions& options) {
  UNN_CHECK_MSG(options.partitioning != Partitioning::kExternal,
                "kExternal marks assembled shard sets; pick a strategy");
  int n = static_cast<int>(points.size());
  int k = std::clamp(options.num_shards, 1, std::max(n, 1));
  std::vector<std::vector<int>> out;
  if (options.partitioning == Partitioning::kRoundRobin) {
    out.resize(k);
    for (int i = 0; i < n; ++i) out[i % k].push_back(i);
  } else {
    std::vector<int> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    SpatialSplit(points, &ids, 0, ids.size(), k, &out);
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const std::vector<int>& s) { return s.empty(); }),
            out.end());
  for (auto& shard : out) std::sort(shard.begin(), shard.end());
  return out;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(std::vector<core::UncertainPoint> points,
                             const Engine::Config& config,
                             const ShardingOptions& options,
                             ThreadPool* build_pool)
    : config_(config), options_(options) {
  UNN_CHECK(!points.empty());
  for (const core::UncertainPoint& p : points) {
    UNN_CHECK_MSG(p.finite(), "every support must be finite");
  }
  std::vector<std::vector<int>> parts = PartitionPoints(points, options);
  engines_.resize(parts.size());
  ForEachShard(build_pool, [&](int s) {
    std::vector<core::UncertainPoint> subset;
    subset.reserve(parts[s].size());
    for (int gid : parts[s]) subset.push_back(points[gid]);
    engines_[s] = std::make_shared<const Engine>(std::move(subset), config_,
                                                 std::move(parts[s]));
  });
  IndexShards();
}

ShardedEngine::ShardedEngine(
    std::vector<std::shared_ptr<const Engine>> shard_engines)
    : engines_(std::move(shard_engines)) {
  UNN_CHECK(!engines_.empty());
  for (const auto& e : engines_) UNN_CHECK(e != nullptr);
  config_ = engines_[0]->config();
  options_.num_shards = static_cast<int>(engines_.size());
  options_.partitioning = Partitioning::kExternal;
  IndexShards();
}

ShardedEngine::ShardedEngine(std::shared_ptr<const Engine> engine)
    : ShardedEngine(
          std::vector<std::shared_ptr<const Engine>>{std::move(engine)}) {}

void ShardedEngine::IndexShards() {
  size_ = 0;
  bool all_discrete = true;
  for (const auto& e : engines_) size_ += e->size();
  // The id lists must partition [0, size_).
  std::vector<bool> seen(size_, false);
  for (const auto& e : engines_) {
    for (int gid : e->global_ids()) {
      UNN_CHECK_MSG(gid >= 0 && gid < size_ && !seen[gid],
                    "shard ids must partition [0, total)");
      seen[gid] = true;
    }
    all_discrete = all_discrete && e->all_discrete();
    max_sites_ = std::max(max_sites_, e->max_sites());
    views_.push_back({e.get(), &e->global_ids()});
  }
  exact_ = ExactQuantification(config_.backend, all_discrete);
}

// ---------------------------------------------------------------------------
// Fan-out plumbing
// ---------------------------------------------------------------------------

void ShardedEngine::ForEachShard(ThreadPool* pool,
                                 const std::function<void(int)>& fn,
                                 obs::TraceNode trace) const {
  size_t shards = engines_.size();
  auto run = [&](int s) {
    // One span per shard visit; a null trace context makes this a
    // pointer test (the disabled-tracing contract of obs/trace.h).
    obs::ScopedSpan span(trace, "shard_query", s);
    fn(s);
  };
  if (pool == nullptr || shards <= 1) {
    for (size_t s = 0; s < shards; ++s) run(static_cast<int>(s));
    return;
  }
  pool->ParallelFor(shards, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) run(static_cast<int>(s));
  });
}

int ShardedEngine::StructuresBuilt() const {
  int total = 0;
  for (const auto& e : engines_) total += e->StructuresBuilt();
  return total;
}

// ---------------------------------------------------------------------------
// Single-query entry points: one-element QueryMany packs
// ---------------------------------------------------------------------------

int ShardedEngine::MostProbableNn(geom::Vec2 q, ThreadPool* pool,
                                  obs::TraceNode trace) const {
  Engine::QuerySpec spec{Engine::QueryType::kMostProbableNn};
  return QueryMany({&q, 1}, spec, pool, trace)[0].nn;
}

int ShardedEngine::ExpectedDistanceNn(geom::Vec2 q, ThreadPool* pool,
                                      obs::TraceNode trace) const {
  Engine::QuerySpec spec{Engine::QueryType::kExpectedDistanceNn};
  return QueryMany({&q, 1}, spec, pool, trace)[0].nn;
}

std::vector<std::pair<int, double>> ShardedEngine::Threshold(
    geom::Vec2 q, double tau, ThreadPool* pool, obs::TraceNode trace) const {
  Engine::QuerySpec spec{Engine::QueryType::kThreshold, tau};
  return std::move(QueryMany({&q, 1}, spec, pool, trace)[0].ranked);
}

std::vector<std::pair<int, double>> ShardedEngine::TopK(
    geom::Vec2 q, int k, ThreadPool* pool, obs::TraceNode trace) const {
  Engine::QuerySpec spec{Engine::QueryType::kTopK, 0.5, k};
  return std::move(QueryMany({&q, 1}, spec, pool, trace)[0].ranked);
}

std::vector<int> ShardedEngine::NonzeroNn(geom::Vec2 q, ThreadPool* pool,
                                          obs::TraceNode trace) const {
  Engine::QuerySpec spec{Engine::QueryType::kNonzeroNn};
  return std::move(QueryMany({&q, 1}, spec, pool, trace)[0].ids);
}

// ---------------------------------------------------------------------------
// Batched entry point + warmup (Engine::QueryMany's degenerate contract)
// ---------------------------------------------------------------------------

std::vector<std::vector<std::pair<int, double>>>
ShardedEngine::ProbabilitiesMany(std::span<const geom::Vec2> queries,
                                 double eps_needed, ThreadPool* pool,
                                 obs::TraceNode trace) const {
  size_t shards = engines_.size();
  std::vector<std::vector<std::pair<int, double>>> merged(queries.size());
  if (!exact_) {
    // Monte Carlo: every shard sweeps its own candidates at the whole
    // set's sample count; the winners then min-merge per instantiation.
    const int samples =
        Engine::MonteCarloSamples(config_, size_, max_sites_, eps_needed);
    std::vector<std::vector<core::InstantiationWinner>> winners(shards);
    {
      obs::ScopedSpan fan(trace, "shard_fanout",
                          static_cast<std::int64_t>(shards));
      ForEachShard(
          pool,
          [&](int s) {
            winners[s] = engines_[s]->MonteCarloWinnersMany(queries, samples);
          },
          fan.node());
    }
    obs::ScopedSpan merge(trace, "merge");
    std::vector<std::span<const core::InstantiationWinner>> q_winners(shards);
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t s = 0; s < shards; ++s) {
        q_winners[s] = std::span<const core::InstantiationWinner>(
            winners[s].data() + i * samples, samples);
      }
      merged[i] = MergeInstantiationWinners(q_winners);
    }
    return merged;
  }
  // Exact (an all-discrete set): per-shard batched envelopes, then each
  // query's merge takes the points within the merged Delta(q) from the
  // shards and re-quantifies them.
  std::vector<std::vector<core::DeltaEnvelope>> env(shards);
  {
    obs::ScopedSpan fan(trace, "shard_fanout",
                        static_cast<std::int64_t>(shards));
    ForEachShard(
        pool,
        [&](int s) {
          env[s].resize(queries.size());
          engines_[s]->MaxDistEnvelopeMany(queries, env[s]);
        },
        fan.node());
  }
  obs::ScopedSpan merge(trace, "merge");
  std::vector<core::DeltaEnvelope> q_env(shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t s = 0; s < shards; ++s) q_env[s] = env[s][i];
    merged[i] = MergeDiscreteProbabilities(views_, q_env, queries[i]).probs;
  }
  return merged;
}

std::vector<Engine::QueryResult> ShardedEngine::QueryMany(
    std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec,
    ThreadPool* pool, obs::TraceNode trace) const {
  if (num_shards() == 1) {
    // Single shard: delegate wholesale, then map ids to global ones and
    // restore the presentation order (an assembled shard's id map need
    // not be ascending). The shard's own QueryMany answers the pack in
    // Morton order, and with only one shard to visit a pool buys nothing here
    // — serve::QueryMany is the layer that spreads the pack itself
    // across workers.
    obs::ScopedSpan span(trace, "shard_query", 0);
    auto results = engines_[0]->QueryMany(queries, spec);
    const std::vector<int>& gids = engines_[0]->global_ids();
    for (auto& r : results) {
      if (r.nn >= 0) r.nn = gids[r.nn];
      for (auto& [id, pi] : r.ranked) id = gids[id];
      SortByEstimate(&r.ranked);
      for (int& id : r.ids) id = gids[id];
      std::sort(r.ids.begin(), r.ids.end());
    }
    return results;
  }
  // Same degenerate-parameter contract as Engine::QueryMany, from the
  // shared definition (only the tau <= 0 case consults the shards, through
  // the same merged-probabilities pass as the regular arms).
  std::vector<Engine::QueryResult> results;
  if (query_contract::AnswerDegenerate(
          queries, spec, size_,
          [&](std::span<const geom::Vec2> qs) {
            return ProbabilitiesMany(qs, 0.0, pool, trace);
          },
          &results)) {
    return results;
  }
  // Fan the whole pack to each shard once — one shard visit per shard
  // per batch instead of per query — and merge per query. Each shard
  // answers through its Engine's pack entry points, whose per-query answers
  // do not depend on the pack, so neither do the merged ones.
  size_t shards = engines_.size();
  switch (spec.type) {
    case Engine::QueryType::kExpectedDistanceNn: {
      std::vector<std::vector<ExpectedCandidate>> cand(
          queries.size(), std::vector<ExpectedCandidate>(shards));
      {
        obs::ScopedSpan fan(trace, "shard_fanout",
                            static_cast<std::int64_t>(shards));
        ForEachShard(
            pool,
            [&](int s) {
              auto local = engines_[s]->QueryMany(queries, spec);
              for (size_t i = 0; i < queries.size(); ++i) {
                // No local winner (a non-finite query): the default
                // candidate (id -1) stays, and MergeExpected skips it.
                int lid = local[i].nn;
                if (lid < 0) continue;
                cand[i][s] = {engines_[s]->global_ids()[lid],
                              engines_[s]->ExpectedDistance(lid, queries[i])};
              }
            },
            fan.node());
      }
      obs::ScopedSpan merge(trace, "merge");
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i].nn = MergeExpected(cand[i]);
      }
      break;
    }
    case Engine::QueryType::kMostProbableNn:
    case Engine::QueryType::kThreshold:
    case Engine::QueryType::kTopK: {
      double eps_needed =
          spec.type == Engine::QueryType::kThreshold ? spec.tau / 2 : 0.0;
      std::vector<std::vector<std::pair<int, double>>> merged =
          ProbabilitiesMany(queries, eps_needed, pool, trace);
      // Exact quantification reports the exact set {pi >= tau}; the
      // Monte-Carlo estimator keeps the no-false-negative slack, like
      // Engine.
      const double slack = exact_ ? 0.0 : std::min(config_.eps, spec.tau / 2);
      for (size_t i = 0; i < queries.size(); ++i) {
        std::vector<std::pair<int, double>>& probs = merged[i];
        if (spec.type == Engine::QueryType::kMostProbableNn) {
          results[i].nn = query_contract::MostProbable(probs);
        } else if (spec.type == Engine::QueryType::kThreshold) {
          results[i].ranked =
              query_contract::ThresholdReport(probs, spec.tau, slack);
        } else {
          query_contract::KeepTopK(&probs, spec.k);
          results[i].ranked = std::move(probs);
        }
      }
      break;
    }
    case Engine::QueryType::kNonzeroNn: {
      // Each shard's candidates are its supports within its own Delta(q),
      // read off the envelope the merge needs anyway: a superset of the
      // shard's slice of the global answer, which MergeNonzero filters.
      // A non-finite query has no candidates.
      std::vector<std::vector<std::vector<int>>> local(
          shards, std::vector<std::vector<int>>(queries.size()));
      std::vector<std::vector<core::DeltaEnvelope>> env(shards);
      {
        obs::ScopedSpan fan(trace, "shard_fanout",
                            static_cast<std::int64_t>(shards));
        ForEachShard(
            pool,
            [&](int s) {
              env[s].resize(queries.size());
              engines_[s]->MaxDistEnvelopeMany(queries, env[s]);
              for (size_t i = 0; i < queries.size(); ++i) {
                if (!geom::IsFinite(queries[i])) continue;
                local[s][i] =
                    engines_[s]->SupportsWithin(queries[i], env[s][i].best);
              }
            },
            fan.node());
      }
      obs::ScopedSpan merge(trace, "merge");
      std::vector<std::vector<int>> q_local(shards);
      std::vector<core::DeltaEnvelope> q_env(shards);
      for (size_t i = 0; i < queries.size(); ++i) {
        for (size_t s = 0; s < shards; ++s) {
          q_local[s] = std::move(local[s][i]);
          q_env[s] = env[s][i];
        }
        results[i].ids = MergeNonzero(views_, q_local, q_env, queries[i]);
      }
      break;
    }
  }
  return results;
}

void ShardedEngine::Warmup(Engine::QueryType type, ThreadPool* pool) const {
  Warmup(Engine::QuerySpec{type, 0.5, 1}, pool);
}

void ShardedEngine::Warmup(const Engine::QuerySpec& spec,
                           ThreadPool* pool) const {
  // Warming is answering one representative query, as in Engine::Warmup:
  // which structures the fan-out and the merge build depends on the spec
  // and config but never on the query point (a finite one), so the probe
  // builds exactly what later queries of this spec need — each shard's
  // estimator at the whole set's sample count included — and the
  // degenerate specs stay build-free.
  geom::Vec2 probe{0, 0};
  QueryMany(std::span<const geom::Vec2>(&probe, 1), spec, pool);
}

}  // namespace serve
}  // namespace unn
