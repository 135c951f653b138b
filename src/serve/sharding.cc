#include "serve/sharding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/monte_carlo_pnn.h"
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
  std::vector<int> all(parts.size());
  std::iota(all.begin(), all.end(), 0);
  ForEachShard(all, build_pool, [&](int s) {
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
    scale_ = std::max(scale_, core::SupportScale(e->points()));
    geom::Box box;
    for (const core::UncertainPoint& p : e->points()) box.Expand(p.Bounds());
    bounds_.push_back(box);
    views_.push_back({e.get(), &e->global_ids()});
  }
  exact_ = ExactQuantification(config_.backend, all_discrete);
}

// ---------------------------------------------------------------------------
// The envelope-first plan
// ---------------------------------------------------------------------------

/// Stage one for a pack of m queries. Shard s's part of the plan is the
/// sub-pack of queries it holds candidates for; a shard with an empty
/// sub-pack is skipped by every arm.
struct ShardedEngine::Plan {
  struct Shard {
    /// Pack positions i with C_k(queries[i]) non-empty, ascending.
    std::vector<int> at;
    /// queries[at[a]]: the shard's stage-two sub-pack.
    std::vector<geom::Vec2> queries;
    /// C_k(queries[at[a]]), shard-local ids; empty on the argmin's own
    /// shard when the plan was made without candidate lists.
    std::vector<std::vector<int>> cand;
  };
  size_t m = 0;
  /// env[s * m + i]: shard s's envelope of query i (local argbest), exact
  /// as far as the merge needs (Engine::MaxDistEnvelope's `bound`).
  std::vector<core::DeltaEnvelope> env;
  /// merged[i]: the whole set's envelope of query i (global argbest).
  std::vector<core::DeltaEnvelope> merged;
  /// slot[s * m + i]: a with shards[s].at[a] == i, or -1.
  std::vector<int> slot;
  std::vector<Shard> shards;
  /// The shards with a non-empty sub-pack, ascending.
  std::vector<int> active;

  int Slot(int s, size_t i) const { return slot[s * m + i]; }
};

void ShardedEngine::ForEachShard(std::span<const int> shards,
                                 ThreadPool* pool,
                                 const std::function<void(int)>& fn,
                                 obs::TraceNode trace) const {
  auto run = [&](int s) {
    // One span per shard visit; a null trace context makes this a
    // pointer test (the disabled-tracing contract of obs/trace.h).
    obs::ScopedSpan span(trace, "shard_query", s);
    fn(s);
  };
  if (pool == nullptr || shards.size() <= 1) {
    for (int s : shards) run(s);
    return;
  }
  pool->ParallelFor(shards.size(), [&](size_t begin, size_t end) {
    for (size_t x = begin; x < end; ++x) run(shards[x]);
  });
}

ShardedEngine::Plan ShardedEngine::PlanPack(std::span<const geom::Vec2> queries,
                                            bool candidates,
                                            obs::TraceNode trace) const {
  obs::ScopedSpan span(trace, "shard_plan");
  const size_t k = engines_.size();
  const size_t m = queries.size();
  Plan plan;
  plan.m = m;
  plan.env.resize(k * m);
  plan.merged.resize(m);
  plan.slot.assign(k * m, -1);
  plan.shards.resize(k);
  std::vector<int> order(k);
  std::vector<double> near(k);
  std::uint64_t run = 0;
  for (size_t i = 0; i < m; ++i) {
    const geom::Vec2 q = queries[i];
    // A non-finite query has no distances to rank: no shard holds a
    // candidate, and every merge answers it with its identity.
    if (!geom::IsFinite(q)) continue;
    // Nearest shard first, each walk bounded by the envelope merged so
    // far: a shard that cannot change it stops at its root. Inserts are
    // order-independent, so the merged envelope is MergeEnvelopes' own.
    for (size_t s = 0; s < k; ++s) near[s] = bounds_[s].DistSqTo(q);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return near[a] != near[b] ? near[a] < near[b] : a < b;
    });
    core::DeltaEnvelope& merged = plan.merged[i];
    merged.best = std::numeric_limits<double>::infinity();
    merged.second = std::numeric_limits<double>::infinity();
    int owner = -1;  // The shard holding the argmin a.
    for (int s : order) {
      const core::DeltaEnvelope env = engines_[s]->MaxDistEnvelope(q, &merged);
      plan.env[s * m + i] = env;
      MergeEnvelopeInto(&merged, env, views_[s]);
      if (env.argbest >= 0 &&
          engines_[s]->global_ids()[env.argbest] == merged.argbest) {
        owner = s;
      }
    }
    // Lemma 2.1 with the Monte-Carlo guard band: every point that can
    // matter to any query type has MinDist <= Delta(q) (+ rounding).
    const double r = core::CandidateRadius(merged.best, q, scale_);
    for (size_t s = 0; s < k; ++s) {
      // a is in its own shard's C_k (MinDist_a <= MaxDist_a = Delta(q)),
      // so that shard is active without a report when none is asked for.
      std::vector<int> cand;
      if (candidates || static_cast<int>(s) != owner) {
        cand = engines_[s]->SupportsWithin(q, r);
        if (cand.empty()) continue;
      }
      Plan::Shard& shard = plan.shards[s];
      plan.slot[s * m + i] = static_cast<int>(shard.at.size());
      shard.at.push_back(static_cast<int>(i));
      shard.queries.push_back(q);
      shard.cand.push_back(std::move(cand));
      ++run;
    }
  }
  for (size_t s = 0; s < k; ++s) {
    if (!plan.shards[s].at.empty()) plan.active.push_back(static_cast<int>(s));
  }
  shards_run_.Inc(run);
  shards_skipped_.Inc(k * m - run);
  return plan;
}

void ShardedEngine::RunActive(const Plan& plan, ThreadPool* pool,
                              const std::function<void(int)>& fn,
                              obs::TraceNode trace) const {
  if (pool == nullptr || plan.active.size() <= 1) {
    // One active shard (on disk-sharded-submit nearly every query) needs
    // no pool task and no wake-up.
    inline_queries_.Inc(plan.m);
    ForEachShard(plan.active, nullptr, fn, trace);
    return;
  }
  obs::ScopedSpan fan(trace, "shard_fanout",
                      static_cast<std::int64_t>(plan.active.size()));
  ForEachShard(plan.active, pool, fn, fan.node());
}

ShardedEngine::PlanStats ShardedEngine::plan_stats() const {
  return {shards_run_.Value(), shards_skipped_.Value(),
          inline_queries_.Value()};
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
                                 Plan plan, double eps_needed,
                                 ThreadPool* pool,
                                 obs::TraceNode trace) const {
  const size_t shards = engines_.size();
  std::vector<std::vector<std::pair<int, double>>> merged(queries.size());
  if (!exact_) {
    // Monte Carlo: every active shard sweeps exactly its C_k(q) at the
    // whole set's sample count; the winners then min-merge per
    // instantiation over the shards that ran.
    const int samples =
        Engine::MonteCarloSamples(config_, size_, max_sites_, eps_needed);
    std::vector<std::vector<core::InstantiationWinner>> winners(shards);
    RunActive(
        plan, pool,
        [&](int s) {
          winners[s] = engines_[s]->MonteCarloWinnersMany(
              plan.shards[s].queries, plan.shards[s].cand, samples);
        },
        trace);
    obs::ScopedSpan merge(trace, "merge");
    std::vector<std::span<const core::InstantiationWinner>> q_winners;
    for (size_t i = 0; i < queries.size(); ++i) {
      q_winners.clear();
      for (int s : plan.active) {
        const int a = plan.Slot(s, i);
        if (a < 0) continue;
        q_winners.emplace_back(
            winners[s].data() + static_cast<size_t>(a) * samples, samples);
      }
      merged[i] = MergeInstantiationWinners(q_winners);
    }
    return merged;
  }
  // Exact (an all-discrete set): no stage two. Each query's merge keeps
  // the C_k(q) points within the closed disk of the merged Delta(q) and
  // re-quantifies them on the calling thread.
  inline_queries_.Inc(queries.size());
  obs::ScopedSpan merge(trace, "merge");
  std::vector<std::vector<int>> q_cand(shards);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!geom::IsFinite(queries[i])) continue;
    for (size_t s = 0; s < shards; ++s) {
      const int a = plan.Slot(static_cast<int>(s), i);
      q_cand[s].clear();
      if (a >= 0) q_cand[s] = std::move(plan.shards[s].cand[a]);
    }
    merged[i] = MergeDiscreteProbabilities(views_, q_cand,
                                           plan.merged[i].best, queries[i])
                    .probs;
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
            return ProbabilitiesMany(qs, PlanPack(qs, true, trace), 0.0,
                                     pool, trace);
          },
          &results)) {
    return results;
  }
  // EDNN runs each active shard's own search and needs no candidate list.
  Plan plan = PlanPack(
      queries, spec.type != Engine::QueryType::kExpectedDistanceNn, trace);
  const size_t shards = engines_.size();
  switch (spec.type) {
    case Engine::QueryType::kExpectedDistanceNn: {
      // Every active shard answers its sub-pack through its own
      // expected-distance search. A query held by one shard takes that
      // shard's argmin; only a query held by two or more re-evaluates
      // their winners' E[d] for the min-merge.
      std::vector<std::vector<Engine::QueryResult>> local(shards);
      RunActive(
          plan, pool,
          [&](int s) {
            local[s] = engines_[s]->QueryMany(plan.shards[s].queries, spec);
          },
          trace);
      obs::ScopedSpan merge(trace, "merge");
      std::vector<std::pair<int, int>> held;  // (shard, local winner)
      std::vector<ExpectedCandidate> cand;
      for (size_t i = 0; i < queries.size(); ++i) {
        held.clear();
        for (int s : plan.active) {
          const int a = plan.Slot(s, i);
          if (a >= 0 && local[s][a].nn >= 0) held.push_back({s, local[s][a].nn});
        }
        if (held.size() == 1) {
          results[i].nn = engines_[held[0].first]->global_ids()[held[0].second];
          continue;
        }
        cand.clear();
        for (auto [s, lid] : held) {
          cand.push_back({engines_[s]->global_ids()[lid],
                          engines_[s]->ExpectedDistance(lid, queries[i])});
        }
        results[i].nn = MergeExpected(cand);
      }
      break;
    }
    case Engine::QueryType::kMostProbableNn:
    case Engine::QueryType::kThreshold:
    case Engine::QueryType::kTopK: {
      double eps_needed =
          spec.type == Engine::QueryType::kThreshold ? spec.tau / 2 : 0.0;
      std::vector<std::vector<std::pair<int, double>>> merged =
          ProbabilitiesMany(queries, std::move(plan), eps_needed, pool, trace);
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
      // No stage two: the C_k(q) hold every shard's slice of NN!=0(q),
      // and MergeNonzero filters their union by the merged envelope.
      inline_queries_.Inc(queries.size());
      obs::ScopedSpan merge(trace, "merge");
      std::vector<std::vector<int>> q_local(shards);
      std::vector<core::DeltaEnvelope> q_env(shards);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!geom::IsFinite(queries[i])) continue;
        for (size_t s = 0; s < shards; ++s) {
          const int a = plan.Slot(static_cast<int>(s), i);
          q_local[s].clear();
          if (a >= 0) q_local[s] = std::move(plan.shards[s].cand[a]);
          q_env[s] = plan.env[s * plan.m + i];
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
  if (num_shards() == 1) {
    engines_[0]->Warmup(spec);
    return;
  }
  // A probe through the plan would warm only the shards its Delta(q)
  // reaches, so each shard runs the plan's per-shard calls for `spec`
  // itself. Which structures they build depends on the spec and config,
  // never on the (finite) query point. Degenerate specs stay build-free;
  // tau <= 0 takes the probabilities pass at the config accuracy, as
  // QueryMany answers it.
  const query_contract::SpecClass cls = query_contract::Classify(spec);
  if (cls == query_contract::SpecClass::kTrivialEmpty) return;
  const bool regular = cls == query_contract::SpecClass::kRegular;
  const bool monte_carlo =
      !exact_ && (!regular || spec.type == Engine::QueryType::kMostProbableNn ||
                  spec.type == Engine::QueryType::kThreshold ||
                  spec.type == Engine::QueryType::kTopK);
  const double eps_needed =
      regular && spec.type == Engine::QueryType::kThreshold ? spec.tau / 2
                                                            : 0.0;
  const int samples =
      Engine::MonteCarloSamples(config_, size_, max_sites_, eps_needed);
  const geom::Vec2 probe{0, 0};
  const std::vector<int> first{0};
  std::vector<int> all(engines_.size());
  std::iota(all.begin(), all.end(), 0);
  ForEachShard(all, pool, [&](int s) {
    const Engine& e = *engines_[s];
    // Stage one: the envelope index, which also answers EDNN.
    e.MaxDistEnvelope(probe);
    if (monte_carlo) e.MonteCarloWinnersMany({&probe, 1}, {&first, 1}, samples);
  });
}

}  // namespace serve
}  // namespace unn
