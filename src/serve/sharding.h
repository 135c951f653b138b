#ifndef UNN_SERVE_SHARDING_H_
#define UNN_SERVE_SHARDING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_merge.h"
#include "serve/thread_pool.h"

/// \file sharding.h
/// Data partitioning for the serving layer: a ShardedEngine splits one
/// uncertain point set across K independent Engines (shards) and answers
/// every Engine query type with an envelope-first plan (K >= 2):
///
///   * stage one, on the calling thread: every shard's Delta envelope
///     (Engine::MaxDistEnvelope; nearest shard first, each walk bounded
///     by the envelope merged so far), merged into the whole set's
///     Delta(q) (MergeEnvelopeInto), then each shard's candidates
///     C_k(q) = its supports within Delta(q) plus the Monte-Carlo guard
///     band (core::CandidateRadius, scale = the largest shard's);
///   * stage two, only on the shards with C_k(q) non-empty, each against
///     the global Delta(q): the Monte-Carlo sweep over exactly C_k(q), or
///     the shard's expected-distance search. NonzeroNn and exact
///     quantification have no stage two: their merges filter the C_k(q).
///
/// By Lemma 2.1 no point outside the C_k(q) can be in NN!=0, win an
/// instantiation, or be the expected-distance NN (E[d_i] >= delta_i >
/// Delta(q) >= E[d_a]), so a shard without candidates is skipped: it adds
/// the identity of every merge (shard_merge.h). When one shard is active
/// it runs inline on the caller, with no pool task; with two or more the
/// active shards run in parallel when given a pool. The plan keeps no
/// shared incumbent, so no answer depends on the schedule. One shard
/// (K = 1) delegates to its Engine.
///
/// Ids are GLOBAL throughout the public API: a ShardedEngine over
/// `points` answers with the same ids as an Engine over `points`.
///
/// Exactness (details in docs/QUERY_SEMANTICS.md): sharding never changes
/// an answer. NonzeroNn and ExpectedDistanceNn merges are exact. The
/// probability queries (MostProbableNn / Threshold / TopK) follow
/// ExactQuantification (engine.h) on the whole set's flag: where one
/// Engine is exact (kAuto on a discrete set), the discrete merge
/// re-quantifies the points within the merged Delta(q), bit-identical to
/// one Engine; everywhere else every active shard reports its
/// per-instantiation Monte-Carlo winners over C_k(q) at the whole set's
/// sample count, and their elementwise minimum reproduces one Engine's
/// estimates bit for bit (every shard Engine keys its draws by global id,
/// and the C_k(q) partition one Engine's candidate set; see
/// monte_carlo_pnn.h, "Sharding").
///
/// Thread safety: a ShardedEngine is immutable after construction (apart
/// from its relaxed plan counters) and every const query method may be
/// called from any number of threads concurrently (the shards are
/// thread-safe Engines and the merge layer is stateless). Passing the
/// same ThreadPool to concurrent calls is also safe. Warmup warms every
/// shard so serving traffic builds nothing.

namespace unn {
namespace serve {

/// How points are assigned to shards.
enum class Partitioning {
  /// Point i goes to shard i mod K: balanced sizes, no locality — every
  /// shard sees a thinned copy of the whole distribution, so per-shard
  /// candidate sets stay small everywhere.
  kRoundRobin,
  /// Kd-style splits: recursively split the points by the median of
  /// their region centers along the wider axis, in proportion to the
  /// shard counts of each side. Spatially local shards — distant shards
  /// prune to near-empty candidate sets for most queries.
  kSpatial,
  /// Not a strategy PartitionPoints accepts: reported by
  /// ShardedEngine::options() for shard sets assembled from prebuilt
  /// engines, where the partitioner is the caller's and unknown here.
  kExternal,
};

struct ShardingOptions {
  /// Requested shard count; clamped to [1, n]. Shards are never empty —
  /// requesting more shards than points yields n singleton shards.
  int num_shards = 1;
  Partitioning partitioning = Partitioning::kRoundRobin;
};

/// Assigns every point index in [0, points.size()) to exactly one shard;
/// returns per-shard sorted global-id lists, empty lists dropped. Pure
/// function, deterministic for fixed input. O(n) for round-robin,
/// O(n log n) for spatial.
std::vector<std::vector<int>> PartitionPoints(
    const std::vector<core::UncertainPoint>& points,
    const ShardingOptions& options);

class ShardedEngine {
 public:
  /// Partitions `points` per `options` and builds one Engine per shard,
  /// every shard with the same `config` and its points' global ids. When
  /// `build_pool` is given the shard builds run on the pool in parallel
  /// (plus the calling thread). `points` must be non-empty, every support
  /// finite (UncertainPoint::finite); both are checked.
  ShardedEngine(std::vector<core::UncertainPoint> points,
                const Engine::Config& config, const ShardingOptions& options,
                ThreadPool* build_pool = nullptr);

  /// Assembles a shard set from prebuilt engines: shard s's local point j
  /// has global id `shard_engines[s]->global_ids()[j]`. The id lists must
  /// partition [0, total); engines must be non-null and share one config.
  /// Used to wrap caller-built engines and by benchmarks that time shard
  /// builds individually.
  explicit ShardedEngine(
      std::vector<std::shared_ptr<const Engine>> shard_engines);

  /// Wraps one prebuilt engine as a single-shard set (its global ids,
  /// identity by default, must be 0..n-1 in some order). Queries delegate
  /// directly to the engine — zero merge overhead.
  explicit ShardedEngine(std::shared_ptr<const Engine> engine);

  // Not copyable/movable: the internal shard views point into this
  // object. Share a ShardedEngine via shared_ptr (as QueryServer does).
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Query surface (mirrors Engine, global ids) ----------------------
  // Every method runs the envelope-first plan (file comment): stage two
  // runs the active shards in parallel across the given pool's workers
  // plus the calling thread when `pool` is non-null and two or more
  // shards are active, on the calling thread otherwise; then merges. All
  // are const and thread-safe. The five single-query methods are
  // one-element QueryMany calls, so they accept every parameter QueryMany
  // does and never abort on one.
  //
  // The trailing `trace` node opts one call into request tracing: when
  // its context is non-null the plan records "shard_plan" (stage one),
  // "shard_query" (tagged with the shard index; under a "shard_fanout"
  // span when two or more shards are active) and "merge" spans under it.
  // The default (null) node costs one pointer test per span site.

  /// argmax_i pi_i(q) over the whole dataset from the merged
  /// probabilities; ties toward the smaller global id.
  int MostProbableNn(geom::Vec2 q, ThreadPool* pool = nullptr,
                     obs::TraceNode trace = {}) const;

  /// argmin_i E[d(q, P_i)] via min-merge of the per-shard winners: the
  /// same lexicographic argmin of (E[d], id) as one Engine.
  int ExpectedDistanceNn(geom::Vec2 q, ThreadPool* pool = nullptr,
                         obs::TraceNode trace = {}) const;

  /// All i whose pi_i(q) may reach tau, (id, estimate) sorted by
  /// decreasing estimate: the same report as one Engine (no false
  /// negatives; the Monte-Carlo estimator runs at accuracy tau/2 and keeps
  /// its slack). `tau > 1` or NaN reports nothing; `tau <= 0` reports
  /// every id.
  std::vector<std::pair<int, double>> Threshold(
      geom::Vec2 q, double tau, ThreadPool* pool = nullptr,
      obs::TraceNode trace = {}) const;

  /// The k ids with the largest merged pi_i(q), sorted by decreasing
  /// estimate, as one Engine ranks them.
  /// `k <= 0` reports nothing without touching a shard.
  std::vector<std::pair<int, double>> TopK(geom::Vec2 q, int k,
                                           ThreadPool* pool = nullptr,
                                           obs::TraceNode trace = {}) const;

  /// NN!=0(q), sorted global ids; exact for every shard backend (the
  /// shards' candidates filtered by the merged Delta envelope).
  std::vector<int> NonzeroNn(geom::Vec2 q, ThreadPool* pool = nullptr,
                             obs::TraceNode trace = {}) const;

  /// Batched entry point and the one execution path of every query type,
  /// with Engine::QueryMany's degenerate-parameter contract (empty span /
  /// k <= 0 / tau outside (0, 1] answered definition-level; only
  /// tau <= 0 touches the shards). Stage one plans the whole pack; stage
  /// two visits each active shard once with the sub-pack of queries it
  /// holds candidates for, through the shard Engine's pack entry points;
  /// the merge then runs per query. A query's answer does not depend on
  /// the rest of the pack. `serve::QueryMany` additionally spreads a
  /// larger pack itself across a pool.
  std::vector<Engine::QueryResult> QueryMany(
      std::span<const geom::Vec2> queries, const Engine::QuerySpec& spec,
      ThreadPool* pool = nullptr, obs::TraceNode trace = {}) const;

  /// Warms every shard for the given query type / spec (in parallel on
  /// `pool` when given) so no serving query pays a structure build: each
  /// shard's structures for the plan's per-shard calls — the envelope
  /// index of stage one (which also answers stage two's expected-distance
  /// NN), and the Monte-Carlo estimator at the whole set's sample count —
  /// on every shard, including those a given query's plan would skip.
  /// Degenerate specs build nothing. Idempotent and thread-safe, like
  /// Engine::Warmup.
  void Warmup(Engine::QueryType type, ThreadPool* pool = nullptr) const;
  void Warmup(const Engine::QuerySpec& spec, ThreadPool* pool = nullptr) const;

  /// Work counts of the envelope-first plan since construction (K >= 2
  /// only; the single-shard delegate counts nothing). Per planned query,
  /// each shard is either run (it holds a candidate, so it takes part in
  /// the merge and in stage two) or skipped; a query is answered inline
  /// when no pool task served it (one active shard, no pool, or a type
  /// without stage two). Relaxed counters: exact once callers quiesce.
  struct PlanStats {
    std::uint64_t shards_run = 0;
    std::uint64_t shards_skipped = 0;
    std::uint64_t inline_queries = 0;
  };
  PlanStats plan_stats() const;

  // --- Introspection (all O(1) unless noted, immutable, thread-safe) ---

  /// Total points across all shards.
  int size() const { return size_; }
  /// Actual shard count (= min(requested, n); empty shards are dropped).
  int num_shards() const { return static_cast<int>(engines_.size()); }
  /// Shard s's engine (local ids). O(1).
  const Engine& shard(int s) const { return *engines_[s]; }
  /// Shard s's engine as an owning pointer (shareable snapshot). O(1).
  std::shared_ptr<const Engine> shard_ptr(int s) const { return engines_[s]; }
  /// Shard s's local-to-global id map: global_ids(s)[j] is the dataset id
  /// of shard s's local point j (Engine::global_ids). O(1).
  const std::vector<int>& global_ids(int s) const {
    return engines_[s]->global_ids();
  }
  /// The per-shard Engine config (identical across shards). O(1).
  const Engine::Config& config() const { return config_; }
  /// The partitioning this shard set was built with.
  const ShardingOptions& options() const { return options_; }
  /// Sum of Engine::StructuresBuilt over the shards — observability for
  /// tests and serving metrics. O(K).
  int StructuresBuilt() const;

 private:
  /// One pack's stage one (defined in sharding.cc).
  struct Plan;

  /// Runs fn(s) for every shard index s in `shards`, on `pool` (plus the
  /// calling thread) when given and there are two or more, serially
  /// otherwise. When `trace` is live each call is wrapped in a
  /// "shard_query" span tagged with s.
  void ForEachShard(std::span<const int> shards, ThreadPool* pool,
                    const std::function<void(int)>& fn,
                    obs::TraceNode trace = {}) const;
  /// Checks the shard id lists and fills the views and whole-set facts
  /// from engines_. Both constructors end here.
  void IndexShards();
  /// Stage one for a pack, on the calling thread: envelopes, merged
  /// Delta(q), and every shard's candidates. Without `candidates` the
  /// shard holding the argmin is marked active without its report.
  Plan PlanPack(std::span<const geom::Vec2> queries, bool candidates,
                obs::TraceNode trace) const;
  /// Stage two: fn(s) for every active shard of `plan`, inline when one
  /// is active or `pool` is null, across the pool under a "shard_fanout"
  /// span otherwise.
  void RunActive(const Plan& plan, ThreadPool* pool,
                 const std::function<void(int)>& fn,
                 obs::TraceNode trace) const;
  /// Merged (global id, pi) lists at `eps_needed` for a planned pack:
  /// under Monte Carlo one MonteCarloWinnersMany visit per active shard
  /// over its C_k(q) at the whole set's sample count, then
  /// MergeInstantiationWinners per query; where quantification is exact,
  /// MergeDiscreteProbabilities over the C_k(q) per query, with no stage
  /// two. The only merge call site: MostProbableNn / Threshold / TopK and
  /// the tau <= 0 degenerate answer all go through it.
  std::vector<std::vector<std::pair<int, double>>> ProbabilitiesMany(
      std::span<const geom::Vec2> queries, Plan plan, double eps_needed,
      ThreadPool* pool, obs::TraceNode trace) const;

  std::vector<std::shared_ptr<const Engine>> engines_;
  std::vector<ShardView> views_;  // Parallel to engines_.
  Engine::Config config_;
  ShardingOptions options_;
  int size_ = 0;
  // Facts of the whole set: ExactQuantification on its model flag (exact
  // implies all-discrete, so it picks the merge), and Theorem 4.3's k for
  // the sample count.
  bool exact_ = false;
  int max_sites_ = 1;
  // The whole set's core::SupportScale: the guard band's coordinate scale.
  double scale_ = 0.0;
  // Per shard, the box around its supports: stage one walks the nearest
  // shard's envelope first.
  std::vector<geom::Box> bounds_;
  // The plan counters behind plan_stats().
  mutable obs::Counter shards_run_;
  mutable obs::Counter shards_skipped_;
  mutable obs::Counter inline_queries_;
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_SHARDING_H_
