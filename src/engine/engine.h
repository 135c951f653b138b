#ifndef UNN_ENGINE_ENGINE_H_
#define UNN_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>  // std::once_flag; locks come from util/thread_annotations.h
#include <span>
#include <utility>
#include <vector>

#include "core/monte_carlo_pnn.h"
#include "core/nn_nonzero_discrete_index.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "geom/vec2.h"
#include "spatial/batch.h"
#include "util/thread_annotations.h"

/// \file engine.h
/// The unified query facade of the library. An Engine owns one uncertain
/// point set and answers all the query types of the paper (and its
/// companions) behind a single API:
///
///   * MostProbableNn   — argmax_i pi_i(q) (quantification probabilities,
///                        Section 4);
///   * ExpectedDistanceNn — argmin_i E[d(q, P_i)] ([AESZ12] Section 1.2);
///   * Threshold        — all i whose pi_i(q) may reach tau ([DYM+05]);
///   * TopK             — the k most probable NNs ([BSI08]);
///   * NonzeroNn        — NN!=0(q), the support of the quantification
///                        distribution (Sections 2/3).
///
/// `Engine::Config` selects a backend and an accuracy. The default
/// `Backend::kAuto` picks one structure per query type and input model
/// (docs/ARCHITECTURE.md "Batch traversal"); `kMonteCarlo` answers the
/// probabilities from instantiation sampling on every input. The
/// definitions themselves (Lemma 2.1, Eq. (1), Eq. (2)) are the test
/// oracles in `baselines/` and `core/exact_pnn.h`; no query is answered
/// by a linear scan over the set. The paper's other structures (the V!=0
/// diagrams, the L_inf index and the Theorem 4.5/4.7 spiral searches,
/// which build into the `unn_paper` library) are `core::` classes used
/// directly.
/// Structures are built lazily on first use and cached, so an Engine that
/// only ever answers NonzeroNn never pays for Monte-Carlo preprocessing.
/// The Engine holds the one copy of its points and the one core::QuantTree
/// over them: the QuantTree borrows the points, and the exact discrete
/// quantifier and the Monte-Carlo estimator borrow the QuantTree.
///
/// Thread safety: every `const` query method may be called from any number
/// of threads concurrently. The lazy structure cache is synchronized
/// (`std::call_once` for the fixed structures, a shared-mutex-guarded
/// snapshot for the sample-count-keyed Monte-Carlo estimator), so
/// concurrent first queries build each structure exactly once. `Warmup`
/// builds the structures a query type needs eagerly, which serving layers
/// call before fanning a batch across workers so no query pays the build; see
/// `src/serve/` for the thread pool, batch-parallel QueryMany, data
/// sharding (ShardedEngine merges per-shard answers via the hooks below),
/// and QueryServer built on top of this guarantee.

namespace unn {

/// Which structures serve the queries. kAuto must stay 0: run records
/// store the backend as an int.
enum class Backend {
  /// Default. Discrete inputs: exact probabilities from Eq. (2) over each
  /// query's NN!=0 candidates (Lemma 2.1: every other point has pi = 0),
  /// so MostProbableNn, Threshold and TopK are exact; the quantifier
  /// (core::NnNonzeroDiscreteIndex, Theorem 3.2's two stages: Delta(q)
  /// from the QuantTree's envelope, then a site kd-tree) builds on the
  /// QuantTree, so any of these queries builds both.
  /// Disk and mixed inputs: Monte-Carlo probabilities.
  /// On every input, NN!=0 is core::QuantTree::NonzeroNn and
  /// ExpectedDistanceNn core::QuantTree::ExpectedDistanceNn.
  kAuto,
  /// Theorem 4.3/4.5 instantiation sampling for the probabilities on
  /// every input. NN!=0 and ExpectedDistanceNn are exact, and both come
  /// from the QuantTree the estimator borrows.
  kMonteCarlo,
};

/// The one exactness rule, shared by Engine and ShardedEngine (which
/// applies it with the whole set's flag). Probabilities are exact for
/// kAuto on all-discrete input (Eq. (2) over the NN!=0 candidates); every
/// other configuration takes the Monte-Carlo estimator.
inline bool ExactQuantification(Backend backend, bool all_discrete) {
  return backend == Backend::kAuto && all_discrete;
}

class Engine {
 public:
  struct Config {
    Backend backend = Backend::kAuto;
    /// Accuracy of the Monte-Carlo estimates (disk and mixed input, and
    /// every input under kMonteCarlo): every reported hat-pi is within eps
    /// of the true pi. Exact quantification (kAuto on discrete input)
    /// ignores it.
    double eps = 0.05;
    /// Monte-Carlo failure probability (Theorem 4.3).
    double delta = 0.05;
    /// Absolute tolerance of the Eq. (1) integrator
    /// (core::IntegrateAllQuantifications), which serve::MergeProbabilities
    /// runs on a disk union; no Engine query reads it. E[d] needs no
    /// tolerance: prob::ExpectedDistance is O(1) at every distance.
    double tol = 1e-8;
    /// Seed for every randomized structure.
    uint64_t seed = 0xC0FFEE;
    /// Overrides the Theorem 4.3 Monte-Carlo sample count when > 0.
    int mc_samples_override = 0;
    /// Always true: every query runs through QueryMany's Morton-ordered
    /// pack (docs/ARCHITECTURE.md "Batch traversal"). Not a knob; kept
    /// readable so run records can state it.
    static constexpr bool batch_traversal = true;
  };

  /// The query types QueryMany can batch.
  enum class QueryType {
    kMostProbableNn,
    kExpectedDistanceNn,
    kThreshold,
    kTopK,
    kNonzeroNn,
  };

  /// One batched request: the type plus its parameter (tau for threshold,
  /// k for top-k; the others take none).
  struct QuerySpec {
    QueryType type = QueryType::kMostProbableNn;
    double tau = 0.5;
    int k = 1;

    /// Raw field equality (canonical equivalence, e.g. TopK specs that
    /// differ only in tau, is the result cache key's business).
    bool operator==(const QuerySpec&) const = default;
  };

  /// Result of one batched query. Which field is populated depends on the
  /// QueryType: `nn` for the two NN types, `ranked` for threshold/top-k,
  /// `ids` for NonzeroNn.
  struct QueryResult {
    int nn = -1;
    std::vector<std::pair<int, double>> ranked;
    std::vector<int> ids;
  };

  /// `points` must be non-empty, every support finite
  /// (UncertainPoint::finite); both are checked.
  explicit Engine(std::vector<core::UncertainPoint> points);
  Engine(std::vector<core::UncertainPoint> points, const Config& config);
  /// `global_ids[i]` is point i's id in the whole dataset when this Engine
  /// serves one shard of it (distinct, non-negative; the default is
  /// 0..n-1). Answers still use local ids 0..n-1; the global ids key the
  /// Monte-Carlo draws and break their ties, so every shard draws the
  /// whole set's samples at its points.
  Engine(std::vector<core::UncertainPoint> points, const Config& config,
         std::vector<int> global_ids);

  // The five single-query methods below are one-element QueryMany calls:
  // each answer is bit-identical to the same query inside any pack.

  /// argmax_i pi_i(q), ties broken toward the smaller id; -1 when no
  /// point has a positive estimate. Exact for kAuto on discrete input;
  /// within Config::eps for the Monte-Carlo estimator. Thread-safe; cost
  /// is one quantification query (near-linear worst case).
  int MostProbableNn(geom::Vec2 q) const;

  /// argmin_i E[d(q, P_i)], ties toward the smaller id; served by
  /// core::QuantTree::ExpectedDistanceNn on every backend. Thread-safe;
  /// O(log n) on bounded-density inputs via branch-and-bound.
  int ExpectedDistanceNn(geom::Vec2 q) const;

  /// All i whose true pi_i(q) may reach tau, (id, estimate) sorted by
  /// decreasing estimate: exactly {pi_i >= tau} where quantification is
  /// exact; no false negatives from the Monte-Carlo estimator (its
  /// accuracy is raised to tau/2 when Config::eps is looser). Any tau is
  /// accepted, with QueryMany's definition-level answers: `tau > 1` or NaN
  /// reports nothing, `tau <= 0` reports every id. Thread-safe; one
  /// quantification query plus an O(k log k) sort of the k reported
  /// pairs.
  std::vector<std::pair<int, double>> Threshold(geom::Vec2 q,
                                                double tau) const;

  /// The k ids with the largest pi_i(q), (id, estimate) sorted by
  /// decreasing estimate; under the Monte-Carlo estimator near-ties
  /// within 2 eps may permute. `k <= 0`
  /// reports nothing (build-free). Thread-safe; one quantification query
  /// plus a sort of the positive-probability candidates.
  std::vector<std::pair<int, double>> TopK(geom::Vec2 q, int k) const;

  /// NN!=0(q), sorted ids; exact, equal to baselines::NonzeroNn far from
  /// the data too. Thread-safe; polylogarithmic + output-sensitive on
  /// every backend and model: the quantification index
  /// (core::QuantTree::NonzeroNn), one structure.
  std::vector<int> NonzeroNn(geom::Vec2 q) const;

  /// Batched entry point and the one execution path of every query type:
  /// answers `spec` for every query point; `results[i]` always answers
  /// `queries[i]` and does not depend on the rest of the pack. Degenerate
  /// parameters get definition-level answers instead of tripping backend
  /// preconditions: an empty span returns an empty vector without
  /// building any structure, `kTopK` with `k <= 0` returns empty rankings
  /// (likewise build-free), `kThreshold` with `tau > 1` or NaN returns
  /// empty rankings (no pi exceeds 1), and `kThreshold` with `tau <= 0`
  /// returns every id with its estimate (every pi reaches a non-positive
  /// threshold). A query with a NaN or infinite coordinate gets nn -1 and
  /// empty ranked/ids on every backend, except that `tau <= 0` still
  /// lists every id at 0 (docs/QUERY_SEMANTICS.md "Non-finite queries").
  /// The pack is answered in Morton order (spatial::InCoherentOrder) and
  /// scattered back, so consecutive queries share cached tree nodes;
  /// `serve::QueryMany` splits the pack across a thread pool.
  /// Thread-safe.
  std::vector<QueryResult> QueryMany(std::span<const geom::Vec2> queries,
                                     const QuerySpec& spec) const;

  /// Eagerly builds every structure the given query type needs at the
  /// config accuracy, so later queries of that type never build (and a
  /// serving layer can fan them across threads without any worker paying
  /// the preprocessing). Idempotent and itself thread-safe: concurrent
  /// warmups build each structure once. The QuerySpec overload accounts
  /// for the threshold parameter (on the Monte-Carlo estimator,
  /// `tau < 2 * Config::eps` needs a tighter estimator than the
  /// plain-QueryType default of tau = 0.5).
  void Warmup(QueryType type) const;
  void Warmup(const QuerySpec& spec) const;

  /// Number of heavy structures built so far — observability for tests
  /// and serving metrics (a warmed engine must not build under query
  /// traffic). Every tree counts once: the QuantTree the exact discrete
  /// quantifier and the estimator borrow is one structure, the quantifier
  /// one more, and every estimator (re)build one more. Any Engine builds 1
  /// (the tree) for NonzeroNn or ExpectedDistanceNn; a discrete kAuto one
  /// 2 (tree + quantifier) for any probability query, and no more for
  /// every type; a disk one 2 (tree + estimator) for every type.
  int StructuresBuilt() const {
    // relaxed: observability counter; build publication itself happens
    // through call_once / estimator_mu_, never through builds_.
    return builds_.load(std::memory_order_relaxed);
  }

  /// Quantification estimates (id, hat-pi) with positive estimate, sorted
  /// by id. `eps_needed` (<= 0 means Config::eps) is the Monte-Carlo
  /// accuracy; exact quantification ignores it. The estimator answers from
  /// its first MonteCarloSamples(config(), size(), max_sites(),
  /// eps_needed) instantiations, whatever was built before. Exposed so
  /// callers can post-process distributions themselves. A one-element
  /// ProbabilitiesMany. Thread-safe; cost is one backend quantification
  /// query.
  std::vector<std::pair<int, double>> Probabilities(
      geom::Vec2 q, double eps_needed = 0.0) const;

  /// Batched Probabilities: `out[i]` depends on `queries[i]` alone. kAuto
  /// on discrete input answers the whole batch through
  /// core::NnNonzeroDiscreteIndex::ProbabilitiesBatch (exact, bit-identical
  /// to core::DiscreteQuantification); the Monte-Carlo estimator through
  /// its candidate sweep after a batched envelope pass. A query with a
  /// NaN or infinite coordinate gets no estimates on every backend, so
  /// MostProbableNn answers -1 and Threshold/TopK report nothing for it.
  /// This is the substrate QueryMany's MostProbableNn/Threshold/TopK arms
  /// share. Thread-safe.
  std::vector<std::vector<std::pair<int, double>>> ProbabilitiesMany(
      std::span<const geom::Vec2> queries, double eps_needed = 0.0,
      spatial::BatchStats* stats = nullptr) const;

  /// The Monte-Carlo sample count a request at accuracy `eps_needed` (<= 0
  /// means config.eps; larger values are clamped to it) needs over a set
  /// of n points with at most `max_sites` sites each: the override when
  /// set, else Theorem 4.3's count. A sharded set passes its whole size.
  static int MonteCarloSamples(const Config& config, int n, int max_sites,
                               double eps_needed);

  // --- Per-point quantification hooks for cross-shard merging ----------
  // A sharded deployment partitions one logical point set across several
  // Engines and recombines per-shard answers (src/serve/sharding.h). The
  // hooks below are the per-point quantities that make that recombination
  // exact under independent points; they are also useful on their own.
  // All are thread-safe const queries.

  /// The Monte-Carlo estimator's per-instantiation winners over the first
  /// `samples` instantiations, among caller-supplied candidates:
  /// out[i * samples + j] is (distance, global id) of instantiation j's
  /// winner for queries[i] among `candidates[i]` (local ids;
  /// core::MonteCarloPnn::WinnersAmong; key -1 for a non-finite query or
  /// an empty list). The sharded plan passes each shard's slice of the
  /// whole set's candidate set and min-merges the winners over shards.
  /// Walks no tree. Builds (or reuses a larger) the estimator, and the
  /// QuantTree it borrows, whatever the backend.
  std::vector<core::InstantiationWinner> MonteCarloWinnersMany(
      std::span<const geom::Vec2> queries,
      std::span<const std::vector<int>> candidates, int samples) const;

  /// E[d(q, P_i)] — the per-point quantity the sharded layer
  /// min-merges: each shard reports its local argmin with this value, and
  /// the global expected-distance NN is the min over shards.
  /// prob::ExpectedDistance: a weighted sum for discrete points, exact to
  /// rounding for uniform disks, within 1e-9 relative for truncated
  /// Gaussians; O(1) at every distance. Builds nothing.
  double ExpectedDistance(int i, geom::Vec2 q) const;

  /// The two smallest Delta_j(q) = max-distance values over this engine's
  /// points, plus the argmin (Lemma 2.1's pruning envelope). Per-shard
  /// envelopes merge into the global envelope by taking the two smallest
  /// values overall: the sharded plan's stage one, whose merged Delta(q)
  /// decides which shards can contribute to any answer.
  /// Answered by the quantification index (core::QuantTree, built once on
  /// first use, synchronized, StructuresBuilt-visible) in O(log n) on
  /// bounded-density inputs, bit-identical to the linear
  /// core::TwoSmallestMaxDist scan including tie-breaking. `bound` (an
  /// envelope over other shards' points) lets the walk prune what cannot
  /// change the union's envelope; the result is then exact only as far as
  /// MergeEnvelopes with `bound`'s points needs (core::QuantTree).
  core::DeltaEnvelope MaxDistEnvelope(
      geom::Vec2 q, const core::DeltaEnvelope* bound = nullptr) const;

  /// MaxDistEnvelope for every query: `out[i]` is
  /// `MaxDistEnvelope(queries[i])`, one scalar ordered-DFS walk per query
  /// (the walks' node, leaf and prune counts land in `stats`; its lane
  /// counters stay 0). `out` must hold one slot per query. Thread-safe.
  void MaxDistEnvelopeMany(std::span<const geom::Vec2> queries,
                           std::span<core::DeltaEnvelope> out,
                           spatial::BatchStats* stats = nullptr) const;

  /// log Pr[every point of this engine is farther than r from q]
  ///   = sum_i log1p(-G_{q,i}(r)),
  /// the log of the shard survival probability prod_i (1 - G_{q,i}(r)) of
  /// the paper-II factorization: for independent points the survival of a
  /// union of shards is the product of the per-shard survivals, which is
  /// why the exact merges' candidate-union re-quantification recombines
  /// probabilistic answers without error. They compute these products
  /// implicitly (re-accumulating/re-integrating over the candidate
  /// union); this hook is the explicit form — used by the factorization
  /// tests and the surface an out-of-process merger would consume.
  /// Accumulated in log space: the product of n factors below 1
  /// underflows to 0 near n ~ 10^5 while the log sum stays exact
  /// (-infinity when some point is certainly within r). Answered by the
  /// quantification index: only points whose support intersects
  /// ball(q, r) are evaluated (a disjoint support contributes 0),
  /// O(log n + k) for k intersecting supports.
  double LogSurvivalProbability(geom::Vec2 q, double r) const;

  /// The ids whose support meets the closed ball(q, r), MinDist <= r, in
  /// no particular order. The sharded plan asks every shard for its
  /// points within the merged Delta(q) plus the guard band: its
  /// candidates C_k(q) for every query type. Answered by the
  /// quantification index (core::QuantTree::SupportsWithin, built once on
  /// first use), O(log n + k) for k reported supports. Thread-safe.
  std::vector<int> SupportsWithin(geom::Vec2 q, double r) const;

  /// The owned point set, in id order. Immutable after construction, so
  /// reading it is thread-safe and O(1).
  const std::vector<core::UncertainPoint>& points() const { return points_; }
  /// global_ids()[i] is point i's id in the whole dataset. O(1).
  const std::vector<int>& global_ids() const { return global_ids_; }
  /// The construction-time configuration. Immutable; O(1).
  const Config& config() const { return config_; }
  /// Number of uncertain points. O(1).
  int size() const { return static_cast<int>(points_.size()); }
  /// True when every point is a discrete distribution. O(1).
  bool all_discrete() const { return all_discrete_; }
  /// Theorem 4.3's k: the most sites of any discrete point (1 if none).
  int max_sites() const { return max_sites_; }

 private:
  bool ExactQuantification() const {
    return unn::ExactQuantification(config_.backend, all_discrete_);
  }

  /// QueryMany over a pack already in the order it is answered in.
  std::vector<QueryResult> QueryInOrder(std::span<const geom::Vec2> queries,
                                        const QuerySpec& spec) const;

  const core::NnNonzeroDiscreteIndex& GetNonzeroDiscrete() const;
  const core::QuantTree& GetQuantTree() const;
  /// An estimator with at least `samples` instantiations, as an owning
  /// snapshot over the Engine's QuantTree: a request that needs more
  /// samples replaces the cached structure (not the tree), and the
  /// returned shared_ptr keeps the one a concurrent query is using alive
  /// until that query finishes. Keyed draws are prefix-consistent, so
  /// callers answer from its first `samples`.
  std::shared_ptr<const core::MonteCarloPnn> GetMonteCarlo(int samples) const;

  /// The one copy of the points; every structure below borrows it.
  std::vector<core::UncertainPoint> points_;
  std::vector<int> global_ids_;
  Config config_;
  bool all_discrete_ = true;
  /// Theorem 4.3's k: the most sites of any discrete point (1 if none).
  int max_sites_ = 1;

  // Lazily built structures. Fixed structures are built exactly once
  // under their once_flag; the sample-count-keyed estimator lives behind
  // estimator_mu_ (shared-locked reads, unique-locked rebuilds). The
  // once_flag slots are deliberately NOT capability-annotated:
  // std::call_once is outside clang's capability model, and its
  // build-exactly-once publication guarantee is what synchronizes them
  // (each slot is written once inside the call_once callback and only
  // read after the corresponding call_once returns).
  mutable std::once_flag quant_tree_once_;
  mutable std::unique_ptr<core::QuantTree> quant_tree_;
  // The exact discrete quantifier and the estimator borrow quant_tree_:
  // declared after it, destroyed first.
  mutable std::once_flag nonzero_discrete_once_;
  mutable std::unique_ptr<core::NnNonzeroDiscreteIndex> nonzero_discrete_;

  mutable SharedMutex estimator_mu_;
  mutable std::shared_ptr<const core::MonteCarloPnn> monte_carlo_
      UNN_GUARDED_BY(estimator_mu_);

  mutable std::atomic<int> builds_{0};
};

}  // namespace unn

#endif  // UNN_ENGINE_ENGINE_H_
