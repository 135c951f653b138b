#include "engine/engine.h"

#include <algorithm>
#include <numeric>

#include "engine/query_contract.h"
#include "prob/distance_cdf.h"
#include "util/check.h"

namespace unn {

namespace {

/// The shared shape of every fixed-structure getter: build exactly once
/// under the flag, count the build (StructuresBuilt observability), return
/// the structure.
template <class T, class Make>
const T& BuildOnce(std::once_flag& once, std::unique_ptr<T>& slot,
                   std::atomic<int>& builds, Make make) {
  std::call_once(once, [&] {
    slot = make();
    // relaxed: observability counter; the structure itself is published
    // by call_once's synchronization, not by builds.
    builds.fetch_add(1, std::memory_order_relaxed);
  });
  return *slot;
}

}  // namespace

Engine::Engine(std::vector<core::UncertainPoint> points)
    : Engine(std::move(points), Config()) {}

Engine::Engine(std::vector<core::UncertainPoint> points, const Config& config)
    : Engine(std::move(points), config, {}) {}

Engine::Engine(std::vector<core::UncertainPoint> points, const Config& config,
               std::vector<int> global_ids)
    : points_(std::move(points)),
      global_ids_(std::move(global_ids)),
      config_(config) {
  UNN_CHECK(!points_.empty());
  if (global_ids_.empty()) {
    global_ids_.resize(points_.size());
    std::iota(global_ids_.begin(), global_ids_.end(), 0);
  }
  UNN_CHECK(global_ids_.size() == points_.size());
  UNN_CHECK(config_.eps > 0 && config_.eps < 1);
  UNN_CHECK(config_.delta > 0 && config_.delta < 1);
  UNN_CHECK(config_.tol > 0);
  for (const auto& p : points_) {
    UNN_CHECK_MSG(p.finite(), "every support must be finite");
    all_discrete_ = all_discrete_ && !p.is_disk();
    if (!p.is_disk()) {
      max_sites_ = std::max(max_sites_, static_cast<int>(p.sites().size()));
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy structure cache. Fixed structures build exactly once under their
// once_flag (concurrent first queries block until the single build
// finishes); the sample-count-keyed estimator uses a shared mutex with
// double-checked rebuilds and hands out shared_ptr snapshots so a rebuild
// never pulls a structure out from under a running query.
// ---------------------------------------------------------------------------

const core::NnNonzeroDiscreteIndex& Engine::GetNonzeroDiscrete() const {
  // The index borrows the tree for its stage one; the tree is taken
  // first, so its one-time build never runs inside the index's call_once.
  const core::QuantTree& tree = GetQuantTree();
  return BuildOnce(nonzero_discrete_once_, nonzero_discrete_, builds_, [&] {
    return std::make_unique<core::NnNonzeroDiscreteIndex>(&tree);
  });
}

std::shared_ptr<const core::MonteCarloPnn> Engine::GetMonteCarlo(
    int samples) const {
  // The cached structure is fixed by its sample count (the seed, keys and
  // tree are the Engine's); a request that needs more samples rebuilds it
  // and reuses the tree. The tree is taken before estimator_mu_, so its
  // one-time build never runs under the estimator lock.
  const core::QuantTree& tree = GetQuantTree();
  {
    ReaderMutexLock lock(&estimator_mu_);
    if (monte_carlo_ && monte_carlo_->num_instantiations() >= samples) {
      return monte_carlo_;
    }
  }
  WriterMutexLock lock(&estimator_mu_);
  if (!monte_carlo_ || monte_carlo_->num_instantiations() < samples) {
    core::MonteCarloPnnOptions opts;
    opts.seed = config_.seed;
    opts.s_override = samples;
    monte_carlo_ =
        std::make_shared<const core::MonteCarloPnn>(&tree, opts, global_ids_);
    // relaxed: observability counter (see BuildOnce).
    builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return monte_carlo_;
}

const core::QuantTree& Engine::GetQuantTree() const {
  // points_ is immutable for the Engine's lifetime, so handing the tree a
  // pointer is safe.
  return BuildOnce(quant_tree_once_, quant_tree_, builds_, [this] {
    return std::make_unique<core::QuantTree>(&points_);
  });
}

// ---------------------------------------------------------------------------
// Quantification probabilities (the shared substrate of MostProbableNn,
// Threshold and TopK)
// ---------------------------------------------------------------------------

std::vector<std::pair<int, double>> Engine::Probabilities(
    geom::Vec2 q, double eps_needed) const {
  return std::move(ProbabilitiesMany({&q, 1}, eps_needed)[0]);
}

std::vector<std::vector<std::pair<int, double>>> Engine::ProbabilitiesMany(
    std::span<const geom::Vec2> queries, double eps_needed,
    spatial::BatchStats* stats) const {
  // kAuto on discrete input: exact Eq. (2) over each query's NN!=0
  // candidates (Lemma 2.1 zeroes every other point), batched through the
  // two-stage index.
  if (ExactQuantification()) {
    return GetNonzeroDiscrete().ProbabilitiesBatch(queries, stats);
  }
  // Monte Carlo: kMonteCarlo, and kAuto on disk or mixed input. The first
  // `samples` instantiations answer, however many the cached estimator
  // holds.
  const int samples =
      MonteCarloSamples(config_, size(), max_sites_, eps_needed);
  return GetMonteCarlo(samples)->QueryBatch(queries, stats, samples);
}

int Engine::MonteCarloSamples(const Config& config, int n, int max_sites,
                              double eps_needed) {
  if (config.mc_samples_override > 0) return config.mc_samples_override;
  double eps = eps_needed > 0 ? std::min(eps_needed, config.eps) : config.eps;
  return core::MonteCarloPnn::RequiredSamples(n, max_sites, eps, config.delta);
}

std::vector<core::InstantiationWinner> Engine::MonteCarloWinnersMany(
    std::span<const geom::Vec2> queries,
    std::span<const std::vector<int>> candidates, int samples) const {
  return GetMonteCarlo(samples)->WinnersAmong(queries, candidates, samples);
}

// ---------------------------------------------------------------------------
// Single-query entry points: one-element QueryMany packs
// ---------------------------------------------------------------------------

int Engine::MostProbableNn(geom::Vec2 q) const {
  return QueryMany({&q, 1}, {QueryType::kMostProbableNn})[0].nn;
}

int Engine::ExpectedDistanceNn(geom::Vec2 q) const {
  return QueryMany({&q, 1}, {QueryType::kExpectedDistanceNn})[0].nn;
}

std::vector<std::pair<int, double>> Engine::Threshold(geom::Vec2 q,
                                                      double tau) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kThreshold, tau})[0].ranked);
}

std::vector<std::pair<int, double>> Engine::TopK(geom::Vec2 q, int k) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kTopK, 0.5, k})[0].ranked);
}

std::vector<int> Engine::NonzeroNn(geom::Vec2 q) const {
  return std::move(QueryMany({&q, 1}, {QueryType::kNonzeroNn})[0].ids);
}

// ---------------------------------------------------------------------------
// Per-point quantification hooks (cross-shard merging)
// ---------------------------------------------------------------------------

double Engine::ExpectedDistance(int i, geom::Vec2 q) const {
  UNN_CHECK(i >= 0 && i < size());
  return prob::ExpectedDistance(points_[i], q);
}

core::DeltaEnvelope Engine::MaxDistEnvelope(
    geom::Vec2 q, const core::DeltaEnvelope* bound) const {
  return GetQuantTree().MaxDistEnvelope(q, nullptr, bound);
}

void Engine::MaxDistEnvelopeMany(std::span<const geom::Vec2> queries,
                                 std::span<core::DeltaEnvelope> out,
                                 spatial::BatchStats* stats) const {
  UNN_CHECK_MSG(out.size() == queries.size(),
                "MaxDistEnvelopeMany needs one output slot per query");
  const core::QuantTree& tree = GetQuantTree();
  spatial::TraversalStats walk;
  spatial::TraversalStats* walk_stats = stats != nullptr ? &walk : nullptr;
  for (size_t i = 0; i < queries.size(); ++i) {
    out[i] = tree.MaxDistEnvelope(queries[i], walk_stats);
  }
  if (stats != nullptr) stats->AddWalk(walk);
}

double Engine::LogSurvivalProbability(geom::Vec2 q, double r) const {
  return GetQuantTree().LogSurvival(q, r);
}

std::vector<int> Engine::SupportsWithin(geom::Vec2 q, double r) const {
  std::vector<int> ids;
  GetQuantTree().SupportsWithin(q, r, &ids);
  return ids;
}

// ---------------------------------------------------------------------------
// Warmup: build everything a query type needs before serving traffic
// ---------------------------------------------------------------------------

void Engine::Warmup(QueryType type) const { Warmup(QuerySpec{type, 0.5, 1}); }

void Engine::Warmup(const QuerySpec& spec) const {
  // Warming is answering one representative query through QueryMany: which
  // structures get built depends on the spec and config but never on the
  // query point, so one probe builds exactly what later queries of this
  // spec need — including the degenerate-parameter paths that build
  // nothing — and cannot drift from the real dispatch.
  geom::Vec2 probe{0, 0};
  QueryMany(std::span<const geom::Vec2>(&probe, 1), spec);
}

// ---------------------------------------------------------------------------
// Batched entry point
// ---------------------------------------------------------------------------

std::vector<Engine::QueryResult> Engine::QueryMany(
    std::span<const geom::Vec2> queries, const QuerySpec& spec) const {
  // The pack is answered in Morton order and scattered back: consecutive
  // queries then descend the same subtrees, and no answer depends on its
  // neighbours (BatchFuzz.EngineQueryManyPackIndependent).
  return spatial::InCoherentOrder(
      queries, [&](std::span<const geom::Vec2> sorted) {
        return QueryInOrder(sorted, spec);
      });
}

std::vector<Engine::QueryResult> Engine::QueryInOrder(
    std::span<const geom::Vec2> queries, const QuerySpec& spec) const {
  // Degenerate parameters (see header) get definition-level answers from
  // the shared contract; only the tau <= 0 case consults a backend.
  std::vector<QueryResult> results;
  if (query_contract::AnswerDegenerate(
          queries, spec, size(),
          [this](std::span<const geom::Vec2> qs) {
            return ProbabilitiesMany(qs);
          },
          &results)) {
    return results;
  }
  // One dispatch per type (docs/ARCHITECTURE.md "Batch traversal" has the
  // coverage matrix and per-kernel exactness argument). A query with a
  // NaN or infinite coordinate has no distances to rank: it gets no
  // expected-distance NN and an empty NN!=0 on every backend, as it gets
  // no probability estimates (so MPNN -1, Threshold/TopK empty).
  switch (spec.type) {
    case QueryType::kMostProbableNn: {
      auto est = ProbabilitiesMany(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i].nn = query_contract::MostProbable(est[i]);
      }
      break;
    }
    case QueryType::kExpectedDistanceNn: {
      const core::QuantTree& tree = GetQuantTree();
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i].nn = tree.ExpectedDistanceNn(queries[i]);
      }
      break;
    }
    case QueryType::kThreshold: {
      // [DYM+05] semantics with no false negatives: exact probabilities
      // report {pi >= tau}; the Monte-Carlo estimator runs at accuracy
      // tau/2 and reports everyone whose estimate may still reach tau.
      double eps = ExactQuantification()
                       ? 0.0
                       : std::min(config_.eps, spec.tau / 2);
      auto est = ProbabilitiesMany(queries, spec.tau / 2);
      for (size_t i = 0; i < queries.size(); ++i) {
        results[i].ranked =
            query_contract::ThresholdReport(est[i], spec.tau, eps);
      }
      break;
    }
    case QueryType::kTopK: {
      auto est = ProbabilitiesMany(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        query_contract::KeepTopK(&est[i], spec.k);
        results[i].ranked = std::move(est[i]);
      }
      break;
    }
    case QueryType::kNonzeroNn: {
      // NN!=0 is exact on every backend and model: the quantification
      // index's Lemma 2.1 walk on the tree every Engine holds.
      const core::QuantTree& tree = GetQuantTree();
      for (size_t i = 0; i < queries.size(); ++i) {
        if (geom::IsFinite(queries[i])) {
          results[i].ids = tree.NonzeroNn(queries[i]);
        }
      }
      break;
    }
  }
  return results;
}

}  // namespace unn
