#ifndef UNN_ENGINE_QUERY_CONTRACT_H_
#define UNN_ENGINE_QUERY_CONTRACT_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "geom/vec2.h"

/// \file query_contract.h
/// The batched-query contract shared by every QueryMany implementation
/// (Engine, ShardedEngine): one definition of the presentation order for
/// ranking queries, one classification of degenerate spec parameters, and
/// one definition of the degenerate-parameter answers, so the sharded
/// path, the unsharded path, the serving layer's result-cache keying and
/// its admission control cannot drift. See docs/QUERY_SEMANTICS.md for
/// the contract in prose.

namespace unn {
namespace query_contract {

/// What a QuerySpec's parameters mean for dispatch. Exactly one
/// definition of "degenerate" exists in the library; Engine::QueryMany,
/// ShardedEngine::QueryMany, the serving result cache (degenerate specs
/// are never cached) and QueryServer admission control (definition-level
/// answers are never shed) all consult it.
enum class SpecClass {
  /// Regular parameters: dispatch to a backend.
  kRegular,
  /// The answer is empty by definition, touching no backend: `kTopK` with
  /// `k <= 0`, `kThreshold` with `tau > 1` or NaN tau (no pi exceeds 1),
  /// or a QueryType value outside the defined set.
  kTrivialEmpty,
  /// `kThreshold` with `tau <= 0`: every id qualifies (every pi_i >= 0),
  /// answered from one batched probabilities pass.
  kTrivialAll,
};

inline SpecClass Classify(const Engine::QuerySpec& spec) {
  switch (spec.type) {
    case Engine::QueryType::kMostProbableNn:
    case Engine::QueryType::kExpectedDistanceNn:
    case Engine::QueryType::kNonzeroNn:
      return SpecClass::kRegular;
    case Engine::QueryType::kTopK:
      return spec.k <= 0 ? SpecClass::kTrivialEmpty : SpecClass::kRegular;
    case Engine::QueryType::kThreshold:
      // `!(tau <= 1)` rather than `tau > 1` so a NaN tau lands in the
      // empty class instead of falling through to the backend.
      if (!(spec.tau <= 1)) return SpecClass::kTrivialEmpty;
      if (spec.tau <= 0) return SpecClass::kTrivialAll;
      return SpecClass::kRegular;
  }
  // A QueryType cast from an out-of-range integer: defined empty answer
  // instead of undefined dispatch.
  return SpecClass::kTrivialEmpty;
}

/// Presentation order of every ranking query: by decreasing estimate,
/// ties toward the smaller id.
inline void SortByEstimate(std::vector<std::pair<int, double>>* v) {
  std::sort(v->begin(), v->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

/// MostProbableNn over one id-sorted estimate list: the largest estimate,
/// ties toward the smaller id (`>` keeps the first); -1 when empty.
inline int MostProbable(const std::vector<std::pair<int, double>>& est) {
  int best = -1;
  double best_pi = -1.0;
  for (auto [id, pi] : est) {
    if (pi > best_pi) {
      best = id;
      best_pi = pi;
    }
  }
  return best;
}

/// Threshold over one estimate list ([DYM+05], no false negatives): every
/// pair whose estimate plus the estimator's `slack` reaches `tau`, in
/// presentation order.
inline std::vector<std::pair<int, double>> ThresholdReport(
    const std::vector<std::pair<int, double>>& est, double tau, double slack) {
  std::vector<std::pair<int, double>> out;
  for (auto [id, pi] : est) {
    if (pi + slack >= tau) out.push_back({id, pi});
  }
  SortByEstimate(&out);
  return out;
}

/// TopK over one estimate list, in place: the k best pairs in
/// presentation order.
inline void KeepTopK(std::vector<std::pair<int, double>>* est, int k) {
  SortByEstimate(est);
  if (static_cast<int>(est->size()) > k) est->resize(k);
}

/// Answers the degenerate-parameter cases of QueryMany definition-level,
/// per Classify above: empty span and `kTrivialEmpty` specs are answered
/// with default results touching no backend; `kTrivialAll` reports every
/// id of the `n`-point dataset with its estimate, where
/// `probabilities_many(queries)` supplies each query's positive
/// (id, estimate) pairs in one batched pass. Returns true when the whole
/// batch was answered into `results`; false when the spec is kRegular and
/// `results` holds default-initialized slots for the caller to fill.
template <class ProbManyFn>
bool AnswerDegenerate(std::span<const geom::Vec2> queries,
                      const Engine::QuerySpec& spec, int n,
                      const ProbManyFn& probabilities_many,
                      std::vector<Engine::QueryResult>* results) {
  results->assign(queries.size(), Engine::QueryResult{});
  if (queries.empty()) return true;
  SpecClass cls = Classify(spec);
  if (cls == SpecClass::kTrivialEmpty) return true;
  if (cls == SpecClass::kTrivialAll) {
    // Every pi_i(q) >= 0 >= tau: report all ids with their estimates. The
    // id skeleton is built once for the whole batch; each query copies it
    // (ids and zero estimates in one memcpy-able stroke) instead of
    // re-deriving the O(n) id list, and then overwrites estimates in
    // place — the per-query content and ordering are bit-identical to
    // building the list from scratch.
    std::vector<std::pair<int, double>> skeleton(n);
    for (int id = 0; id < n; ++id) skeleton[id] = {id, 0.0};
    std::vector<std::vector<std::pair<int, double>>> est =
        probabilities_many(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<std::pair<int, double>> full = skeleton;
      for (auto [id, pi] : est[i]) full[id].second = pi;
      SortByEstimate(&full);
      (*results)[i].ranked = std::move(full);
    }
    return true;
  }
  return false;
}

}  // namespace query_contract
}  // namespace unn

#endif  // UNN_ENGINE_QUERY_CONTRACT_H_
