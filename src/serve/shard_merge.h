#ifndef UNN_SERVE_SHARD_MERGE_H_
#define UNN_SERVE_SHARD_MERGE_H_

#include <span>
#include <utility>
#include <vector>

#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "geom/vec2.h"

/// \file shard_merge.h
/// Pure answer-recombination primitives for sharded serving: given
/// per-shard answers from K independent Engines that together own one
/// logical point set, produce the global answer with per-query-type
/// semantics (docs/QUERY_SEMANTICS.md has the full contract). The
/// shard-local inputs come from ShardedEngine's envelope-first plan: the
/// shard envelopes merge into Delta(q) first (MergeEnvelopes), and shard
/// k's candidates C_k(q) are its supports within Delta(q) plus the
/// Monte-Carlo guard band. A shard with C_k(q) empty is not run; it adds
/// the identity of every merge below.
///
///   * expected-distance NN    — min-merge of per-shard (argmin, value);
///   * NN!=0                   — union of the C_k(q), filtered by the
///                               merged Delta envelope (exact);
///   * Monte-Carlo probability — per-instantiation min-merge
///     queries                   (MergeInstantiationWinners): draws are
///                               keyed by global id, so the winner of
///                               instantiation j over the union is the
///                               smallest per-shard (distance, id) winner,
///                               and the merged counts are bit-identical
///                               to one Engine's. O(K s), no point copies;
///   * exact probability       — re-quantification over a candidate union
///     queries                   that holds every point able to affect the
///                               answer: under independent points the
///                               survival function of the whole set
///                               factors into per-shard survival
///                               products. The union is every point
///                               within the merged Delta(q), taken from
///                               the C_k(q) (MergeDiscreteProbabilities,
///                               the merge of a kAuto discrete set,
///                               bit-identical to one Engine).
///
/// MergeProbabilities, the Eq. (1) re-integration over per-shard
/// candidates, has no library caller: no backend quantifies disks
/// exactly. It stays while perfbench times it, and goes with the
/// benchmark change that retargets that probe (ROADMAP item 5).
///
/// Every function here is stateless and reads only const Engine state, so
/// all of them are thread-safe and may run concurrently with each other
/// and with shard queries. None of them builds Engine structures beyond
/// what the per-shard calls already built.

namespace unn {
namespace serve {

/// One shard as the merge layer sees it: a (thread-safe) Engine over a
/// subset of the dataset plus that subset's global ids — global_ids[j] is
/// the dataset id of the shard's local point j. Both pointees must
/// outlive the view.
struct ShardView {
  const Engine* engine = nullptr;
  const std::vector<int>* global_ids = nullptr;
};

/// Merges per-shard Delta envelopes (Engine::MaxDistEnvelope) into the
/// global envelope: the two smallest max-distances over the whole dataset
/// are among the per-shard two smallest. The returned argbest is a GLOBAL
/// id (unlike Engine::MaxDistEnvelope, whose argbest is shard-local), with
/// minimum-value ties broken toward the smaller global id — identical to
/// the single-Engine scan whenever each shard's id list is ascending (as
/// PartitionPoints produces), even for coincident supports split across
/// shards. O(K); thread-safe.
core::DeltaEnvelope MergeEnvelopes(std::span<const core::DeltaEnvelope> local,
                                   std::span<const ShardView> shards);

/// The step MergeEnvelopes repeats per shard: folds shard `shard`'s
/// envelope `local` into `merged` (best/second start at +infinity). The
/// result after every shard does not depend on the order. O(1).
void MergeEnvelopeInto(core::DeltaEnvelope* merged,
                       const core::DeltaEnvelope& local,
                       const ShardView& shard);

/// Exact NN!=0 merge, Lemma 2.1 over the union. `local_nonzero[s]` holds
/// shard-local ids, in any order, and must contain shard s's slice of the
/// global answer. ShardedEngine passes its plan's C_k(q), the supports
/// within the merged Delta(q) plus a guard band: a global answer id i has
/// delta_i(q) below Delta(q), or is the global argmin, whose delta_i <=
/// Delta_i is Delta(q) itself. A shard's local NN!=0 answer qualifies
/// too. Filtering the union by the merged envelope's per-id threshold (the
/// runner-up for the global argmin) recovers exactly the single-Engine
/// answer. Returns sorted global ids. O(sum of candidate sizes + K);
/// thread-safe.
std::vector<int> MergeNonzero(std::span<const ShardView> shards,
                              std::span<const std::vector<int>> local_nonzero,
                              std::span<const core::DeltaEnvelope> local_env,
                              geom::Vec2 q);

/// One shard's expected-distance winner: its local argmin as a global id
/// plus E[d(q, P_i)] for that point (Engine::ExpectedDistance). The plan
/// merges only when two or more shards hold a candidate; with one, its
/// local argmin is the answer.
struct ExpectedCandidate {
  int global_id = -1;
  double expected_dist = 0.0;
};

/// Min-merge for the expected-distance NN: the global argmin is the shard
/// winner with the smallest expected distance (ties toward the smaller
/// global id): the lexicographic argmin of the per-shard (E[d], id) pairs,
/// which are the same deterministic values one Engine computes (exact to
/// rounding for uniform disks, within 1e-9 relative for truncated
/// Gaussians). O(K); thread-safe.
int MergeExpected(std::span<const ExpectedCandidate> winners);

/// Result of a cross-shard exact re-quantification.
struct MergedProbabilities {
  /// (global id, pi) sorted by increasing id.
  std::vector<std::pair<int, double>> probs;
};

/// The Monte-Carlo min-merge. `local[s]` holds shard s's winners of
/// instantiations 0..s-1 for one query (Engine::MonteCarloWinnersMany at
/// the whole set's sample count, keys = global ids). Instantiation j's
/// winner over the union is the smallest (distance, global id) pair over
/// the shards; the result is (global id, wins / s) for every id that wins
/// at least once, sorted by id, exactly as one Engine over the whole set
/// counts. A shard with no winners — an empty span, or key -1 (no
/// candidates, or a non-finite query) — is skipped wherever it sits, as
/// the identity of the minimum; when no shard has a winner the merge has
/// no estimates. O(K s + s w + w log w) for w distinct winners;
/// thread-safe.
std::vector<std::pair<int, double>> MergeInstantiationWinners(
    std::span<const std::span<const core::InstantiationWinner>> local);

/// Re-quantification for a set whose shards are all discrete. `delta` is
/// the merged Delta(q) (MergeEnvelopes(...).best) and
/// `local_candidates[s]` holds shard-local ids, a superset of shard s's
/// points whose support meets the closed disk of radius Delta(q) (the
/// plan passes its C_k(q), whose guard band exceeds the closed-disk
/// slack). The merge keeps exactly those points, so the accumulation
/// sweeps exactly the sites the single-Engine quantifier sweeps, in the
/// same order: the answer is bit-identical to one Engine's exact
/// probabilities. Cost: O(U log U) for a union of total site count U. A
/// query with a NaN or infinite coordinate merges to no estimates.
/// Thread-safe.
MergedProbabilities MergeDiscreteProbabilities(
    std::span<const ShardView> shards,
    std::span<const std::vector<int>> local_candidates, double delta,
    geom::Vec2 q);

/// Candidate-union re-quantification by the definitions (no library
/// caller; see the file comment): `local_probs[s]` are shard s's
/// (local id, pi) candidates, complete when exact; `local_env[s]`
/// its Delta envelope — each shard's envelope argmin joins the union so
/// the union's own envelope equals the global one, which makes the
/// re-quantification self-truncating (omitted points have min-distance at
/// least the global envelope, i.e. survival exactly 1 over every
/// integration range). A disk union is re-integrated by Eq. (1) at
/// config.tol, a discrete one accumulated by Eq. (2) (which can miss a
/// point whose nearest site lies exactly at Delta(q);
/// MergeDiscreteProbabilities is the exact discrete merge). The union must
/// not mix models. `eps` is unused. Cost: adaptive quadrature per disk
/// candidate, O(U log U) for a discrete union of U sites. A query with a
/// NaN or infinite coordinate merges to no estimates, as every Engine
/// backend answers it. Thread-safe.
MergedProbabilities MergeProbabilities(
    std::span<const ShardView> shards,
    std::span<const std::vector<std::pair<int, double>>> local_probs,
    std::span<const core::DeltaEnvelope> local_env, geom::Vec2 q,
    const Engine::Config& config, double eps);

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_SHARD_MERGE_H_
