#include "serve/shard_merge.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/exact_pnn.h"
#include "core/pnn_common.h"
#include "util/check.h"

namespace unn {
namespace serve {

core::DeltaEnvelope MergeEnvelopes(std::span<const core::DeltaEnvelope> local,
                                   std::span<const ShardView> shards) {
  // DeltaEnvelope::Insert ties toward the smaller global id, so the merge
  // reproduces the single-Engine scan's argbest exactly even when
  // duplicates of the minimum split across shards.
  UNN_CHECK(local.size() == shards.size());
  core::DeltaEnvelope out;
  out.best = std::numeric_limits<double>::infinity();
  out.second = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < local.size(); ++s) {
    MergeEnvelopeInto(&out, local[s], shards[s]);
  }
  return out;
}

void MergeEnvelopeInto(core::DeltaEnvelope* merged,
                       const core::DeltaEnvelope& local,
                       const ShardView& shard) {
  if (local.argbest < 0) return;  // Shard with no envelope sample.
  merged->Insert(local.best, (*shard.global_ids)[local.argbest]);
  // The local runner-up has no id (anonymous): it can only tighten
  // `second`, never take the argmin.
  if (std::isfinite(local.second)) merged->Insert(local.second, -1);
}

std::vector<int> MergeNonzero(std::span<const ShardView> shards,
                              std::span<const std::vector<int>> local_nonzero,
                              std::span<const core::DeltaEnvelope> local_env,
                              geom::Vec2 q) {
  UNN_CHECK(local_nonzero.size() == shards.size());
  core::DeltaEnvelope env = MergeEnvelopes(local_env, shards);
  std::vector<int> out;
  for (size_t s = 0; s < shards.size(); ++s) {
    const auto& pts = shards[s].engine->points();
    for (int lid : local_nonzero[s]) {
      int gid = (*shards[s].global_ids)[lid];
      double threshold = env.ThresholdFor(gid);
      if (!std::isfinite(threshold) || pts[lid].MinDist(q) < threshold) {
        out.push_back(gid);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int MergeExpected(std::span<const ExpectedCandidate> winners) {
  int best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (const ExpectedCandidate& w : winners) {
    if (w.global_id < 0) continue;
    if (w.expected_dist < best_d ||
        (w.expected_dist == best_d && w.global_id < best)) {
      best_d = w.expected_dist;
      best = w.global_id;
    }
  }
  return best;
}

std::vector<std::pair<int, double>> MergeInstantiationWinners(
    std::span<const std::span<const core::InstantiationWinner>> local) {
  // A shard with no winners (an empty span, or key -1: no candidates or a
  // non-finite query) is the identity of the minimum; every other shard
  // has a winner in every instantiation.
  std::vector<std::span<const core::InstantiationWinner>> live;
  for (const auto& w : local) {
    if (!w.empty() && w[0].key >= 0) live.push_back(w);
  }
  if (live.empty()) return {};
  const size_t s = live[0].size();
  // Tally the winners into the list of distinct keys, then sort only that
  // list. The list holds at most the candidates the shards swept, and each
  // sweep already costs O(s) per candidate, so the linear lookup never
  // dominates; a query usually has a handful.
  std::vector<std::pair<int, int>> tally;  // (key, wins)
  for (size_t j = 0; j < s; ++j) {
    core::InstantiationWinner best = live[0][j];
    for (size_t k = 1; k < live.size(); ++k) {
      const core::InstantiationWinner& w = live[k][j];
      if (w.dist < best.dist || (w.dist == best.dist && w.key < best.key)) {
        best = w;
      }
    }
    auto it = std::find_if(tally.begin(), tally.end(),
                           [&](const auto& t) { return t.first == best.key; });
    if (it == tally.end()) {
      tally.push_back({best.key, 1});
    } else {
      ++it->second;
    }
  }
  std::sort(tally.begin(), tally.end());
  std::vector<std::pair<int, double>> out;
  out.reserve(tally.size());
  const double count = static_cast<double>(s);
  for (auto [key, wins] : tally) out.push_back({key, wins / count});
  return out;
}

namespace {

struct Cand {
  int gid;
  const core::UncertainPoint* pt;
};

/// Sorts `cands` by global id and drops repeats.
void SortUnique(std::vector<Cand>* cands) {
  std::sort(cands->begin(), cands->end(),
            [](const Cand& a, const Cand& b) { return a.gid < b.gid; });
  cands->erase(std::unique(cands->begin(), cands->end(),
                           [](const Cand& a, const Cand& b) {
                             return a.gid == b.gid;
                           }),
               cands->end());
}

std::vector<core::UncertainPoint> UnionPoints(const std::vector<Cand>& cands) {
  std::vector<core::UncertainPoint> pts;
  pts.reserve(cands.size());
  for (const Cand& c : cands) pts.push_back(*c.pt);
  return pts;
}

/// (union index, pi) -> (global id, pi). `local` is sorted by union index
/// and union indices are sorted by global id, so the result is too.
std::vector<std::pair<int, double>> ToGlobal(
    const std::vector<Cand>& cands,
    const std::vector<std::pair<int, double>>& local) {
  std::vector<std::pair<int, double>> out;
  out.reserve(local.size());
  for (const auto& [uid, pi] : local) out.push_back({cands[uid].gid, pi});
  return out;
}

}  // namespace

MergedProbabilities MergeDiscreteProbabilities(
    std::span<const ShardView> shards,
    std::span<const std::vector<int>> local_candidates, double delta,
    geom::Vec2 q) {
  UNN_CHECK(local_candidates.size() == shards.size());
  if (!geom::IsFinite(q)) return {};
  // Every point with a site in the closed disk of radius Delta(q), the
  // merged envelope: exactly the sites the single-Engine quantifier
  // sweeps, whatever the shard backends. A point whose nearest site lies
  // exactly at Delta(q) is outside NN!=0 yet lowers the argmin's survival
  // factor at r = Delta(q), so positive-probability lists would not do.
  const double radius = delta * core::kClosedDiskSlack;
  std::vector<Cand> cands;
  for (size_t s = 0; s < shards.size(); ++s) {
    const auto& pts = shards[s].engine->points();
    for (int lid : local_candidates[s]) {
      if (pts[lid].MinDist(q) <= radius) {
        cands.push_back({(*shards[s].global_ids)[lid], &pts[lid]});
      }
    }
  }
  SortUnique(&cands);
  MergedProbabilities out;
  if (cands.empty()) return out;
  out.probs =
      ToGlobal(cands, core::DiscreteQuantification(UnionPoints(cands), q));
  return out;
}

MergedProbabilities MergeProbabilities(
    std::span<const ShardView> shards,
    std::span<const std::vector<std::pair<int, double>>> local_probs,
    std::span<const core::DeltaEnvelope> local_env, geom::Vec2 q,
    const Engine::Config& config, double /*eps*/) {
  UNN_CHECK(local_probs.size() == shards.size());
  UNN_CHECK(local_env.size() == shards.size());
  // A non-finite query has no estimates on any shard backend; the merge
  // keeps that rule instead of re-quantifying the envelope argmins.
  if (!geom::IsFinite(q)) return {};

  // Candidate union: every shard's positive-probability candidates plus
  // its envelope argmin (the latter pins the union's Delta envelope to the
  // global one, so points outside the union provably cannot contribute —
  // their survival factor is exactly 1 below the global envelope).
  std::vector<Cand> cands;
  for (size_t s = 0; s < shards.size(); ++s) {
    const auto& pts = shards[s].engine->points();
    const auto& gids = *shards[s].global_ids;
    for (const auto& [lid, pi] : local_probs[s]) {
      cands.push_back({gids[lid], &pts[lid]});
    }
    if (local_env[s].argbest >= 0) {
      cands.push_back({gids[local_env[s].argbest], &pts[local_env[s].argbest]});
    }
  }
  SortUnique(&cands);

  MergedProbabilities out;
  if (cands.empty()) return out;
  bool all_discrete = true;
  bool all_disk = true;
  for (const Cand& c : cands) {
    all_discrete = all_discrete && !c.pt->is_disk();
    all_disk = all_disk && c.pt->is_disk();
  }
  UNN_CHECK_MSG(all_discrete || all_disk,
                "a mixed set takes the Monte-Carlo min-merge");
  // The accumulation/integration over the union IS the product over every
  // union point's survival function: the per-shard survival-product
  // recombination.
  std::vector<core::UncertainPoint> union_pts = UnionPoints(cands);
  std::vector<std::pair<int, double>> local;  // (union index, pi)
  if (all_discrete) {
    local = core::DiscreteQuantification(union_pts, q);
  } else {
    local = core::IntegrateAllQuantifications(union_pts, q, config.tol);
  }
  out.probs = ToGlobal(cands, local);
  return out;
}

}  // namespace serve
}  // namespace unn
