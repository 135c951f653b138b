#include "core/nn_nonzero_discrete_index.h"

#include <algorithm>

#include "core/pnn_common.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

NnNonzeroDiscreteIndex::NnNonzeroDiscreteIndex(const QuantTree* tree)
    : tree_(tree) {
  UNN_CHECK(tree_ != nullptr && tree_->size() > 0);
  std::vector<Vec2> sites;
  for (size_t i = 0; i < points().size(); ++i) {
    const auto& p = points()[i];
    UNN_CHECK_MSG(!p.is_disk(), "NnNonzeroDiscreteIndex is for discrete models");
    for (size_t s = 0; s < p.sites().size(); ++s) {
      sites.push_back(p.sites()[s]);
      site_owner_.push_back(static_cast<int>(i));
      site_weight_.push_back(p.weights()[s]);
    }
  }
  site_tree_ = std::make_unique<range::KdTree>(std::move(sites));
}

std::vector<int> NnNonzeroDiscreteIndex::AssembleFromEnvelope(
    Vec2 q, const DeltaEnvelope& env) const {
  if (points().size() == 1) return {0};
  // Owners other than the argmin qualify iff delta_i < best (their
  // j != i threshold); the argmin's threshold is `second`.
  std::vector<int> hits;
  site_tree_->RangeCircle(q, env.best, &hits, /*inclusive=*/false);
  return AssembleFromHits(q, env, hits);
}

std::vector<int> NnNonzeroDiscreteIndex::AssembleFromHits(
    Vec2 q, const DeltaEnvelope& env, const std::vector<int>& hits) const {
  std::vector<int> out;
  out.reserve(hits.size());
  for (int h : hits) out.push_back(site_owner_[h]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // A query with a NaN or infinite coordinate fails every envelope
  // comparison, so the envelope has no argmin to adjust.
  if (env.argbest < 0) return out;
  bool arg_in = std::binary_search(out.begin(), out.end(), env.argbest);
  bool arg_should = points()[env.argbest].MinDist(q) < env.second;
  if (arg_in && !arg_should) {
    out.erase(std::find(out.begin(), out.end(), env.argbest));
  } else if (!arg_in && arg_should) {
    out.insert(std::upper_bound(out.begin(), out.end(), env.argbest),
               env.argbest);
  }
  return out;
}

std::vector<int> NnNonzeroDiscreteIndex::Query(Vec2 q) const {
  return AssembleFromEnvelope(q, tree_->MaxDistEnvelope(q));
}

NnNonzeroDiscreteIndex::BatchHits NnNonzeroDiscreteIndex::SitesWithinDelta(
    std::span<const Vec2> queries, bool closed,
    spatial::BatchStats* stats) const {
  // Non-finite queries skip both walks. The rest keep the caller's order:
  // Engine::QueryMany and serve::QueryMany hand over Morton-sorted packs.
  BatchHits b;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!geom::IsFinite(queries[i])) continue;
    b.index.push_back(static_cast<int>(i));
    b.queries.push_back(queries[i]);
    b.envs.push_back(tree_->MaxDistEnvelope(queries[i]));
  }
  // Stage two batched: one shared range walk per pack with per-query
  // radius Delta(q); the hit list per lane is RangeCircle's verbatim.
  std::vector<double> radii(b.queries.size());
  for (size_t i = 0; i < radii.size(); ++i) {
    radii[i] = closed ? b.envs[i].best * kClosedDiskSlack : b.envs[i].best;
  }
  site_tree_->RangeCircleBatch(b.queries, radii, &b.hits, /*inclusive=*/closed,
                               stats);
  return b;
}

std::vector<std::vector<int>> NnNonzeroDiscreteIndex::QueryBatch(
    std::span<const Vec2> queries, spatial::BatchStats* stats) const {
  std::vector<std::vector<int>> out(queries.size());
  if (points().size() == 1) {
    for (auto& o : out) o = {0};
    return out;
  }
  // A non-finite query's scalar answer is empty (its envelope is infinite
  // with no argmin and the open disk holds no site), as `out` already is.
  BatchHits b = SitesWithinDelta(queries, /*closed=*/false, stats);
  for (size_t i = 0; i < b.index.size(); ++i) {
    out[b.index[i]] = AssembleFromHits(b.queries[i], b.envs[i], b.hits[i]);
  }
  return out;
}

std::vector<std::pair<int, double>> NnNonzeroDiscreteIndex::QuantifyHits(
    Vec2 q, double delta, std::vector<int>* hits) const {
  // Site ids ascend owner by owner, so sorting them numbers the owners
  // 0..c-1 in increasing id order and lists each owner's sites in site
  // order; the stable sort by distance then yields (distance, site id),
  // the order of the full Eq. (2) pass.
  std::sort(hits->begin(), hits->end());
  std::vector<int> owners;
  std::vector<WeightedSite> sites;
  sites.reserve(hits->size());
  for (int h : *hits) {
    double d = Dist(q, site_tree_->point(h));
    if (!(d <= delta)) continue;
    int owner = site_owner_[h];
    if (owners.empty() || owners.back() != owner) owners.push_back(owner);
    sites.push_back(
        {d, static_cast<int>(owners.size()) - 1, site_weight_[h]});
  }
  std::stable_sort(sites.begin(), sites.end(),
                   [](const WeightedSite& a, const WeightedSite& b) {
                     return a.dist < b.dist;
                   });
  std::vector<double> pi;
  AccumulateQuantification(sites, static_cast<int>(owners.size()), &pi);
  std::vector<std::pair<int, double>> out;
  for (size_t c = 0; c < owners.size(); ++c) {
    if (pi[c] > 0) out.push_back({owners[c], pi[c]});
  }
  return out;
}

std::vector<std::vector<std::pair<int, double>>>
NnNonzeroDiscreteIndex::ProbabilitiesBatch(std::span<const Vec2> queries,
                                           spatial::BatchStats* stats) const {
  std::vector<std::vector<std::pair<int, double>>> out(queries.size());
  BatchHits b = SitesWithinDelta(queries, /*closed=*/true, stats);
  for (size_t i = 0; i < b.index.size(); ++i) {
    out[b.index[i]] = QuantifyHits(b.queries[i], b.envs[i].best, &b.hits[i]);
  }
  return out;
}

}  // namespace core
}  // namespace unn
