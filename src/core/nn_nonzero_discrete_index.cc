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
  // Stage one per finite query, in the caller's order: Engine::QueryMany
  // and serve::QueryMany hand over Morton-sorted packs. A non-finite
  // query skips both walks and gets no estimates.
  std::vector<int> index;
  std::vector<Vec2> finite;
  std::vector<double> delta;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!geom::IsFinite(queries[i])) continue;
    index.push_back(static_cast<int>(i));
    finite.push_back(queries[i]);
    delta.push_back(tree_->MaxDistEnvelope(queries[i]).best);
  }
  // Stage two batched: one shared range walk per pack over the closed disk
  // of radius Delta(q), widened so index rounding loses no site at exactly
  // Delta(q); the hit list per lane is RangeCircle's verbatim.
  std::vector<double> radii(delta.size());
  for (size_t i = 0; i < radii.size(); ++i) {
    radii[i] = delta[i] * kClosedDiskSlack;
  }
  std::vector<std::vector<int>> hits;
  site_tree_->RangeCircleBatch(finite, radii, &hits, stats);
  std::vector<std::vector<std::pair<int, double>>> out(queries.size());
  for (size_t i = 0; i < index.size(); ++i) {
    out[index[i]] = QuantifyHits(finite[i], delta[i], &hits[i]);
  }
  return out;
}

}  // namespace core
}  // namespace unn
