#include "core/nn_nonzero_discrete_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pnn_common.h"
#include "geom/lanes.h"
#include "spatial/traverse.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

namespace {
constexpr int kLeafGroups = 4;
}  // namespace

NnNonzeroDiscreteIndex::NnNonzeroDiscreteIndex(
    std::vector<UncertainPoint> points)
    : points_(std::move(points)) {
  UNN_CHECK(!points_.empty());
  std::vector<Vec2> sites;
  // Build-only SoA views of the group SEBs; the augment seals (drops its
  // pointer) when the build finishes, so locals suffice.
  std::vector<Vec2> seb_centers;
  std::vector<double> seb_radii;
  for (size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    UNN_CHECK_MSG(!p.is_disk(), "NnNonzeroDiscreteIndex is for discrete models");
    group_seb_.push_back(geom::SmallestEnclosingCircle(p.sites()));
    seb_centers.push_back(group_seb_.back().center);
    seb_radii.push_back(group_seb_.back().radius);
    for (size_t s = 0; s < p.sites().size(); ++s) {
      sites.push_back(p.sites()[s]);
      site_owner_.push_back(static_cast<int>(i));
      site_weight_.push_back(p.weights()[s]);
    }
  }
  site_tree_ = std::make_unique<range::KdTree>(std::move(sites));
  group_tree_ = spatial::FlatKdTree<spatial::MinAugment>(
      seb_centers,
      {.leaf_size = kLeafGroups, .split = spatial::SplitRule::kAlternate},
      spatial::MinAugment(&seb_radii));
}

DeltaEnvelope NnNonzeroDiscreteIndex::DeltaPair(Vec2 q) const {
  DeltaEnvelope env;
  env.best = std::numeric_limits<double>::infinity();
  env.second = std::numeric_limits<double>::infinity();
  spatial::PrunedVisitOrdered(
      group_tree_,
      [&](int n) { return std::sqrt(group_tree_.box(n).DistSqTo(q)); },
      // Lower bound on Delta_i(q) over the subtree: with SEB (c, R),
      // Delta_i(q) >= sqrt(d(q,c)^2 + R^2) >= sqrt(d(q,box)^2 + r_min^2).
      // Prune against `second` so both smallest values survive.
      [&](int n) {
        double r_min = group_tree_.aug().min(n);
        return std::sqrt(group_tree_.box(n).DistSqTo(q) + r_min * r_min) >=
               env.second;
      },
      [&](int n) {
        for (int i = group_tree_.begin(n); i < group_tree_.end(n); ++i) {
          int g = group_tree_.item(i);
          const geom::Circle& seb = group_seb_[g];
          double group_lb =
              std::sqrt(DistSq(q, seb.center) + seb.radius * seb.radius);
          if (group_lb >= env.second) continue;
          double v = points_[g].MaxDist(q);
          if (v < env.best) {
            env.second = env.best;
            env.best = v;
            env.argbest = g;
          } else {
            env.second = std::min(env.second, v);
          }
        }
      });
  return env;
}

void NnNonzeroDiscreteIndex::DeltaPairBatch(std::span<const Vec2> queries,
                                            std::span<DeltaEnvelope> out,
                                            spatial::BatchStats* stats) const {
  constexpr int kW = geom::kLaneWidth;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The dominant cost of the scalar walk is the hypot-per-site MaxDist
  // evaluation, so the batched walk defers it entirely. Stage A runs the
  // shared traversal on nothing but the group's SEB bracket
  //   sqrt(d(q,c)^2 + R^2) <= Delta_i(q) <= d(q,c) + R
  // and works in SQUARED space (no per-site arithmetic, no SIMD sqrt):
  // each surviving group is collected with its squared lower bound, and
  // the per-lane envelope is maintained over the bracket's UPPER ends,
  // so its `second` certifies an upper bound on the true second-smallest
  // value and every squared `>= second^2` prune discards only groups the
  // scalar walk's own `group_lb >= second` rule would skip (the squared
  // threshold carries one extra rounding, absorbed by inflating it a
  // relative 1e-12 toward "keep"). Stage B then evaluates exact MaxDist
  // in ascending lower-bound order — stopping via exactly the scalar's
  // skip test, `group_lb >= env.second`, which in sorted order holds for
  // every later candidate too — typically two or three hypot
  // evaluations per query, below even the scalar walk's count. The
  // exact envelope is a pure min/second-min over values, so it is
  // traversal-order-independent; the one order-dependent output, the
  // argmin under a minimum tie, replays the scalar walk as everywhere
  // else in the batch scheme. Bit-identical, differentially fuzzed.
  constexpr double kSqBand = 1.0 + 1e-12;
  std::vector<std::pair<double, int>> cand[kW];  // (squared lb, group), tiny.
  for (size_t base = 0; base < queries.size(); base += kW) {
    int count = static_cast<int>(std::min<size_t>(kW, queries.size() - base));
    Vec2 qv[kW];
    double qx[kW], qy[kW];
    for (int l = 0; l < kW; ++l) {
      qv[l] = queries[base + std::min(l, count - 1)];  // Pad ragged packs.
      qx[l] = qv[l].x;
      qy[l] = qv[l].y;
    }
    double best_hi[kW], second_hi[kW], second_hi_sq[kW];
    for (int l = 0; l < kW; ++l) {
      best_hi[l] = kInf;
      second_hi[l] = kInf;
      second_hi_sq[l] = kInf;
      cand[l].clear();
    }
    // Per-lane squared subtree bound d(q,box)^2 + r_min^2 — the scalar's
    // bound arithmetic minus its final sqrt, compared against the
    // inflated squared threshold instead.
    spatial::BatchPrunedVisitNearFirst(
        group_tree_, spatial::FullMask(count),
        [&](int n, double* lb) {
          geom::BoxDistSqLanes(qx, qy, group_tree_.box(n), lb);
          const double r_min = group_tree_.aug().min(n);
          geom::AddScalarLanes(lb, r_min * r_min, lb);
        },
        [&](int l, double lb) { return lb >= second_hi_sq[l]; },
        [&](int n, spatial::LaneMask m) {
          for (int i = group_tree_.begin(n); i < group_tree_.end(n); ++i) {
            int g = group_tree_.item(i);
            const geom::Circle& seb = group_seb_[g];
            double gsq[kW], glb_sq[kW];
            geom::DistSqLanes(qx, qy, seb.center, gsq);
            const double r2 = seb.radius * seb.radius;
            geom::AddScalarLanes(gsq, r2, glb_sq);
            for (int l = 0; l < kW; ++l) {
              if ((m >> l & 1u) == 0) continue;
              if (glb_sq[l] >= second_hi_sq[l]) continue;
              cand[l].push_back({glb_sq[l], g});
              // Upper end of the bracket; the sqrt is scalar and only
              // paid by lanes whose group survived the squared prune.
              double v_hi = std::sqrt(gsq[l]) + seb.radius;
              if (v_hi < best_hi[l]) {
                second_hi[l] = best_hi[l];
                best_hi[l] = v_hi;
              } else if (v_hi < second_hi[l]) {
                second_hi[l] = v_hi;
              } else {
                continue;
              }
              second_hi_sq[l] = second_hi[l] * second_hi[l] * kSqBand;
            }
          }
        },
        stats);
    if (stats != nullptr) ++stats->packs;
    for (int l = 0; l < count; ++l) {
      // Stage B: the exact envelope from the candidate set, tightest
      // lower bound first so the exact second tightens fastest. The
      // break is the scalar walk's own skip rule on the bit-identical
      // group_lb = sqrt(d(q,c)^2 + R^2); in ascending order it holds
      // for every later candidate too (bounds ascend, the exact second
      // never rises), so the rest of the list is provably irrelevant.
      std::sort(cand[l].begin(), cand[l].end());
      DeltaEnvelope env;
      env.best = kInf;
      env.second = kInf;
      for (const auto& [glb_sq, g] : cand[l]) {
        if (std::sqrt(glb_sq) >= env.second) break;
        if (stats != nullptr) ++stats->lane_points_evaluated;
        double v = points_[g].MaxDist(qv[l]);
        if (v < env.best) {
          env.second = env.best;
          env.best = v;
          env.argbest = g;
        } else {
          env.second = std::min(env.second, v);
        }
      }
      // best == second is the only way a minimum tie can exist, and then
      // the argmin is whichever tied group the ordered scalar walk
      // reaches first — replay it. Distinct best/second pin the argmin
      // to the unique minimizer, which the candidate sweep provably
      // found.
      if (env.best == env.second) {
        if (stats != nullptr) ++stats->scalar_replays;
        out[base + l] = DeltaPair(queries[base + l]);
      } else {
        out[base + l] = env;
      }
    }
  }
}

double NnNonzeroDiscreteIndex::Delta(Vec2 q) const { return DeltaPair(q).best; }

std::vector<int> NnNonzeroDiscreteIndex::AssembleFromEnvelope(
    Vec2 q, const DeltaEnvelope& env) const {
  if (points_.size() == 1) return {0};
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
  bool arg_should = points_[env.argbest].MinDist(q) < env.second;
  if (arg_in && !arg_should) {
    out.erase(std::find(out.begin(), out.end(), env.argbest));
  } else if (!arg_in && arg_should) {
    out.insert(std::upper_bound(out.begin(), out.end(), env.argbest),
               env.argbest);
  }
  return out;
}

std::vector<int> NnNonzeroDiscreteIndex::Query(Vec2 q) const {
  return AssembleFromEnvelope(q, DeltaPair(q));
}

NnNonzeroDiscreteIndex::BatchHits NnNonzeroDiscreteIndex::SitesWithinDelta(
    std::span<const Vec2> queries, bool closed,
    spatial::BatchStats* stats) const {
  // Non-finite queries skip both walks; the rest run in pack-coherent
  // (Morton) order, which keeps each pack's lanes pruning together.
  // Per-lane results are pack-independent, so reordering the batch and
  // scattering back is bit-identical (spatial/batch.h).
  std::vector<int> finite_ids;
  std::vector<Vec2> finite;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!geom::IsFinite(queries[i])) continue;
    finite_ids.push_back(static_cast<int>(i));
    finite.push_back(queries[i]);
  }
  BatchHits b;
  b.index = spatial::PackCoherentOrder(finite);
  b.queries.resize(b.index.size());
  for (size_t i = 0; i < b.index.size(); ++i) {
    b.queries[i] = finite[b.index[i]];
    b.index[i] = finite_ids[b.index[i]];
  }
  b.envs.resize(b.queries.size());
  DeltaPairBatch(b.queries, b.envs, stats);
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
  if (points_.size() == 1) {
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
