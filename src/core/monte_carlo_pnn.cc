#include "core/monte_carlo_pnn.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "prob/distributions.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

namespace {

double NormInf(Vec2 v) { return std::max(std::abs(v.x), std::abs(v.y)); }

}  // namespace

double SupportScale(const std::vector<UncertainPoint>& points) {
  double scale = 0.0;
  for (const UncertainPoint& p : points) {
    if (p.is_disk()) {
      scale = std::max(scale, NormInf(p.center()) + p.radius());
    } else {
      for (Vec2 site : p.sites()) scale = std::max(scale, NormInf(site));
    }
  }
  return scale;
}

double CandidateRadius(double best, Vec2 q, double scale) {
  return best + 1e-9 * best + 16 * DBL_EPSILON * (NormInf(q) + scale);
}

int MonteCarloPnn::RequiredSamples(int n, int k, double eps, double delta) {
  UNN_CHECK(eps > 0 && eps < 1 && delta > 0 && delta < 1);
  // |Q| = O(N^4) distinct query classes (Lemma 4.1), N = nk.
  double big_n = static_cast<double>(n) * std::max(k, 1);
  double log_q = 4.0 * std::log(std::max(big_n, 2.0));
  double s = (std::log(2.0 * n / delta) + log_q) / (2.0 * eps * eps);
  return static_cast<int>(std::ceil(s));
}

MonteCarloPnn::MonteCarloPnn(const QuantTree* tree,
                             const MonteCarloPnnOptions& opts,
                             std::vector<int> keys)
    : tree_(tree), keys_(std::move(keys)) {
  UNN_CHECK(tree_ != nullptr);
  const std::vector<UncertainPoint>& points = tree_->points();
  UNN_CHECK(!points.empty());
  int n = static_cast<int>(points.size());
  if (keys_.empty()) {
    keys_.resize(n);
    std::iota(keys_.begin(), keys_.end(), 0);
  }
  UNN_CHECK(static_cast<int>(keys_.size()) == n);
  {
    std::vector<int> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    auto repeat = std::adjacent_find(sorted.begin(), sorted.end());
    UNN_CHECK_MSG(sorted.front() >= 0 && repeat == sorted.end(),
                  "Monte-Carlo keys must be distinct and non-negative");
  }
  int k = 1;
  for (const auto& p : points) {
    if (!p.is_disk()) k = std::max(k, static_cast<int>(p.sites().size()));
  }
  scale_ = SupportScale(points);
  s_ = opts.s_override > 0 ? opts.s_override
                           : RequiredSamples(n, k, opts.eps, opts.delta);
  samples_.resize(static_cast<size_t>(n) * s_);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < s_; ++j) {
      samples_[static_cast<size_t>(i) * s_ + j] =
          prob::KeyedSample(points[i], opts.seed, keys_[i], j);
    }
  }
}

void MonteCarloPnn::Scan(Vec2 q, int s, std::vector<int>* cand,
                         std::vector<double>* best_d,
                         std::vector<int>* winner) const {
  // Keys are distinct, so equal keys are repeats of one id.
  std::sort(cand->begin(), cand->end(),
            [this](int a, int b) { return keys_[a] < keys_[b]; });
  cand->erase(std::unique(cand->begin(), cand->end()), cand->end());
  // Candidates in increasing key order with a strict `<`: an exact tie
  // keeps the smaller key. The first candidate seeds every instantiation,
  // so each has a winner even when distances are +inf.
  for (size_t c = 0; c < cand->size(); ++c) {
    const Vec2* x = &samples_[static_cast<size_t>((*cand)[c]) * s_];
    for (int j = 0; j < s; ++j) {
      double d = Dist(q, x[j]);
      if (c == 0 || d < (*best_d)[j]) {
        (*best_d)[j] = d;
        (*winner)[j] = static_cast<int>(c);
      }
    }
  }
}

std::vector<std::pair<int, double>> MonteCarloPnn::Query(Vec2 q) const {
  return std::move(QueryBatch({&q, 1})[0]);
}

std::vector<std::vector<std::pair<int, double>>> MonteCarloPnn::QueryBatch(
    std::span<const Vec2> queries, spatial::BatchStats* stats, int s) const {
  if (s == 0) s = s_;
  UNN_CHECK(s > 0 && s <= s_);
  std::vector<std::vector<std::pair<int, double>>> out(queries.size());
  // Scratch reused across the batch: the envelope walks' counters, the
  // candidate ids, each instantiation's best distance and winner (an
  // index into `cand`), and the win count per candidate.
  spatial::TraversalStats walk;
  std::vector<int> cand;
  std::vector<double> best_d(s);
  std::vector<int> winner(s);
  std::vector<int> wins;
  const double count = static_cast<double>(s);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Vec2 q = queries[i];
    if (!geom::IsFinite(q)) continue;
    const DeltaEnvelope env =
        tree_->MaxDistEnvelope(q, stats != nullptr ? &walk : nullptr);
    cand.assign(1, env.argbest);
    tree_->SupportsWithin(q, CandidateRadius(env.best, q, scale_), &cand);
    Scan(q, s, &cand, &best_d, &winner);
    wins.assign(cand.size(), 0);
    for (int w : winner) ++wins[w];
    std::vector<std::pair<int, double>>& dst = out[i];
    for (size_t c = 0; c < cand.size(); ++c) {
      if (wins[c] > 0) dst.push_back({cand[c], wins[c] / count});
    }
    std::sort(dst.begin(), dst.end());
  }
  if (stats != nullptr) stats->AddWalk(walk);
  return out;
}

std::vector<InstantiationWinner> MonteCarloPnn::WinnersAmong(
    std::span<const Vec2> queries,
    std::span<const std::vector<int>> candidates, int s) const {
  UNN_CHECK(s > 0 && s <= s_);
  UNN_CHECK(candidates.size() == queries.size());
  std::vector<InstantiationWinner> out(queries.size() * s);
  std::vector<int> cand;
  std::vector<double> best_d(s);
  std::vector<int> winner(s);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!geom::IsFinite(queries[i]) || candidates[i].empty()) continue;
    cand = candidates[i];
    Scan(queries[i], s, &cand, &best_d, &winner);
    InstantiationWinner* dst = &out[i * s];
    for (int j = 0; j < s; ++j) dst[j] = {best_d[j], keys_[cand[winner[j]]]};
  }
  return out;
}

}  // namespace core
}  // namespace unn
