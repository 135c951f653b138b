#include "core/monte_carlo_pnn.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <random>

#include "prob/distributions.h"
#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

namespace {

double NormInf(Vec2 v) { return std::max(std::abs(v.x), std::abs(v.y)); }

}  // namespace

int MonteCarloPnn::RequiredSamples(int n, int k, double eps, double delta) {
  UNN_CHECK(eps > 0 && eps < 1 && delta > 0 && delta < 1);
  // |Q| = O(N^4) distinct query classes (Lemma 4.1), N = nk.
  double big_n = static_cast<double>(n) * std::max(k, 1);
  double log_q = 4.0 * std::log(std::max(big_n, 2.0));
  double s = (std::log(2.0 * n / delta) + log_q) / (2.0 * eps * eps);
  return static_cast<int>(std::ceil(s));
}

MonteCarloPnn::MonteCarloPnn(std::vector<UncertainPoint> points,
                             const MonteCarloPnnOptions& opts)
    : points_(std::move(points)), quant_(&points_) {
  UNN_CHECK(!points_.empty());
  int n = static_cast<int>(points_.size());
  int k = 1;
  for (const auto& p : points_) {
    if (p.is_disk()) {
      scale_ = std::max(scale_, NormInf(p.center()) + p.radius());
    } else {
      k = std::max(k, static_cast<int>(p.sites().size()));
      for (Vec2 site : p.sites()) scale_ = std::max(scale_, NormInf(site));
    }
  }
  s_ = opts.s_override > 0 ? opts.s_override
                           : RequiredSamples(n, k, opts.eps, opts.delta);
  // Drawn instantiation-major (the documented stream order), stored
  // point-major for the per-candidate sweep.
  std::mt19937_64 rng(opts.seed);
  samples_.resize(static_cast<size_t>(n) * s_);
  for (int j = 0; j < s_; ++j) {
    for (int i = 0; i < n; ++i) {
      samples_[static_cast<size_t>(i) * s_ + j] =
          prob::SamplePoint(points_[i], rng);
    }
  }
}

std::vector<std::pair<int, double>> MonteCarloPnn::Query(Vec2 q) const {
  return std::move(QueryBatch({&q, 1})[0]);
}

std::vector<std::vector<std::pair<int, double>>> MonteCarloPnn::QueryBatch(
    std::span<const Vec2> queries, spatial::BatchStats* stats) const {
  // The envelope pass shares packs, so it runs in pack-coherent (Morton)
  // order; the sweep is per query and scatters back by index.
  std::vector<int> order = spatial::PackCoherentOrder(queries);
  std::vector<Vec2> sorted(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) sorted[i] = queries[order[i]];
  std::vector<DeltaEnvelope> envs(queries.size());
  quant_.MaxDistEnvelopeBatch(sorted, envs, stats);

  std::vector<std::vector<std::pair<int, double>>> out(queries.size());
  // Scratch reused across the batch: the candidate ids, each
  // instantiation's best distance and winner (an index into `cand`), and
  // the per-candidate win counts.
  std::vector<int> cand;
  std::vector<double> best_d(s_);
  std::vector<int> winner(s_);
  std::vector<int> wins;
  const double s = static_cast<double>(s_);
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Vec2 q = sorted[i];
    const DeltaEnvelope& env = envs[i];
    if (!geom::IsFinite(q)) continue;
    // The guard band of the header's soundness argument.
    const double r = env.best + 1e-9 * env.best +
                     16 * DBL_EPSILON * (NormInf(q) + scale_);
    cand.assign(1, env.argbest);
    quant_.SupportsWithin(q, r, &cand);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    // Candidates in increasing id order with a strict `<`: an exact tie
    // keeps the smaller id. The first candidate seeds every
    // instantiation, so each has a winner even when distances are +inf.
    for (size_t c = 0; c < cand.size(); ++c) {
      const Vec2* x = &samples_[static_cast<size_t>(cand[c]) * s_];
      for (int j = 0; j < s_; ++j) {
        double d = Dist(q, x[j]);
        if (c == 0 || d < best_d[j]) {
          best_d[j] = d;
          winner[j] = static_cast<int>(c);
        }
      }
    }
    wins.assign(cand.size(), 0);
    for (int j = 0; j < s_; ++j) ++wins[winner[j]];
    std::vector<std::pair<int, double>>& dst = out[order[i]];
    for (size_t c = 0; c < cand.size(); ++c) {
      if (wins[c] > 0) dst.push_back({cand[c], wins[c] / s});
    }
  }
  return out;
}

}  // namespace core
}  // namespace unn
