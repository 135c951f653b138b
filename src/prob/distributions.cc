#include "prob/distributions.h"

#include <algorithm>
#include <cmath>

#include "geom/trig.h"
#include "util/check.h"

namespace unn {
namespace prob {

using geom::Vec2;
using util::SplitMix64;

template <class Rng>
Vec2 SampleUniformDisk(Rng& rng, Vec2 center, double radius) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double r = radius * std::sqrt(u(rng));
  double t = geom::kTwoPi * u(rng);
  return center + geom::UnitVec(t) * r;
}

template <class Rng>
Vec2 SampleTruncatedGaussian(Rng& rng, Vec2 center, double radius) {
  std::normal_distribution<double> g(0.0, radius / 2.0);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Vec2 d{g(rng), g(rng)};
    if (NormSq(d) <= radius * radius) return center + d;
  }
  return center;  // Astronomically unlikely; center is always valid.
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights) {
  UNN_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double acc = 0;
  for (double w : weights) {
    acc += w;
    cumulative_.push_back(acc);
  }
  UNN_CHECK(acc > 0);
  cumulative_.back() = std::max(cumulative_.back(), 1.0);
}

int DiscreteSampler::Sample(std::mt19937_64& rng) const {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double x = u(rng) * cumulative_.back();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), x);
  return static_cast<int>(std::min<size_t>(it - cumulative_.begin(),
                                           cumulative_.size() - 1));
}

template <class Rng>
Vec2 SamplePoint(const core::UncertainPoint& p, Rng& rng) {
  if (p.is_disk()) {
    switch (p.pdf()) {
      case core::DiskPdf::kUniform:
        return SampleUniformDisk(rng, p.center(), p.radius());
      case core::DiskPdf::kTruncatedGaussian:
        return SampleTruncatedGaussian(rng, p.center(), p.radius());
    }
  }
  // Discrete: linear CDF walk (k is small; heavy users should hold a
  // DiscreteSampler).
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double x = u(rng);
  double acc = 0;
  const auto& w = p.weights();
  for (size_t i = 0; i < w.size(); ++i) {
    acc += w[i];
    if (x <= acc) return p.sites()[i];
  }
  return p.sites().back();
}

template Vec2 SampleUniformDisk(std::mt19937_64&, Vec2, double);
template Vec2 SampleUniformDisk(SplitMix64&, Vec2, double);
template Vec2 SampleTruncatedGaussian(std::mt19937_64&, Vec2, double);
template Vec2 SampleTruncatedGaussian(SplitMix64&, Vec2, double);
template Vec2 SamplePoint(const core::UncertainPoint&, std::mt19937_64&);
template Vec2 SamplePoint(const core::UncertainPoint&, SplitMix64&);

Vec2 KeyedSample(const core::UncertainPoint& p, uint64_t seed, uint64_t key,
                 uint64_t j) {
  const uint64_t point_seed =
      SplitMix64::Mix(seed + SplitMix64::kGamma * (key + 1));
  SplitMix64 rng(SplitMix64::Mix(point_seed + SplitMix64::kGamma * (j + 1)));
  return SamplePoint(p, rng);
}

core::UncertainPoint DiscretizeBySampling(const core::UncertainPoint& p,
                                          int count, std::mt19937_64& rng) {
  UNN_CHECK(count > 0);
  std::vector<Vec2> sites;
  sites.reserve(count);
  for (int i = 0; i < count; ++i) sites.push_back(SamplePoint(p, rng));
  return core::UncertainPoint::DiscreteUniform(std::move(sites));
}

}  // namespace prob
}  // namespace unn
