#ifndef UNN_PROB_DISTRIBUTIONS_H_
#define UNN_PROB_DISTRIBUTIONS_H_

#include <cstdint>
#include <random>
#include <vector>

#include "core/uncertain_point.h"
#include "geom/vec2.h"
#include "util/splitmix64.h"

/// \file distributions.h
/// Sampling from the location distributions of uncertain points: the O(1)
/// instantiation primitive assumed by Theorem 4.5 and used throughout the
/// Monte-Carlo machinery of Section 4.2.

namespace unn {
namespace prob {

/// Uniform sample from the disk (center, radius). `Rng` is std::mt19937_64
/// or util::SplitMix64.
template <class Rng>
geom::Vec2 SampleUniformDisk(Rng& rng, geom::Vec2 center, double radius);

/// Sample from an isotropic Gaussian with sigma = radius / 2, truncated to
/// the disk (rejection; acceptance ~ 0.86).
template <class Rng>
geom::Vec2 SampleTruncatedGaussian(Rng& rng, geom::Vec2 center, double radius);

/// O(log k) weighted sampling from a fixed discrete distribution.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(std::vector<double> weights);
  int Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// One random instantiation of an uncertain point (dispatches on its model).
template <class Rng>
geom::Vec2 SamplePoint(const core::UncertainPoint& p, Rng& rng);

/// The keyed draw of the Monte-Carlo estimator: SamplePoint(p) from the
/// SplitMix64 stream whose state is the j-th output of the stream seeded
/// with the key-th output of the stream seeded with `seed`. It depends on
/// (p, seed, key, j) alone, so a point keyed by its global id draws the
/// same instantiations in every subset that holds it.
geom::Vec2 KeyedSample(const core::UncertainPoint& p, uint64_t seed,
                       uint64_t key, uint64_t j);

/// Draws `count` i.i.d. samples from `p`'s distribution and wraps them as a
/// discrete uncertain point with uniform location probabilities — the
/// continuous-to-discrete reduction of Theorem 4.5 (sample size k(alpha)).
core::UncertainPoint DiscretizeBySampling(const core::UncertainPoint& p,
                                          int count, std::mt19937_64& rng);

}  // namespace prob
}  // namespace unn

#endif  // UNN_PROB_DISTRIBUTIONS_H_
