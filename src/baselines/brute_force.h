#ifndef UNN_BASELINES_BRUTE_FORCE_H_
#define UNN_BASELINES_BRUTE_FORCE_H_

#include <vector>

#include "core/uncertain_point.h"
#include "geom/vec2.h"

/// \file brute_force.h
/// Definition-level baselines. These are the ground truth every data
/// structure in the library is validated against, and the O(n)-per-query
/// comparison lines in the benchmark harness.

namespace unn {
namespace baselines {

/// NN!=0(q) straight from Lemma 2.1: all i with
/// delta_i(q) < min_j Delta_j(q). O(n) per query. Sorted ids.
std::vector<int> NonzeroNn(const std::vector<core::UncertainPoint>& pts,
                           geom::Vec2 q);

/// argmin_i E[d(q, P_i)] straight from the definition: the lexicographic
/// argmin of (prob::ExpectedDistance, id) over every point; -1 for a
/// non-finite q. O(n) per query.
int ExpectedDistanceNn(const std::vector<core::UncertainPoint>& pts,
                       geom::Vec2 q);

/// Exact quantification probabilities pi_i(q) for discrete uncertain points
/// via Eq. (2): sort all N sites by (distance, site id), single
/// accumulating pass (core::AccumulateQuantification, whose tie rule gives
/// pi_i > 0 exactly on NN!=0(q)). Returns a dense vector of size n.
/// O(N log N) per query.
std::vector<double> QuantificationProbabilities(
    const std::vector<core::UncertainPoint>& pts, geom::Vec2 q);

}  // namespace baselines
}  // namespace unn

#endif  // UNN_BASELINES_BRUTE_FORCE_H_
