#ifndef UNN_CORE_PNN_COMMON_H_
#define UNN_CORE_PNN_COMMON_H_

#include <vector>

/// \file pnn_common.h
/// Shared single-pass evaluator for Eq. (2)/(10)/(11): given sites sorted by
/// distance from the query, accumulate each owner's probability of being
/// the nearest neighbor. Maintains f_j = 1 - G_{q,j}(r) per owner and
/// their running product, with exhausted owners (f_j = 0) counted
/// separately so the product is never divided by zero.
///
/// Ties: G is inclusive (G_j(r) = Pr[d(q, P_j) <= r]), so a run of equal
/// distances is one group. Every site of the group first leaves its
/// owner's factor, and then each site at r scores
/// w * prod_{j != owner} (1 - G_j(r)): P_i must be strictly nearest. Then
/// pi_i > 0 exactly when delta_i(q) < min_{j != i} Delta_j(q), Lemma 2.1's
/// NN!=0 rule, and sum_i pi_i < 1 when the nearest distance can tie.

namespace unn {
namespace core {

struct WeightedSite {
  double dist;
  int owner;
  double weight;
};

/// `sites` must be sorted by increasing dist; owners in [0, n). Sites of
/// one distance are processed in the given order, so callers that must
/// agree bit for bit order them the same way (the library sorts by
/// (distance, site id)). Writes the accumulated probabilities into `pi`
/// (resized to n, zero-filled).
/// When `sites` covers all locations this is exactly Eq. (2); on a prefix
/// (spiral search) it is the lower bound hat-pi of Lemma 4.6.
void AccumulateQuantification(const std::vector<WeightedSite>& sites, int n,
                              std::vector<double>* pi);

/// Relative slack on the radius Delta(q) when a caller collects the sites
/// of the closed disk D(q, Delta(q)), Eq. (2)'s whole scoring prefix,
/// through a spatial index: index prunes compare rounded (squared) box
/// distances, which can round past a site at exactly Delta(q). Sites the
/// slack adds lie beyond Delta(q) and score 0; the callers drop them or
/// let the accumulation do so.
inline constexpr double kClosedDiskSlack = 1.0 + 1e-12;

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_PNN_COMMON_H_
