#ifndef UNN_CORE_UNCERTAIN_POINT_H_
#define UNN_CORE_UNCERTAIN_POINT_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/vec2.h"
#include "util/check.h"

/// \file uncertain_point.h
/// The library's data model (Section 1.1 of the paper). An uncertain point
/// is either
///   * continuous — a pdf with bounded support; the support is a disk
///     (center, radius) and the pdf is one of a small family (uniform,
///     truncated Gaussian); every structural result (Section 2/3) depends
///     only on the support disk, and only the Section-4 estimators look at
///     the pdf; or
///   * discrete — k locations with probabilities summing to 1.

namespace unn {
namespace core {

/// Probability model over a disk support (only consulted by the
/// quantification-probability machinery; NN!=0 structures ignore it).
enum class DiskPdf {
  kUniform,            ///< Uniform over the disk.
  kTruncatedGaussian,  ///< Isotropic Gaussian truncated to the disk;
                       ///< sigma = radius / 2 (as in [BSI08, CCMC08]).
};

class UncertainPoint {
 public:
  /// Continuous uncertain point with disk support.
  static UncertainPoint Disk(geom::Vec2 center, double radius,
                             DiskPdf pdf = DiskPdf::kUniform) {
    UNN_CHECK(radius > 0);
    UncertainPoint p;
    p.is_disk_ = true;
    p.center_ = center;
    p.radius_ = radius;
    p.pdf_ = pdf;
    return p;
  }

  /// Discrete uncertain point; weights must be positive and sum to 1
  /// (checked up to 1e-9). They are stored divided by their sum, so the
  /// point's survival factor in Eq. (2) reaches 0 at its last site within
  /// rounding, far below the quantifier's 1e-13 exhaustion cut.
  static UncertainPoint Discrete(std::vector<geom::Vec2> sites,
                                 std::vector<double> weights) {
    UNN_CHECK(!sites.empty());
    UNN_CHECK(sites.size() == weights.size());
    double total = 0;
    for (double w : weights) {
      UNN_CHECK(w > 0);
      total += w;
    }
    UNN_CHECK_MSG(total > 1 - 1e-9 && total < 1 + 1e-9,
                  "discrete weights must sum to 1");
    for (double& w : weights) w /= total;
    UncertainPoint p;
    p.is_disk_ = false;
    p.sites_ = std::move(sites);
    p.weights_ = std::move(weights);
    return p;
  }

  /// Discrete uncertain point with uniform location probabilities.
  static UncertainPoint DiscreteUniform(std::vector<geom::Vec2> sites) {
    size_t k = sites.size();
    return Discrete(std::move(sites),
                    std::vector<double>(k, 1.0 / static_cast<double>(k)));
  }

  bool is_disk() const { return is_disk_; }
  geom::Vec2 center() const {
    UNN_DCHECK(is_disk_);
    return center_;
  }
  double radius() const {
    UNN_DCHECK(is_disk_);
    return radius_;
  }
  DiskPdf pdf() const {
    UNN_DCHECK(is_disk_);
    return pdf_;
  }
  const std::vector<geom::Vec2>& sites() const {
    UNN_DCHECK(!is_disk_);
    return sites_;
  }
  const std::vector<double>& weights() const {
    UNN_DCHECK(!is_disk_);
    return weights_;
  }

  /// True when the disk centre and radius, or every site, are finite.
  /// Engines and shard sets are built only from such points: no query
  /// could be answered from an infinite support, and a NaN centre breaks
  /// the strict weak ordering the spatial shard partitioner sorts by.
  bool finite() const {
    if (is_disk_) return geom::IsFinite(center_) && std::isfinite(radius_);
    return std::all_of(sites_.begin(), sites_.end(),
                       [](geom::Vec2 s) { return geom::IsFinite(s); });
  }

  /// delta_i(q): minimum possible distance from q to this point.
  double MinDist(geom::Vec2 q) const {
    if (is_disk_) return std::max(Dist(q, center_) - radius_, 0.0);
    double m = std::numeric_limits<double>::infinity();
    for (geom::Vec2 s : sites_) m = std::min(m, Dist(q, s));
    return m;
  }

  /// Delta_i(q): maximum possible distance from q to this point.
  double MaxDist(geom::Vec2 q) const {
    if (is_disk_) return Dist(q, center_) + radius_;
    double m = 0;
    for (geom::Vec2 s : sites_) m = std::max(m, Dist(q, s));
    return m;
  }

  /// Bounding box of the uncertainty region.
  geom::Box Bounds() const {
    geom::Box b;
    if (is_disk_) {
      b.Expand(center_);
      return b.Inflated(radius_);
    }
    for (geom::Vec2 s : sites_) b.Expand(s);
    return b;
  }

 private:
  UncertainPoint() = default;

  bool is_disk_ = true;
  geom::Vec2 center_;
  double radius_ = 0;
  DiskPdf pdf_ = DiskPdf::kUniform;
  std::vector<geom::Vec2> sites_;
  std::vector<double> weights_;
};

/// Delta(q) = min_i Delta_i(q), the radius of the smallest disk around q
/// guaranteed to contain at least one uncertain point (linear scan).
double GlobalMaxDistLowerEnvelope(const std::vector<UncertainPoint>& pts,
                                  geom::Vec2 q);

/// The two smallest Delta_j(q) values and the argmin. Lemma 2.1 tests
/// delta_i(q) < Delta_j(q) for all j != i, so the threshold for point i is
/// `best` except for the argmin itself, where it is `second` — the
/// distinction only matters for degenerate regions (certain points, k = 1),
/// where delta_i == Delta_i exactly.
struct DeltaEnvelope {
  double best = 0.0;
  double second = 0.0;
  int argbest = -1;

  double ThresholdFor(int i) const { return i == argbest ? second : best; }

  /// Inserts one Delta sample, keeping the two smallest values and the
  /// smallest id among the minimizers — the single definition of the
  /// envelope's tie semantics, shared by the linear scan, the
  /// quantification index, and the cross-shard merge so they cannot
  /// drift: a duplicate of the minimum lands in `second` (the displaced
  /// holder stays as runner-up), and an anonymous sample (`id < 0`, used
  /// for per-shard runner-up values whose id is unknown) never takes the
  /// argmin. Callers initialize best/second to +infinity before the
  /// first insert. Precondition (checked): an anonymous sample must not
  /// beat the current best — insert a shard's identified best before its
  /// anonymous runner-up, as MergeEnvelopes does.
  void Insert(double d, int id) {
    UNN_DCHECK(id >= 0 || d >= best);
    if (d < best) {
      second = best;
      best = d;
      argbest = id;
    } else if (d == best && id >= 0 && (argbest < 0 || id < argbest)) {
      second = best;
      argbest = id;
    } else {
      second = std::min(second, d);
    }
  }
};
DeltaEnvelope TwoSmallestMaxDist(const std::vector<UncertainPoint>& pts,
                                 geom::Vec2 q);

/// Margin of the NN!=0 label at q: min_i |delta_i(q) - threshold_i(q)|.
/// Zero on diagram boundaries; used to validate label seeds.
double NonzeroNnMargin(const std::vector<UncertainPoint>& pts, geom::Vec2 q);

}  // namespace core
}  // namespace unn

#endif  // UNN_CORE_UNCERTAIN_POINT_H_
