#include "core/nn_nonzero_index.h"

#include <algorithm>

#include "util/check.h"

namespace unn {
namespace core {

using geom::Vec2;

NnNonzeroIndex::NnNonzeroIndex(const std::vector<UncertainPoint>& points) {
  std::vector<Vec2> centers;
  std::vector<double> radii;
  centers.reserve(points.size());
  radii.reserve(points.size());
  for (const auto& p : points) {
    UNN_CHECK_MSG(p.is_disk(), "NnNonzeroIndex requires disk regions");
    centers.push_back(p.center());
    radii.push_back(p.radius());
  }
  tree_ = std::make_unique<range::DiskTree>(centers, radii);
}

double NnNonzeroIndex::Delta(Vec2 q) const {
  return tree_->MinMaxDist(q);
}

std::vector<int> NnNonzeroIndex::Query(Vec2 q) const {
  double delta = Delta(q);
  std::vector<int> out;
  tree_->ReportMinDistLess(q, delta, &out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace core
}  // namespace unn
