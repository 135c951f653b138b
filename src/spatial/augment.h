#ifndef UNN_SPATIAL_AUGMENT_H_
#define UNN_SPATIAL_AUGMENT_H_

#include <algorithm>
#include <limits>
#include <vector>

/// \file augment.h
/// Node-augmentation policies for spatial::FlatKdTree. An augmentation
/// owns one flat array per per-node statistic (structure-of-arrays, same
/// layout as the tree's own node arrays) and folds items into them during
/// the build:
///
///   void Reserve(int nodes);   // capacity hint, before the build
///   void AddNode();            // append identity stats for node i
///   void AbsorbRange(int node, const int* ids, int count);
///                              // fold `count` item ids into node's stats
///   void Seal();               // build done: drop build-only state
///
/// AddNode/AbsorbRange are only ever called during the build (each node
/// sees its item range exactly once, parents before children); Seal()
/// must leave the augmentation free of pointers into caller state so the
/// finished tree can be copied and moved safely. Range-based absorption
/// lets policies accumulate in locals and store once per node — the
/// build-hot path. Policies compose with PairAugment when a tree needs
/// several statistics.

namespace unn {
namespace spatial {

/// No per-node statistics (a plain point tree).
struct NullAugment {
  void Reserve(int) {}
  void AddNode() {}
  void AbsorbRange(int, const int*, int) {}
  void Seal() {}
};

/// Per-node minimum of a per-item scalar (e.g. minimum variance for the
/// power-weighted expected-distance tree and for the quantification
/// index's sqrt(d(q, box)^2 + V_min) envelope bound).
class MinAugment {
 public:
  MinAugment() = default;
  explicit MinAugment(const std::vector<double>* values) : values_(values) {}

  void Reserve(int nodes) { min_.reserve(nodes); }
  void AddNode() { min_.push_back(std::numeric_limits<double>::infinity()); }
  void AbsorbRange(int node, const int* ids, int count) {
    double mn = min_[node];
    for (int i = 0; i < count; ++i) mn = std::min(mn, (*values_)[ids[i]]);
    min_[node] = mn;
  }
  void Seal() { values_ = nullptr; }

  double min(int node) const { return min_[node]; }

 private:
  const std::vector<double>* values_ = nullptr;  ///< Build-only.
  std::vector<double> min_;
};

/// Per-node minimum and maximum of a per-item scalar (e.g. the support
/// radius of the quantification index: min bounds Delta from below, max
/// bounds delta).
class MinMaxAugment {
 public:
  MinMaxAugment() = default;
  explicit MinMaxAugment(const std::vector<double>* values)
      : values_(values) {}

  void Reserve(int nodes) {
    min_.reserve(nodes);
    max_.reserve(nodes);
  }
  void AddNode() {
    min_.push_back(std::numeric_limits<double>::infinity());
    max_.push_back(0.0);
  }
  void AbsorbRange(int node, const int* ids, int count) {
    double mn = min_[node];
    double mx = max_[node];
    for (int i = 0; i < count; ++i) {
      double v = (*values_)[ids[i]];
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    min_[node] = mn;
    max_[node] = mx;
  }
  void Seal() { values_ = nullptr; }

  double min(int node) const { return min_[node]; }
  double max(int node) const { return max_[node]; }

 private:
  const std::vector<double>* values_ = nullptr;  ///< Build-only.
  std::vector<double> min_;
  std::vector<double> max_;
};

/// Composes two augmentations into one (each keeps its own arrays).
template <typename A, typename B>
struct PairAugment {
  A first;
  B second;

  void Reserve(int nodes) {
    first.Reserve(nodes);
    second.Reserve(nodes);
  }
  void AddNode() {
    first.AddNode();
    second.AddNode();
  }
  void AbsorbRange(int node, const int* ids, int count) {
    first.AbsorbRange(node, ids, count);
    second.AbsorbRange(node, ids, count);
  }
  void Seal() {
    first.Seal();
    second.Seal();
  }
};

}  // namespace spatial
}  // namespace unn

#endif  // UNN_SPATIAL_AUGMENT_H_
