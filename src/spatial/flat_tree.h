#ifndef UNN_SPATIAL_FLAT_TREE_H_
#define UNN_SPATIAL_FLAT_TREE_H_

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "spatial/augment.h"

/// \file flat_tree.h
/// The shared static spatial-tree core: one median-split kd build
/// (spatial::FlatKdTree<Augment>) producing a flat structure-of-arrays
/// node layout, parameterized by a split rule and a node-augmentation
/// policy (augment.h). Every sublinear structure in the repo — the
/// Section 4.3 Remark (ii) point kd-tree, the [AESZ12] power-weighted
/// expected-distance tree, the L_inf square index, and the quantification
/// index (which also answers NN!=0 on every model, the two stages of
/// Theorems 3.1 and 3.2, and gives the exact discrete quantifier its
/// Delta(q)) — is this
/// build plus a thin augmentation and domain-specific bound functions fed
/// to the traversal engines in traverse.h.
///
/// The build is deterministic: the same anchors and options always
/// produce the same node layout and the same `order` permutation
/// (std::nth_element is deterministic for a fixed input), which the
/// argmin tie semantics of the consumers — and the sharded merge layer
/// above them — rely on. Construction is O(n log n); the tree is
/// immutable afterwards and safe to query concurrently.

namespace unn {
namespace spatial {

/// How an internal node picks its split axis.
enum class SplitRule {
  /// Alternate x/y by depth (x at even depths) — the classic kd rule.
  kAlternate,
  /// kAlternate, but overridden to the wider axis when the default axis
  /// is degenerate (all anchors collinear up to 1e-12 relative).
  kAlternateWideGuard,
  /// Always the wider axis of the node's anchor box; balanced even with
  /// duplicate anchors since the median split is positional.
  kWidest,
};

struct BuildOptions {
  int leaf_size = 8;
  SplitRule split = SplitRule::kAlternate;
};

/// A static kd-tree in flat structure-of-arrays layout: per-node parallel
/// arrays (box, children, leaf range) plus the permutation `order` that
/// makes each leaf's items contiguous. Item ids are indices into the
/// anchor span passed to the constructor; the anchors themselves are NOT
/// stored — leaf evaluation happens in the consumer against its own data.
template <typename Augment = NullAugment>
class FlatKdTree {
 public:
  /// An empty tree (root() < 0, zero items).
  FlatKdTree() = default;

  /// Builds over `anchors` in O(n log n). The augmentation's AbsorbRange
  /// sees every node's item range exactly once, parents before children.
  FlatKdTree(std::span<const geom::Vec2> anchors, const BuildOptions& options,
             Augment augment = Augment{})
      : aug_(std::move(augment)) {
    int n = static_cast<int>(anchors.size());
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    if (n > 0) {
      int cap = 2 * (n / std::max(options.leaf_size, 1) + 1);
      box_.reserve(cap);
      left_.reserve(cap);
      right_.reserve(cap);
      begin_.reserve(cap);
      end_.reserve(cap);
      aug_.Reserve(cap);
      root_ = BuildRange(anchors, options, 0, n, 0);
    }
    aug_.Seal();
  }

  int size() const { return static_cast<int>(order_.size()); }
  int root() const { return root_; }
  int num_nodes() const { return static_cast<int>(box_.size()); }

  bool is_leaf(int node) const { return left_[node] < 0; }
  int left(int node) const { return left_[node]; }
  int right(int node) const { return right_[node]; }
  /// Leaf item range [begin, end) into the order permutation.
  int begin(int node) const { return begin_[node]; }
  int end(int node) const { return end_[node]; }
  const geom::Box& box(int node) const { return box_[node]; }

  /// The item id stored in permutation slot `slot`.
  int item(int slot) const { return order_[slot]; }
  /// Item ids, permuted so each leaf's items are contiguous.
  const std::vector<int>& order() const { return order_; }

  const Augment& aug() const { return aug_; }

 private:
  int BuildRange(std::span<const geom::Vec2> anchors,
                 const BuildOptions& options, int begin, int end, int depth) {
    int id = num_nodes();
    geom::Box box;
    for (int i = begin; i < end; ++i) box.Expand(anchors[order_[i]]);
    box_.push_back(box);
    left_.push_back(-1);
    right_.push_back(-1);
    begin_.push_back(begin);
    end_.push_back(end);
    aug_.AddNode();
    aug_.AbsorbRange(id, order_.data() + begin, end - begin);
    if (end - begin <= options.leaf_size) return id;

    bool by_x = true;
    switch (options.split) {
      case SplitRule::kAlternate:
        by_x = (depth % 2 == 0);
        break;
      case SplitRule::kAlternateWideGuard:
        by_x = (depth % 2 == 0);
        if (box_[id].Width() < 1e-12 * box_[id].Height()) by_x = false;
        if (box_[id].Height() < 1e-12 * box_[id].Width()) by_x = true;
        break;
      case SplitRule::kWidest:
        by_x = box_[id].Width() >= box_[id].Height();
        break;
    }
    int mid = (begin + end) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end, [&](int a, int b) {
                       return by_x ? anchors[a].x < anchors[b].x
                                   : anchors[a].y < anchors[b].y;
                     });
    int l = BuildRange(anchors, options, begin, mid, depth + 1);
    int r = BuildRange(anchors, options, mid, end, depth + 1);
    left_[id] = l;
    right_[id] = r;
    return id;
  }

  // Flat SoA node arrays, indexed by node id (root first, preorder).
  std::vector<geom::Box> box_;
  std::vector<int> left_;   ///< Internal children; -1 for leaves.
  std::vector<int> right_;
  std::vector<int> begin_;  ///< Leaf item range [begin, end) into order_.
  std::vector<int> end_;
  std::vector<int> order_;
  Augment aug_;
  int root_ = -1;
};

}  // namespace spatial
}  // namespace unn

#endif  // UNN_SPATIAL_FLAT_TREE_H_
