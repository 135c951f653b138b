#ifndef UNN_SPATIAL_TRAVERSE_H_
#define UNN_SPATIAL_TRAVERSE_H_

#include <cstdint>
#include <queue>
#include <utility>

/// \file traverse.h
/// The two traversal engines shared by every tree built on
/// spatial::FlatKdTree, replacing the per-structure copies of the same
/// best-first heap and pruned recursion:
///
///   * BestFirstEnumerator — priority-queue enumeration in increasing
///     lower-bound order (the engine behind KdTree::KNearest/Enumerator);
///   * PrunedVisit / PrunedVisitOrdered — pruned DFS (the engine behind
///     RangeCircle, SupportsWithin, the L_inf index, LogSurvival's
///     ball-intersection walk, the quantification index's two-smallest
///     envelope search — stage one of NN!=0 on every model — and
///     expected-distance search, and the nearest/min-max descents, which
///     visit the nearer child first).
///
/// Visit order is part of each consumer's contract: argmin ties resolve
/// to the first strict minimum encountered, so the engines guarantee
/// deterministic, insertion-stable orders — DFS descends left-first (or
/// by the caller's ordering key), and the best-first heap breaks key
/// ties by heap order alone, exactly as the hand-rolled versions did.
/// All engines are allocation-free except the best-first heap and are
/// safe for concurrent use on a const tree.
///
/// The one batched counterpart, BatchPrunedVisit (up to geom::kLaneWidth
/// queries through one shared DFS with SIMD bound evaluation), lives in
/// spatial/batch.h with the pack-order helpers.

namespace unn {
namespace spatial {

/// Per-traversal search-effort counters, filled by the engines when the
/// caller passes a non-null pointer (the default null pointer keeps the
/// engines counter-free — the checks compile down to a dead branch).
/// Caller-owned so traversals stay const and thread-safe.
///
/// Semantics (identical across engines so consumers can compare):
///   * nodes_visited   — nodes entered and not pruned (internal + leaf);
///   * leaves_scanned  — the subset of visited nodes that were leaves;
///   * points_evaluated — item-level evaluations; the best-first
///     enumerator counts item-key pushes, the node engines leave this to
///     the consumer's leaf callback (which may skip items, e.g.
///     LogSurvival's per-point ball test);
///   * prunes          — subtrees discarded by a prune / prunable test;
///   * heap_pushes     — best-first frontier insertions (0 for DFS).
struct TraversalStats {
  std::int64_t nodes_visited = 0;
  std::int64_t leaves_scanned = 0;
  std::int64_t points_evaluated = 0;
  std::int64_t prunes = 0;
  std::int64_t heap_pushes = 0;

  void Add(const TraversalStats& o) {
    nodes_visited += o.nodes_visited;
    leaves_scanned += o.leaves_scanned;
    points_evaluated += o.points_evaluated;
    prunes += o.prunes;
    heap_pushes += o.heap_pushes;
  }
};

/// Min-heap entry for the best-first enumerator: a frontier node with a
/// lower bound, or a resolved item with its exact key.
struct HeapEntry {
  double key = 0.0;
  int node = -1;  ///< Node id, or -1 when `item` is a resolved item.
  int item = -1;
  /// Inverted: std::priority_queue is a max-heap, we pop smallest keys.
  bool operator<(const HeapEntry& o) const { return key > o.key; }
};

/// Incremental best-first enumeration: Next() yields item ids in
/// nondecreasing key order, -1 once exhausted (and forever after,
/// including on an empty tree). `Keys` provides
/// `double NodeKey(int node)` (a lower bound on every item key in the
/// subtree) and `double ItemKey(int item)` (the exact key).
template <typename Tree, typename Keys>
class BestFirstEnumerator {
 public:
  BestFirstEnumerator(const Tree& tree, Keys keys,
                      TraversalStats* stats = nullptr)
      : tree_(tree), keys_(std::move(keys)), stats_(stats) {
    if (tree_.root() >= 0) {
      Push({keys_.NodeKey(tree_.root()), tree_.root(), -1});
    }
  }

  /// Next item id, or -1 when exhausted. `key` optional out.
  int Next(double* key = nullptr) {
    while (!heap_.empty()) {
      HeapEntry e = heap_.top();
      heap_.pop();
      if (e.node < 0) {
        if (key != nullptr) *key = e.key;
        return e.item;
      }
      if (stats_ != nullptr) ++stats_->nodes_visited;
      if (tree_.is_leaf(e.node)) {
        if (stats_ != nullptr) ++stats_->leaves_scanned;
        for (int s = tree_.begin(e.node); s < tree_.end(e.node); ++s) {
          int id = tree_.item(s);
          if (stats_ != nullptr) ++stats_->points_evaluated;
          Push({keys_.ItemKey(id), -1, id});
        }
      } else {
        int l = tree_.left(e.node);
        int r = tree_.right(e.node);
        Push({keys_.NodeKey(l), l, -1});
        Push({keys_.NodeKey(r), r, -1});
      }
    }
    return -1;
  }

 private:
  void Push(HeapEntry e) {
    heap_.push(e);
    if (stats_ != nullptr) ++stats_->heap_pushes;
  }

  const Tree& tree_;
  Keys keys_;
  TraversalStats* stats_ = nullptr;
  std::priority_queue<HeapEntry> heap_;
};

/// Pruned DFS, left child first. `prune(node)` is checked on entry (it
/// may consult mutable caller state, e.g. a tightening envelope);
/// `leaf(node)` returns false to abort the whole walk. Returns false iff
/// aborted.
template <typename Tree, typename Prune, typename Leaf>
bool PrunedVisit(const Tree& tree, int node, Prune&& prune, Leaf&& leaf,
                 TraversalStats* stats = nullptr) {
  if (prune(node)) {
    if (stats != nullptr) ++stats->prunes;
    return true;
  }
  if (stats != nullptr) ++stats->nodes_visited;
  if (tree.is_leaf(node)) {
    if (stats != nullptr) ++stats->leaves_scanned;
    return leaf(node);
  }
  return PrunedVisit(tree, tree.left(node), prune, leaf, stats) &&
         PrunedVisit(tree, tree.right(node), prune, leaf, stats);
}

/// PrunedVisit from the root; no-op on an empty tree.
template <typename Tree, typename Prune, typename Leaf>
bool PrunedVisit(const Tree& tree, Prune&& prune, Leaf&& leaf,
                 TraversalStats* stats = nullptr) {
  if (tree.root() < 0) return true;
  return PrunedVisit(tree, tree.root(), prune, leaf, stats);
}

/// Pruned DFS that descends the child with the smaller `key` first — the
/// classic nearest-neighbor descent, where following the more promising
/// subtree first tightens the bound before the sibling is re-tested by its
/// own entry prune. `key(node)` runs once per node; `prune(node, k)`
/// receives that value k on entry (it may also consult mutable caller
/// state, e.g. a tightening envelope), so a caller whose prune tests the
/// order key itself computes each bound once. `node_key` is key(node).
template <typename Tree, typename Key, typename Prune, typename Leaf>
void PrunedVisitOrdered(const Tree& tree, int node, double node_key, Key&& key,
                        Prune&& prune, Leaf&& leaf,
                        TraversalStats* stats = nullptr) {
  if (prune(node, node_key)) {
    if (stats != nullptr) ++stats->prunes;
    return;
  }
  if (stats != nullptr) ++stats->nodes_visited;
  if (tree.is_leaf(node)) {
    if (stats != nullptr) ++stats->leaves_scanned;
    leaf(node);
    return;
  }
  int l = tree.left(node);
  int r = tree.right(node);
  double kl = key(l);
  double kr = key(r);
  if (kl > kr) {
    std::swap(l, r);
    std::swap(kl, kr);
  }
  PrunedVisitOrdered(tree, l, kl, key, prune, leaf, stats);
  PrunedVisitOrdered(tree, r, kr, key, prune, leaf, stats);
}

/// PrunedVisitOrdered from the root; no-op on an empty tree.
template <typename Tree, typename Key, typename Prune, typename Leaf>
void PrunedVisitOrdered(const Tree& tree, Key&& key, Prune&& prune,
                        Leaf&& leaf, TraversalStats* stats = nullptr) {
  if (tree.root() < 0) return;
  PrunedVisitOrdered(tree, tree.root(), key(tree.root()), key, prune, leaf,
                     stats);
}

}  // namespace spatial
}  // namespace unn

#endif  // UNN_SPATIAL_TRAVERSE_H_
