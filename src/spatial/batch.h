#ifndef UNN_SPATIAL_BATCH_H_
#define UNN_SPATIAL_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "geom/lanes.h"
#include "spatial/traverse.h"

/// \file batch.h
/// Pack order, and the shared-traversal engines behind the lane kernels
/// that beat their scalar twins.
///
///   * PackCoherentOrder / InCoherentOrder — sort a pack of queries along
///     a Morton (Z-order) curve once, answer it in that order and scatter
///     the results back. Engine::QueryMany and serve::QueryMany do this
///     for every pack, so consecutive queries descend the same subtrees,
///     find their nodes in cache, and share lanes that prune together.
///     Pack order never changes an answer: every kernel answers a query
///     independently of the others.
///   * BatchPrunedVisit — up to geom::kLaneWidth queries ("lanes") share
///     one left-first DFS with a per-entry active lane mask. For every
///     lane the visited nodes, the prune tests, and the leaf scans are
///     exactly the scalar PrunedVisit sequence of that lane alone (other
///     lanes only interleave extra nodes the lane ignores), so a per-lane
///     computation over it is bit-identical to the scalar engine by
///     construction. range::KdTree::RangeCircleBatch runs on it.
///   * BatchBestFirstScan — shared best-first frontier ordered by the
///     minimum lower bound over each entry's active lanes. Per lane it
///     visits a superset of the scalar BestFirstScan's surviving nodes,
///     in an order that may differ from the lane's own key order; use it
///     for exact-min accumulation, never for first-hit semantics.
///     core::QuantTree's envelope pass runs on it.
///
/// Both evaluate box bounds with the SIMD lane ops of geom/lanes.h and
/// prefetch the SoA child arrays a node ahead. A lane kernel stays only
/// where its full sorted pack beats the scalar loop over the same sorted
/// pack by at least 1.2x; the discrete E[d] argmin and the Delta(q)
/// envelope of Theorem 3.2 did not, and are served by their scalar
/// queries.

namespace unn {
namespace spatial {

/// Bit l set = query lane l active. Lane count is geom::kLaneWidth = 8.
using LaneMask = std::uint8_t;

/// Mask with the low `count` lanes active (a ragged final pack).
inline LaneMask FullMask(int count) {
  return static_cast<LaneMask>((1u << count) - 1u);
}

/// Per-pack traversal counters, aggregated by the batch entry points.
/// `lane_nodes_visited / (nodes_visited * kLaneWidth)` is the lane
/// utilization: 1.0 means every shared node visit served all lanes.
struct BatchStats {
  std::int64_t packs = 0;
  std::int64_t nodes_visited = 0;       ///< Shared node visits.
  std::int64_t lane_nodes_visited = 0;  ///< Sum of active lanes per visit.
  std::int64_t leaves_scanned = 0;
  std::int64_t lane_points_evaluated = 0;
  std::int64_t prunes = 0;          ///< Entries dropped with no lane active.
  /// Always 0: no kernel replays; perfbench still reports the field.
  std::int64_t scalar_replays = 0;

  double LaneUtilization() const {
    return nodes_visited == 0 ? 0.0
                              : static_cast<double>(lane_nodes_visited) /
                                    (static_cast<double>(nodes_visited) *
                                     geom::kLaneWidth);
  }

  void Add(const BatchStats& o) {
    packs += o.packs;
    nodes_visited += o.nodes_visited;
    lane_nodes_visited += o.lane_nodes_visited;
    leaves_scanned += o.leaves_scanned;
    lane_points_evaluated += o.lane_points_evaluated;
    prunes += o.prunes;
    scalar_replays += o.scalar_replays;
  }
};

namespace internal {

/// Prefetches the SoA node records the descent is about to touch. The
/// box array is the hot one (every surviving node evaluates bounds
/// against it before the children are known).
template <typename Tree>
inline void PrefetchChildren(const Tree& tree, int node) {
#if defined(__GNUC__) || defined(__clang__)
  if (!tree.is_leaf(node)) {
    __builtin_prefetch(&tree.box(tree.left(node)));
    __builtin_prefetch(&tree.box(tree.right(node)));
  }
#else
  (void)tree;
  (void)node;
#endif
}

inline int PopCount(LaneMask m) {
  int c = 0;
  for (LaneMask b = m; b != 0; b &= static_cast<LaneMask>(b - 1)) ++c;
  return c;
}

}  // namespace internal

/// Memoizes one pack's per-lane lower bounds per node, so a
/// BatchBestFirstScan whose bound is a SIMD evaluation over all lanes
/// (geom/lanes.h) computes it once per node instead of once at push and
/// once per lane at the pop re-test. The caller's `compute(node, out)`
/// fills all kLaneWidth slots; `key_lb` then reads the cached lane.
/// Bounds are a pure function of (node, query), so caching cannot change
/// any per-lane decision — only how often the arithmetic runs.
template <typename Compute>
class LaneKeyCache {
 public:
  explicit LaneKeyCache(Compute compute) : compute_(std::move(compute)) {}

  /// The per-lane bound for `node`, computing the node's lane vector on
  /// first touch.
  double operator()(int lane, int node) {
    if (node != node_) {
      compute_(node, keys_);
      node_ = node;
    }
    return keys_[lane];
  }

 private:
  Compute compute_;
  int node_ = -1;
  double keys_[geom::kLaneWidth] = {};
};

template <typename Compute>
LaneKeyCache<Compute> MakeLaneKeyCache(Compute compute) {
  return LaneKeyCache<Compute>(std::move(compute));
}

/// Shared pruned DFS, left child first (the batch PrunedVisit).
/// `filter(node, mask)` returns the sub-mask of lanes that do NOT prune
/// the node — it is called exactly once per lane per node the lane
/// reaches, like the scalar engine's `prune`; `leaf(node, mask)` scans a
/// leaf for every active lane. Unlike scalar PrunedVisit there is no
/// abort: the batch consumers are argmin/report accumulators.
template <typename Tree, typename Filter, typename Leaf>
void BatchPrunedVisit(const Tree& tree, LaneMask lanes, Filter&& filter,
                      Leaf&& leaf, BatchStats* stats = nullptr) {
  if (tree.root() < 0 || lanes == 0) return;
  struct Frame {
    int node;
    LaneMask mask;
  };
  std::vector<Frame> stack;
  stack.reserve(64);
  stack.push_back({tree.root(), lanes});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    LaneMask m = filter(f.node, f.mask);
    if (m == 0) {
      if (stats != nullptr) ++stats->prunes;
      continue;
    }
    internal::PrefetchChildren(tree, f.node);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      stats->lane_nodes_visited += internal::PopCount(m);
    }
    if (tree.is_leaf(f.node)) {
      if (stats != nullptr) ++stats->leaves_scanned;
      leaf(f.node, m);
    } else {
      // Right below left so the left child pops first: per lane this is
      // the scalar left-first DFS order.
      stack.push_back({tree.right(f.node), m});
      stack.push_back({tree.left(f.node), m});
    }
  }
}

/// Pack-coherence ordering: indices of `queries` with the finite ones
/// first, sorted along a Morton (Z-order) curve of their own bounding box,
/// then the queries with a NaN or infinite coordinate in input order.
/// Consecutive queries are then spatially adjacent, so they prune the same
/// subtrees and share cached nodes. Total over every input: coordinates
/// are halved before they are differenced, so even a box spanning
/// +-DBL_MAX has a finite extent, and each 16-bit cell index is cast from
/// a value in [0, 65535]. Deterministic; stable for equal codes.
inline std::vector<int> PackCoherentOrder(std::span<const geom::Vec2> queries) {
  if (queries.size() <= 1) return std::vector<int>(queries.size(), 0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<int> order, non_finite;
  order.reserve(queries.size());
  double lox = kInf, hix = -kInf, loy = kInf, hiy = -kInf;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Vec2 q = queries[i];
    if (!geom::IsFinite(q)) {
      non_finite.push_back(static_cast<int>(i));
      continue;
    }
    order.push_back(static_cast<int>(i));
    lox = std::min(lox, q.x);
    hix = std::max(hix, q.x);
    loy = std::min(loy, q.y);
    hiy = std::max(hiy, q.y);
  }
  // Rounding is monotone, so 0.5 v - 0.5 lo never exceeds the extent
  // 0.5 hi - 0.5 lo and the ratio lies in [0, 1].
  auto cell = [](double v, double lo, double hi) -> std::uint32_t {
    const double extent = 0.5 * hi - 0.5 * lo;
    if (!(extent > 0)) return 0;
    return static_cast<std::uint32_t>((0.5 * v - 0.5 * lo) / extent * 65535.0);
  };
  std::vector<std::uint32_t> code(queries.size());
  for (int i : order) {
    const std::uint32_t xi = cell(queries[i].x, lox, hix);
    const std::uint32_t yi = cell(queries[i].y, loy, hiy);
    std::uint32_t z = 0;
    for (int b = 0; b < 16; ++b) {
      z |= ((xi >> b) & 1u) << (2 * b);
      z |= ((yi >> b) & 1u) << (2 * b + 1);
    }
    code[i] = z;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return code[a] < code[b]; });
  order.insert(order.end(), non_finite.begin(), non_finite.end());
  return order;
}

/// Answers `queries` in PackCoherentOrder: `answer(sorted)` returns one
/// result per query of the sorted copy, and `out[i]` is the result for
/// `queries[i]`. Correct for any `answer` whose result for a query does
/// not depend on the other queries of the call.
template <typename Answer>
auto InCoherentOrder(std::span<const geom::Vec2> queries, Answer&& answer)
    -> decltype(answer(queries)) {
  if (queries.size() <= 1) return answer(queries);
  const std::vector<int> order = PackCoherentOrder(queries);
  std::vector<geom::Vec2> sorted(queries.size());
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = queries[order[i]];
  auto in_order = answer(std::span<const geom::Vec2>(sorted));
  decltype(in_order) out(queries.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    out[order[i]] = std::move(in_order[i]);
  }
  return out;
}

/// Shared best-first scan (the batch BestFirstScan). The frontier is
/// ordered by the minimum of `key_lb(lane, node)` over the entry's
/// active lanes; `prunable(lane, key)` must be monotone in key per lane.
/// `visit(node, mask)` runs for the lanes that survive their own bound.
/// Per lane the visited set is a superset of the scalar engine's, so
/// exact-min accumulation matches the scalar result; first-hit order per
/// lane is NOT preserved. Lane bounds are evaluated once at push and
/// once at pop (the pop re-test sees bounds tightened since the push).
template <typename Tree, typename KeyLb, typename Prunable, typename Visit>
void BatchBestFirstScan(const Tree& tree, LaneMask lanes, KeyLb&& key_lb,
                        Prunable&& prunable, Visit&& visit,
                        BatchStats* stats = nullptr) {
  if (tree.root() < 0 || lanes == 0) return;
  struct Entry {
    double key;  ///< min over active lanes of key_lb(lane, node).
    int node;
    LaneMask mask;
    bool operator<(const Entry& o) const { return key > o.key; }
  };
  std::priority_queue<Entry> heap;
  auto push = [&](int node, LaneMask m) {
    double key = 0.0;
    bool first = true;
    LaneMask keep = 0;
    for (int l = 0; l < geom::kLaneWidth; ++l) {
      if ((m & (1u << l)) == 0) continue;
      double k = key_lb(l, node);
      if (prunable(l, k)) continue;
      keep |= static_cast<LaneMask>(1u << l);
      if (first || k < key) key = k;
      first = false;
    }
    if (keep != 0) heap.push({key, node, keep});
  };
  push(tree.root(), lanes);
  while (!heap.empty()) {
    Entry e = heap.top();
    heap.pop();
    // Re-test each lane against its own (possibly tightened) bound.
    LaneMask m = 0;
    for (int l = 0; l < geom::kLaneWidth; ++l) {
      if ((e.mask & (1u << l)) == 0) continue;
      if (!prunable(l, key_lb(l, e.node))) {
        m |= static_cast<LaneMask>(1u << l);
      }
    }
    // Early exit must consider every lane of the PACK, not just this
    // entry's mask: remaining heap entries can carry lanes absent here,
    // and a lane's own entries are the only ones that can finish its
    // accumulation. Only when all pack lanes prune at e.key is every
    // remaining entry (shared key >= e.key, per-lane keys >= the shared
    // key) dead for every lane by monotonicity.
    bool all_dead_at_shared_key = true;
    for (int l = 0; l < geom::kLaneWidth; ++l) {
      if ((lanes & (1u << l)) == 0) continue;
      if (!prunable(l, e.key)) {
        all_dead_at_shared_key = false;
        break;
      }
    }
    if (all_dead_at_shared_key) {
      if (stats != nullptr) ++stats->prunes;
      break;
    }
    if (m == 0) {
      if (stats != nullptr) ++stats->prunes;
      continue;
    }
    internal::PrefetchChildren(tree, e.node);
    if (stats != nullptr) {
      ++stats->nodes_visited;
      stats->lane_nodes_visited += internal::PopCount(m);
      if (tree.is_leaf(e.node)) ++stats->leaves_scanned;
    }
    visit(e.node, m);
    if (!tree.is_leaf(e.node)) {
      push(tree.left(e.node), m);
      push(tree.right(e.node), m);
    }
  }
}

}  // namespace spatial
}  // namespace unn

#endif  // UNN_SPATIAL_BATCH_H_
