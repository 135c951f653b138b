#ifndef UNN_SPATIAL_BATCH_H_
#define UNN_SPATIAL_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geom/lanes.h"
#include "spatial/traverse.h"

/// \file batch.h
/// Pack order, and the shared-traversal engine behind the one lane kernel
/// that beats its scalar twin.
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
///     construction. range::KdTree::RangeCircleBatch runs on it; it
///     evaluates box bounds with the SIMD lane ops of geom/lanes.h and
///     prefetches the SoA child arrays a node ahead.
///
/// A lane kernel stays only where it beats the scalar loop on a pack
/// shape some benchmark workload serves. RangeCircleBatch does, on the
/// sorted 4096-query packs of discrete-batch. The discrete E[d] argmin
/// and the Delta(q) envelope did not (the sharded plan's envelope calls
/// are packs of one, where the scalar ordered DFS is faster), and are
/// served by their scalar queries: QuantTree::ExpectedDistanceNn and
/// QuantTree::MaxDistEnvelope, which also gives the exact discrete
/// quantifier its stage one.

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
/// Entry points that loop a scalar walk add its counters with AddWalk and
/// leave the lane counters (packs, lane_*) at 0.
struct BatchStats {
  std::int64_t packs = 0;  ///< Lane packs run.
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

  /// Adds a scalar walk's node, leaf and prune counts.
  void AddWalk(const TraversalStats& o) {
    nodes_visited += o.nodes_visited;
    leaves_scanned += o.leaves_scanned;
    prunes += o.prunes;
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

}  // namespace spatial
}  // namespace unn

#endif  // UNN_SPATIAL_BATCH_H_
