#include "obs/profile.h"

namespace unn {
namespace obs {

namespace internal {
std::atomic<bool> g_traversal_profiling{false};
}  // namespace internal

namespace {

constexpr int kShards = Counter::kShards;

/// Per-(op, shard) accumulator row, padded so shards never false-share.
struct alignas(64) StatCell {
  std::atomic<std::int64_t> traversals{0};
  std::atomic<std::int64_t> nodes_visited{0};
  std::atomic<std::int64_t> leaves_scanned{0};
  std::atomic<std::int64_t> points_evaluated{0};
  std::atomic<std::int64_t> prunes{0};
  std::atomic<std::int64_t> heap_pushes{0};
};

StatCell g_cells[kNumTraversalOps][kShards];

}  // namespace

const char* TraversalOpName(TraversalOp op) {
  switch (op) {
    case TraversalOp::kQuantEnvelope:
      return "quant_envelope";
    case TraversalOp::kQuantSurvival:
      return "quant_survival";
    case TraversalOp::kKdNearest:
      return "kd_nearest";
  }
  return "unknown";
}

const char* TraversalOpStructure(TraversalOp op) {
  switch (op) {
    case TraversalOp::kQuantEnvelope:
    case TraversalOp::kQuantSurvival:
      return "quant_tree";
    case TraversalOp::kKdNearest:
      return "flat_kd_tree";
  }
  return "unknown";
}

void EnableTraversalProfiling(bool on) {
  // relaxed: see TraversalProfilingEnabled — the flag orders nothing.
  internal::g_traversal_profiling.store(on, std::memory_order_relaxed);
}

void RecordTraversal(TraversalOp op, const spatial::TraversalStats& st) {
  StatCell& c = g_cells[static_cast<int>(op)]
                       [internal::ThreadShard() & (kShards - 1)];
  // relaxed: profiling counters race only with other counters, never
  // with the traversals they describe (obs/metrics.h contract).
  c.traversals.fetch_add(1, std::memory_order_relaxed);
  c.nodes_visited.fetch_add(st.nodes_visited, std::memory_order_relaxed);
  c.leaves_scanned.fetch_add(st.leaves_scanned, std::memory_order_relaxed);
  c.points_evaluated.fetch_add(st.points_evaluated, std::memory_order_relaxed);
  c.prunes.fetch_add(st.prunes, std::memory_order_relaxed);
  c.heap_pushes.fetch_add(st.heap_pushes, std::memory_order_relaxed);
}

spatial::TraversalStats TraversalTotals(TraversalOp op) {
  spatial::TraversalStats out;
  for (int s = 0; s < kShards; ++s) {
    const StatCell& c = g_cells[static_cast<int>(op)][s];
    // relaxed: snapshot sums, exact once writers quiesce.
    out.nodes_visited += c.nodes_visited.load(std::memory_order_relaxed);
    out.leaves_scanned += c.leaves_scanned.load(std::memory_order_relaxed);
    out.points_evaluated += c.points_evaluated.load(std::memory_order_relaxed);
    out.prunes += c.prunes.load(std::memory_order_relaxed);
    out.heap_pushes += c.heap_pushes.load(std::memory_order_relaxed);
  }
  return out;
}

std::int64_t TraversalCount(TraversalOp op) {
  std::int64_t total = 0;
  for (int s = 0; s < kShards; ++s) {
    // relaxed: snapshot sum, exact once writers quiesce.
    total += g_cells[static_cast<int>(op)][s].traversals.load(
        std::memory_order_relaxed);
  }
  return total;
}

void ResetTraversalProfile() {
  for (auto& row : g_cells) {
    for (StatCell& c : row) {
      // relaxed: a reset racing a recording loses or keeps individual
      // increments, which a test-only reset hook tolerates by contract.
      c.traversals.store(0, std::memory_order_relaxed);
      c.nodes_visited.store(0, std::memory_order_relaxed);
      c.leaves_scanned.store(0, std::memory_order_relaxed);
      c.points_evaluated.store(0, std::memory_order_relaxed);
      c.prunes.store(0, std::memory_order_relaxed);
      c.heap_pushes.store(0, std::memory_order_relaxed);
    }
  }
}

void AppendTraversalMetrics(std::vector<MetricSnapshot>* out) {
  for (int i = 0; i < kNumTraversalOps; ++i) {
    TraversalOp op = static_cast<TraversalOp>(i);
    std::int64_t n = TraversalCount(op);
    if (n == 0) continue;
    spatial::TraversalStats t = TraversalTotals(op);
    Labels labels = {{"structure", TraversalOpStructure(op)},
                     {"op", TraversalOpName(op)}};
    auto add = [&](const char* name, const char* help, std::int64_t v) {
      MetricSnapshot m;
      m.name = name;
      m.help = help;
      m.labels = labels;
      m.kind = MetricKind::kCounter;
      m.value = static_cast<double>(v);
      out->push_back(std::move(m));
    };
    add("unn_traversal_queries_total", "Profiled traversals executed.", n);
    add("unn_traversal_nodes_visited_total",
        "Tree nodes entered and not pruned.", t.nodes_visited);
    add("unn_traversal_leaves_scanned_total", "Leaf nodes scanned.",
        t.leaves_scanned);
    add("unn_traversal_points_evaluated_total",
        "Item-level evaluations at leaves.", t.points_evaluated);
    add("unn_traversal_prunes_total", "Subtrees discarded by a bound test.",
        t.prunes);
    add("unn_traversal_heap_pushes_total",
        "Best-first frontier insertions (0 for DFS traversals).",
        t.heap_pushes);
  }
}

}  // namespace obs
}  // namespace unn
