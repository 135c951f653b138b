#ifndef UNN_OBS_PROFILE_H_
#define UNN_OBS_PROFILE_H_

#include <atomic>
#include <vector>

#include "obs/metrics.h"
#include "spatial/traverse.h"

/// \file profile.h
/// Opt-in traversal profiling: a process-wide sink aggregating
/// spatial::TraversalStats per traversal operation, so benches and tests
/// can assert pruning efficiency (nodes visited, leaves scanned, prunes
/// taken, heap pushes) without threading a sink through every query API.
///
/// Cost model: profiling is off by default. Instrumented call sites do
/// one relaxed atomic load (TraversalProfilingEnabled()) and, when off,
/// pass a null stats pointer into the traversal engines — the counters
/// compile to dead branches. When on, each traversal accumulates into a
/// stack-local TraversalStats and RecordTraversal() folds it into
/// per-thread-sharded atomic cells (same sharding as obs::Counter).
///
/// The sink is process-global (engines are shared across servers and have
/// no registry of their own); QueryServer::DumpMetrics() appends its
/// totals to the per-server registry snapshot via AppendTraversalMetrics.

namespace unn {
namespace obs {

/// The instrumented traversal operations.
enum class TraversalOp {
  kQuantEnvelope = 0,  ///< QuantTree::MaxDistEnvelope (best-first).
  kQuantSurvival,      ///< QuantTree::LogSurvival (pruned DFS).
  kKdNearest,          ///< range::KdTree nearest/k-nearest descents.
};
inline constexpr int kNumTraversalOps = 3;

/// Metric label value for an op ("quant_envelope", ...).
const char* TraversalOpName(TraversalOp op);
/// Metric label value for the structure behind an op ("quant_tree" /
/// "flat_kd_tree").
const char* TraversalOpStructure(TraversalOp op);

namespace internal {
extern std::atomic<bool> g_traversal_profiling;
}  // namespace internal

/// Turns the process-wide sink on/off. Off is the default; flipping it
/// does not reset accumulated totals (see ResetTraversalProfile).
void EnableTraversalProfiling(bool on);

/// One relaxed load — the instrumented hot paths' only disabled-mode cost.
inline bool TraversalProfilingEnabled() {
  // relaxed: a stale enable/disable flag only delays when profiling
  // starts or stops counting; it orders nothing.
  return internal::g_traversal_profiling.load(std::memory_order_relaxed);
}

/// Folds one traversal's counters into the global sink.
void RecordTraversal(TraversalOp op, const spatial::TraversalStats& st);

/// Accumulated totals for one op (sums across threads; exact once
/// writers quiesce, relaxed-consistent under load).
spatial::TraversalStats TraversalTotals(TraversalOp op);

/// Number of traversals recorded for `op`.
std::int64_t TraversalCount(TraversalOp op);

/// Zeroes the sink (tests / bench phases).
void ResetTraversalProfile();

/// Appends the sink's totals as counter snapshots
/// (unn_traversal_<field>_total{structure=...,op=...} plus
/// unn_traversal_queries_total) for ops with at least one recorded
/// traversal.
void AppendTraversalMetrics(std::vector<MetricSnapshot>* out);

}  // namespace obs
}  // namespace unn

#endif  // UNN_OBS_PROFILE_H_
