#ifndef UNN_SERVE_REQUEST_H_
#define UNN_SERVE_REQUEST_H_

#include <chrono>

#include "engine/engine.h"
#include "geom/vec2.h"
#include "obs/trace.h"

/// \file request.h
/// The serving request/response vocabulary. Both serving entrypoints
/// (QueryServer::Submit, QueryServer::QueryBatch) are defined over these
/// types. A Request carries the QoS contract — an optional
/// deadline and a scheduling priority — alongside the query itself; a
/// Response says not just what the answer is but how it was produced
/// (computed, served from the result cache, or refused) and how long the
/// server held it.

namespace unn {
namespace serve {

/// Scheduling class of a request. The worker pool drains strictly by
/// priority (all queued kHigh tasks before any kNormal before any kLow);
/// within a class, FIFO. Priorities order the queue, they do not preempt
/// a running query; a Submit that finds a worker free (parked, not lent,
/// nothing queued) never enters the queue (QueryServer::Submit).
enum class Priority {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// "No deadline": the default for requests that are willing to wait.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Convenience: a deadline `d` from now on the serving clock.
inline std::chrono::steady_clock::time_point DeadlineAfter(
    std::chrono::steady_clock::duration d) {
  return std::chrono::steady_clock::now() + d;
}

/// One serving request: a query point, what to ask of it, and the QoS
/// contract it rides under. Aggregate — `{q, spec, deadline, priority}`.
struct Request {
  geom::Vec2 q;
  Engine::QuerySpec spec;
  /// Requests whose deadline has passed are answered
  /// `kDeadlineExceeded` without touching a backend — checked at
  /// admission and again just before the query is computed, so a request
  /// that aged out while queued is dropped rather than computed.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  Priority priority = Priority::kNormal;
  /// Opt-in request tracing: when non-null, the server records a span
  /// tree (admission, cache lookup, queueing, shard fan-out, merge) into
  /// this caller-owned context. The context must outlive the response
  /// future. Null (the default) disables tracing for this request at the
  /// cost of one pointer test per would-be span.
  obs::TraceContext* trace = nullptr;
};

/// How a Response was produced.
enum class ResultSource {
  /// Answered by the snapshot's full backend.
  kComputed,
  /// Served from the snapshot-keyed result cache: bit-identical to
  /// recomputing on the same snapshot (docs/QUERY_SEMANTICS.md).
  kCache,
  /// No server path produces it: overload sheds (kShed). Kept declared
  /// while perfbench's serving client still names it.
  kDegraded,
  /// Overload shed the request; `result` is empty.
  kShed,
  /// The deadline passed before dispatch; `result` is empty.
  kDeadlineExceeded,
};

/// One serving response. `ok()` distinguishes answered requests from
/// refused ones; refused responses carry a default-initialized result.
struct Response {
  Engine::QueryResult result;
  ResultSource source = ResultSource::kComputed;
  /// Wall-clock the server held the request, admission to completion
  /// (queueing included; ~0 for cache hits and refusals).
  std::chrono::microseconds latency{0};

  bool ok() const {
    return source != ResultSource::kShed &&
           source != ResultSource::kDeadlineExceeded;
  }
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_REQUEST_H_
