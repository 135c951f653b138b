#ifndef UNN_SERVE_SERVER_STATS_H_
#define UNN_SERVE_SERVER_STATS_H_

#include <array>
#include <cstdint>

#include "engine/engine.h"

/// \file server_stats.h
/// Serving observability: the structured ServerStats snapshot QueryServer
/// reports. The counters behind it live in the server's obs::Registry
/// (src/obs/metrics.h) — ServerStats is the stable, struct-shaped view
/// reconstructed from those handles. Everything here follows the
/// relaxed-counter contract the old three-counter Stats had (see
/// ServerStats below); nothing on the serving hot path takes a lock or
/// issues a fence for accounting.

namespace unn {
namespace serve {

/// Number of Engine::QueryType values (the per-type stats arrays are
/// indexed by `static_cast<int>(type)`).
inline constexpr int kNumQueryTypes = 5;

/// Result-cache counters (one consistent-enough snapshot; see the
/// ServerStats ordering contract).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries removed to respect the byte budget.
  uint64_t entries = 0;    ///< Currently resident entries.
  uint64_t bytes = 0;      ///< Currently resident bytes (approximate).
};

/// Percentiles of one latency population, in microseconds. Values come
/// from the log-bucketed obs::Histogram (src/obs/metrics.h): each is the
/// bucket upper boundary clamped to the observed maximum, so they are
/// upper-bound estimates (~16% resolution), always ordered
/// p50 <= p95 <= p99, exact for a single sample, and zero when empty.
struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
};

/// The structured QueryServer stats snapshot (successor of the historical
/// three-counter Stats struct — `queries` / `batches` / `swaps` keep
/// their names and meanings, so existing readers compile unchanged).
///
/// Ordering contract (inherited from the old counters): every counter is
/// maintained with relaxed atomics. Each is individually monotone and
/// no increment is ever lost, but a concurrent reader may observe them
/// in any relative order — e.g. a swap before the queries that preceded
/// it, or `cache.hits + cache.misses` momentarily behind `queries`. A
/// snapshot taken after the server quiesces is exact.
struct ServerStats {
  // Traffic.
  uint64_t queries = 0;  ///< Single queries + batched queries accepted.
  uint64_t batches = 0;  ///< QueryBatch calls.
  uint64_t swaps = 0;    ///< Dataset replacements.
  std::array<uint64_t, kNumQueryTypes> queries_by_type{};

  // QoS outcomes.
  uint64_t shed = 0;               ///< Refused by admission control.
  uint64_t deadline_exceeded = 0;  ///< Dropped past their deadline.

  // Result cache.
  CacheStats cache;

  /// Per-type serving latency (admission to completion) over every
  /// answered request — computed and cache-hit alike; refused
  /// requests (shed / deadline-exceeded) are excluded.
  std::array<LatencySummary, kNumQueryTypes> latency_by_type{};

  const LatencySummary& latency(Engine::QueryType type) const {
    return latency_by_type[static_cast<int>(type)];
  }
};

}  // namespace serve
}  // namespace unn

#endif  // UNN_SERVE_SERVER_STATS_H_
