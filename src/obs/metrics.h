#ifndef UNN_OBS_METRICS_H_
#define UNN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

/// \file metrics.h
/// Lock-light metrics primitives and the registry that names them — the
/// single metrics surface behind serve::ServerStats and the result cache
/// (see docs/OBSERVABILITY.md for the catalog).
///
///   * Counter   — monotone u64 over per-thread-sharded, cache-line-padded
///                 atomic cells: Inc() is one relaxed fetch_add on the
///                 calling thread's cell, Value() sums the cells.
///   * Gauge     — a single atomic double (set-dominated, rarely raced).
///   * Histogram — 128 geometric buckets spanning [1, 1e8] (microseconds
///                 by convention), an atomic sum and max; percentiles are
///                 upper bounds clamped to the observed max, so a
///                 single-sample histogram reports that sample exactly and
///                 p50 <= p95 <= p99 always holds. Values above the top
///                 boundary land in a dedicated overflow bucket whose
///                 percentile estimate is the observed max (not a clamped
///                 boundary), fixing the old LatencyHistogram's top-bucket
///                 understatement.
///
/// Threading contract (matches the old ServerStats): all mutation uses
/// relaxed atomics — counts race only with other counts, never with data
/// they describe, so totals are exact while cross-metric snapshots are
/// only eventually consistent. Registration takes a mutex; handles are
/// pointer-stable for the registry's lifetime, so hot paths hold a raw
/// `Counter*` and never touch the lock again.

namespace unn {
namespace obs {

namespace internal {
/// The calling thread's slab shard, assigned round-robin on first use.
int ThreadShard();
}  // namespace internal

/// Monotone counter over kShards cache-line-padded atomic cells. Inc() is
/// wait-free (one relaxed fetch_add, no false sharing between threads on
/// different shards); Value() is a relaxed sum, exact once writers quiesce.
class Counter {
 public:
  static constexpr int kShards = 8;

  void Inc(std::uint64_t n = 1) {
    // relaxed: counts race only with other counts, never with the data
    // they describe (file-level threading contract above).
    cells_[internal::ThreadShard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    // relaxed: per-cell sums are exact once writers quiesce; concurrent
    // readers accept an eventually-consistent total.
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  static_assert((kShards & (kShards - 1)) == 0, "kShards must be a power of 2");
  std::array<Cell, kShards> cells_{};
};

/// Point-in-time value; Set/Add are relaxed atomics on one double.
class Gauge {
 public:
  // relaxed: a gauge is a free-standing point-in-time value; it never
  // publishes other data (file-level threading contract above).
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    // relaxed: fetch_add on atomic<double> is C++20; same contract as Set.
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  // relaxed: observability read; staleness is acceptable by contract.
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Percentile summary of a Histogram. All values are upper bounds except
/// that every percentile is clamped to the observed max (and the overflow
/// bucket reports the max itself), so p50 <= p95 <= p99 <= max holds and
/// an empty histogram summarizes to all zeros.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed-layout geometric histogram: buckets 0..126 have finite upper
/// boundaries 10^(8i/126) covering [1, 1e8]; bucket 127 is the overflow
/// (+Inf) bucket. Record() is two relaxed atomic RMWs plus a CAS loop for
/// the max; values <= 0 count into bucket 0.
class Histogram {
 public:
  static constexpr int kBuckets = 128;
  static constexpr int kOverflowBucket = kBuckets - 1;

  /// Records `v` `n` times at the cost of one recording.
  void Record(double v, std::uint64_t n = 1);

  /// Upper boundary of bucket `i`; +infinity for the overflow bucket.
  static double BucketUpper(int i);

  HistogramSummary Summarize() const;

  std::uint64_t bucket_count(int i) const {
    // relaxed: snapshot read of one bucket; cross-bucket consistency is
    // only eventual (file-level threading contract above).
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const;
  // relaxed: same snapshot-read contract as bucket_count.
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Label set, ordered as registered (rendered verbatim by the exporters).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One metric's point-in-time state, decoupled from the live handles so
/// exporters and tests work on plain data.
struct MetricSnapshot {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< Counter / gauge value.
  /// Histogram-only: per-bucket counts (size Histogram::kBuckets), total
  /// sum/count and observed max.
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;
  HistogramSummary summary;  ///< Histogram-only.
};

/// Names and owns metric instances. Get*() registers on first use and is
/// idempotent on (name, labels) — callers resolve handles once at setup
/// and keep the raw pointer, which stays valid for the registry's
/// lifetime. Registration locks a mutex; Snapshot() locks it only to walk
/// the (stable) entry list, racing benignly with relaxed writers.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {});

  /// Point-in-time state of every registered metric, in registration
  /// order (counters, gauges, histograms interleaved as registered).
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  template <typename M>
  struct Entry {
    std::string name;
    std::string help;
    Labels labels;
    int order = 0;  ///< Global registration sequence for Snapshot order.
    M metric;
  };

  /// Registration slow path. Locked variant: the public Get*() methods
  /// take mu_ first, so the guarded deques are never passed by reference
  /// without the capability held.
  template <typename M>
  M* GetOrCreateLocked(std::deque<Entry<M>>& entries, MetricKind kind,
                       const std::string& name, const std::string& help,
                       Labels labels) UNN_REQUIRES(mu_);

  mutable Mutex mu_;
  int next_order_ UNN_GUARDED_BY(mu_) = 0;
  // std::deque: pointer-stable under push_back, so handles survive later
  // registrations. The deques (entry list + metric storage) are guarded;
  // the handed-out metric handles are themselves atomic and lock-free.
  std::deque<Entry<Counter>> counters_ UNN_GUARDED_BY(mu_);
  std::deque<Entry<Gauge>> gauges_ UNN_GUARDED_BY(mu_);
  std::deque<Entry<Histogram>> histograms_ UNN_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, std::pair<MetricKind, void*>>
      index_ UNN_GUARDED_BY(mu_);  ///< (name, labels) -> existing handle.
};

}  // namespace obs
}  // namespace unn

#endif  // UNN_OBS_METRICS_H_
