#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace unn {
namespace obs {

namespace internal {

int ThreadShard() {
  static std::atomic<int> next{0};
  // relaxed: shard ids only need to be distinct-ish across threads; no
  // data is published through the round-robin counter.
  // lint:allow(trace-thread-local) counter-slab shard id, the one
  // sanctioned thread_local (trace contexts are value-threaded, PR 7).
  thread_local const int shard = next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

}  // namespace internal

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Finite bucket boundaries: 10^(8i/126) for i = 0..126, so bucket 0 ends
/// at 1 and bucket 126 at 1e8 (microsecond convention: 1us .. 100s).
const std::array<double, Histogram::kBuckets - 1>& FiniteUppers() {
  static const std::array<double, Histogram::kBuckets - 1> uppers = [] {
    std::array<double, Histogram::kBuckets - 1> u{};
    for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
      u[i] = std::pow(10.0, 8.0 * i / (Histogram::kBuckets - 2));
    }
    return u;
  }();
  return uppers;
}

int BucketIndex(double v) {
  const auto& uppers = FiniteUppers();
  // First bucket whose upper boundary is >= v; overflow past the last.
  auto it = std::lower_bound(uppers.begin(), uppers.end(), v);
  if (it == uppers.end()) return Histogram::kOverflowBucket;
  return static_cast<int>(it - uppers.begin());
}

}  // namespace

double Histogram::BucketUpper(int i) {
  UNN_CHECK(i >= 0 && i < kBuckets);
  if (i == kOverflowBucket) return kInf;
  return FiniteUppers()[i];
}

void Histogram::Record(double v, std::uint64_t n) {
  if (n == 0) return;
  if (!(v >= 0.0)) v = 0.0;  // Negative or NaN: clamp into bucket 0.
  // relaxed: bucket/sum/max race only with other recordings; readers
  // accept eventually-consistent cross-field snapshots (metrics.h).
  buckets_[BucketIndex(v)].fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
  double prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  // relaxed: snapshot sum, exact once writers quiesce.
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

HistogramSummary Histogram::Summarize() const {
  HistogramSummary s;
  std::array<std::uint64_t, kBuckets> counts;
  // relaxed: a summary is a point-in-time snapshot; buckets recorded
  // concurrently may or may not be included (metrics.h contract).
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += counts[i];
  }
  if (s.count == 0) return s;  // Empty histogram: all zeros, no percentiles.
  // relaxed: same snapshot contract as the bucket reads above.
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  auto percentile = [&](double p) {
    // Rank-th smallest sample, rank in [1, count]. The estimate is the
    // bucket's upper boundary clamped to the observed max — exact for a
    // single sample and for the overflow bucket, an upper bound otherwise.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(s.count)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= rank) {
        if (i == kOverflowBucket) return s.max;
        return std::min(BucketUpper(i), s.max);
      }
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

namespace {

std::string SerializeLabels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    out += k;
    out += '\x1f';
    out += v;
    out += '\x1e';
  }
  return out;
}

}  // namespace

template <typename M>
M* Registry::GetOrCreateLocked(std::deque<Entry<M>>& entries, MetricKind kind,
                               const std::string& name,
                               const std::string& help, Labels labels) {
  auto key = std::make_pair(name, SerializeLabels(labels));
  auto it = index_.find(key);
  if (it != index_.end()) {
    UNN_CHECK(it->second.first == kind);  // Same name+labels, one kind.
    return static_cast<M*>(it->second.second);
  }
  // emplace + assign: the metric types hold atomics, which are neither
  // copyable nor movable.
  entries.emplace_back();
  Entry<M>& e = entries.back();
  e.name = name;
  e.help = help;
  e.labels = std::move(labels);
  e.order = next_order_++;
  M* handle = &e.metric;
  index_.emplace(std::move(key), std::make_pair(kind, handle));
  return handle;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              Labels labels) {
  MutexLock lock(&mu_);
  return GetOrCreateLocked(counters_, MetricKind::kCounter, name, help,
                           std::move(labels));
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          Labels labels) {
  MutexLock lock(&mu_);
  return GetOrCreateLocked(gauges_, MetricKind::kGauge, name, help,
                           std::move(labels));
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help, Labels labels) {
  MutexLock lock(&mu_);
  return GetOrCreateLocked(histograms_, MetricKind::kHistogram, name, help,
                           std::move(labels));
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<int, MetricSnapshot>> ordered;
  ordered.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& e : counters_) {
    MetricSnapshot m;
    m.name = e.name;
    m.help = e.help;
    m.labels = e.labels;
    m.kind = MetricKind::kCounter;
    m.value = static_cast<double>(e.metric.Value());
    ordered.emplace_back(e.order, std::move(m));
  }
  for (const auto& e : gauges_) {
    MetricSnapshot m;
    m.name = e.name;
    m.help = e.help;
    m.labels = e.labels;
    m.kind = MetricKind::kGauge;
    m.value = e.metric.Value();
    ordered.emplace_back(e.order, std::move(m));
  }
  for (const auto& e : histograms_) {
    MetricSnapshot m;
    m.name = e.name;
    m.help = e.help;
    m.labels = e.labels;
    m.kind = MetricKind::kHistogram;
    m.buckets.resize(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      m.buckets[i] = e.metric.bucket_count(i);
    }
    m.summary = e.metric.Summarize();
    m.sum = m.summary.sum;
    m.max = m.summary.max;
    m.count = m.summary.count;
    ordered.emplace_back(e.order, std::move(m));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<MetricSnapshot> out;
  out.reserve(ordered.size());
  for (auto& [order, m] : ordered) out.push_back(std::move(m));
  return out;
}

}  // namespace obs
}  // namespace unn
