// The observability layer (src/obs/): metric primitives (sharded Counter,
// Gauge, geometric Histogram with its percentile contract — empty -> zeros,
// single sample exact, overflow reports the observed max, p50 <= p95 <= p99
// always), the Registry's idempotent-handle and snapshot-order contracts
// under concurrent churn (the TSan job runs this suite), span-tree tracing
// including the zero-cost disabled mode, and both exporters' output
// formats.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace unn {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_EQ(g.Value(), 4.0);
  g.Add(-4.0);
  EXPECT_EQ(g.Value(), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptySummarizesToZeros) {
  Histogram h;
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(HistogramTest, SingleSampleIsExact) {
  Histogram h;
  h.Record(137.0);
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 137.0);
  EXPECT_EQ(s.max, 137.0);
  // Percentiles are bucket upper bounds clamped to the observed max, so a
  // single sample is reported exactly at every percentile.
  EXPECT_EQ(s.p50, 137.0);
  EXPECT_EQ(s.p95, 137.0);
  EXPECT_EQ(s.p99, 137.0);
}

TEST(HistogramTest, AboveTopBucketReportsObservedMax) {
  Histogram h;
  const double huge = 5e9;  // Above the 1e8 top finite boundary.
  h.Record(huge);
  EXPECT_EQ(h.bucket_count(Histogram::kOverflowBucket), 1u);
  HistogramSummary s = h.Summarize();
  // The overflow bucket's percentile estimate is the observed max, not a
  // clamped finite boundary.
  EXPECT_EQ(s.p50, huge);
  EXPECT_EQ(s.p99, huge);
  EXPECT_EQ(s.max, huge);
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  Histogram h;
  h.Record(0.0);
  h.Record(-17.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.count(), 3u);
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.p99, 0.0);  // Clamped to the observed max of 0.
}

// Record(v, n) is n recordings of v in one update: the server records a
// pack's shared completion latency this way.
TEST(HistogramTest, RecordManyEqualsRepeatedRecords) {
  Histogram once, repeated;
  once.Record(37.0, 5);
  once.Record(900.0, 0);  // No-op.
  once.Record(-2.0, 3);   // Clamped into bucket 0, like a single record.
  for (int i = 0; i < 5; ++i) repeated.Record(37.0);
  for (int i = 0; i < 3; ++i) repeated.Record(-2.0);
  EXPECT_EQ(once.count(), 8u);
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(once.bucket_count(i), repeated.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(once.sum(), repeated.sum());
  EXPECT_EQ(once.max(), repeated.max());
}

TEST(HistogramTest, BucketBoundariesAreMonotone) {
  EXPECT_EQ(Histogram::BucketUpper(0), 1.0);
  for (int i = 1; i < Histogram::kOverflowBucket; ++i) {
    EXPECT_GT(Histogram::BucketUpper(i), Histogram::BucketUpper(i - 1))
        << "bucket " << i;
  }
  EXPECT_NEAR(Histogram::BucketUpper(Histogram::kOverflowBucket - 1), 1e8,
              1e8 * 1e-9);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpper(Histogram::kOverflowBucket)));
}

TEST(HistogramTest, PercentilesAreOrderedUpperBounds) {
  // 90 fast, 9 medium, 1 slow: p50 must sit in the fast band, p95 in the
  // medium band, p99 at the slow sample — each within one geometric bucket
  // (ratio 10^(8/126) ~ 1.158) above the true value.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10.0);
  for (int i = 0; i < 9; ++i) h.Record(1000.0);
  h.Record(100000.0);

  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max, 100000.0);
  const double ratio = std::pow(10.0, 8.0 / 126.0);
  EXPECT_GE(s.p50, 10.0);
  EXPECT_LE(s.p50, 10.0 * ratio);
  EXPECT_GE(s.p95, 1000.0);
  EXPECT_LE(s.p95, 1000.0 * ratio);
  EXPECT_GE(s.p99, 1000.0);
  EXPECT_LE(s.p99, 100000.0);
  // The ordering invariant that motivated the upper-bound-clamped design.
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(1 + (t * kPerThread + i) % 5000));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_LE(s.max, 5000.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, HandlesAreIdempotentPerNameAndLabels) {
  Registry r;
  Counter* a = r.GetCounter("unn_test_total", "help");
  Counter* b = r.GetCounter("unn_test_total", "help");
  EXPECT_EQ(a, b);
  Counter* c = r.GetCounter("unn_test_total", "help", {{"type", "x"}});
  Counter* d = r.GetCounter("unn_test_total", "help", {{"type", "y"}});
  EXPECT_NE(c, d);
  EXPECT_NE(a, c);
  EXPECT_EQ(c, r.GetCounter("unn_test_total", "help", {{"type", "x"}}));

  Gauge* g = r.GetGauge("unn_test_gauge", "help");
  EXPECT_EQ(g, r.GetGauge("unn_test_gauge", "help"));
  Histogram* h = r.GetHistogram("unn_test_us", "help");
  EXPECT_EQ(h, r.GetHistogram("unn_test_us", "help"));
}

TEST(RegistryTest, SnapshotPreservesRegistrationOrderAndValues) {
  Registry r;
  Counter* c = r.GetCounter("unn_c_total", "a counter");
  Gauge* g = r.GetGauge("unn_g", "a gauge");
  Histogram* h = r.GetHistogram("unn_h_us", "a histogram");
  c->Inc(3);
  g->Set(7.5);
  h->Record(12.0);
  h->Record(34.0);

  std::vector<MetricSnapshot> snap = r.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "unn_c_total");
  EXPECT_EQ(snap[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[0].help, "a counter");
  EXPECT_EQ(snap[1].name, "unn_g");
  EXPECT_EQ(snap[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[1].value, 7.5);
  EXPECT_EQ(snap[2].name, "unn_h_us");
  EXPECT_EQ(snap[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap[2].count, 2u);
  EXPECT_EQ(snap[2].sum, 46.0);
  EXPECT_EQ(snap[2].max, 34.0);
  ASSERT_EQ(snap[2].buckets.size(), static_cast<size_t>(Histogram::kBuckets));
}

// The TSan job runs this suite: 8 threads hammer registration (idempotent
// lookups and fresh label sets) and mutation while the main thread races
// snapshots. Handles must stay pointer-stable and totals exact.
TEST(RegistryTest, ConcurrentChurnAndSnapshots) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      Counter* shared = r.GetCounter("unn_churn_total", "shared counter");
      Histogram* h = r.GetHistogram("unn_churn_us", "shared histogram");
      for (int i = 0; i < kIters; ++i) {
        shared->Inc();
        h->Record(static_cast<double>(1 + i));
        // Fresh label sets force real registrations under the lock.
        Counter* mine = r.GetCounter(
            "unn_churn_labeled_total", "per-thread counter",
            {{"thread", std::to_string(t)}, {"i", std::to_string(i % 16)}});
        mine->Inc();
      }
    });
  }
  // Race snapshots against the churn until every label set has appeared.
  size_t last_size = 0;
  const size_t want = 2 + static_cast<size_t>(kThreads) * 16;
  while (last_size < want) {
    std::vector<MetricSnapshot> snap = r.Snapshot();
    EXPECT_GE(snap.size(), last_size);  // Entries are never removed.
    last_size = snap.size();
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(r.GetCounter("unn_churn_total", "shared counter")->Value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t labeled = 0;
  for (const MetricSnapshot& m : r.Snapshot()) {
    if (m.name == "unn_churn_labeled_total") {
      labeled += static_cast<std::uint64_t>(m.value);
    }
  }
  EXPECT_EQ(labeled, static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, SpanTreeLifecycle) {
  TraceContext ctx;
  std::int32_t root = ctx.StartSpan("request");
  {
    ScopedSpan admission(TraceNode{&ctx, root}, "admission");
    ScopedSpan lookup(admission.node(), "cache_lookup");
  }
  std::int32_t fan = ctx.StartSpan("shard_fanout", root, /*tag=*/2);
  ctx.StartSpan("shard_query", fan, /*tag=*/0);
  ctx.EndSpan(fan);
  ctx.EndSpan(root);

  std::vector<Span> spans = ctx.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(std::string(spans[0].name), "request");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(std::string(spans[1].name), "admission");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(std::string(spans[2].name), "cache_lookup");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[3].tag, 2);
  EXPECT_EQ(spans[4].parent, fan);
  EXPECT_EQ(spans[4].end_ns, -1);  // shard_query was never ended.
  for (const Span& s : spans) {
    EXPECT_GE(s.start_ns, 0);
    if (s.end_ns >= 0) EXPECT_GE(s.end_ns, s.start_ns);
  }
  // RAII-ended spans are closed.
  EXPECT_GE(spans[1].end_ns, 0);
  EXPECT_GE(spans[2].end_ns, 0);
}

TEST(TraceTest, DisabledNodeIsNoOp) {
  // The design center: a null context makes every span site a pointer test.
  ScopedSpan outer(TraceNode{}, "request");
  ScopedSpan inner(outer.node(), "child", /*tag=*/7);
  inner.End();
  outer.End();
  EXPECT_EQ(outer.node().ctx, nullptr);
}

TEST(TraceTest, ScopedSpanEndIsIdempotent) {
  TraceContext ctx;
  ScopedSpan s(TraceNode{&ctx, -1}, "once");
  s.End();
  s.End();  // Second End (and the destructor) must not double-close.
  std::vector<Span> spans = ctx.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end_ns, 0);
}

TEST(TraceTest, RenderSpanTreeShowsHierarchy) {
  TraceContext ctx;
  std::int32_t root = ctx.StartSpan("request");
  std::int32_t eng = ctx.StartSpan("engine_query", root);
  ctx.StartSpan("shard_query", eng, /*tag=*/3);
  ctx.EndSpan(eng);
  ctx.EndSpan(root);

  std::string rendered = RenderSpanTree(ctx.spans());
  EXPECT_NE(rendered.find("request"), std::string::npos);
  EXPECT_NE(rendered.find("engine_query"), std::string::npos);
  EXPECT_NE(rendered.find("shard_query"), std::string::npos);
  EXPECT_NE(rendered.find("tag=3"), std::string::npos);
  // Children render after (indented under) their parents.
  EXPECT_LT(rendered.find("request"), rendered.find("engine_query"));
  EXPECT_LT(rendered.find("engine_query"), rendered.find("shard_query"));
}

// ---------------------------------------------------------------------------
// Exporters

std::vector<MetricSnapshot> SampleSnapshot() {
  // Built inside a local registry so tests work on plain snapshot data.
  Registry r;
  Counter* qx =
      r.GetCounter("unn_queries_total", "Total queries.", {{"type", "top_k"}});
  Counter* qy = r.GetCounter("unn_queries_total", "Total queries.",
                             {{"type", "threshold"}});
  Gauge* g = r.GetGauge("unn_inflight", "In-flight requests.");
  Histogram* h = r.GetHistogram("unn_latency_us", "Latency.");
  qx->Inc(5);
  qy->Inc(2);
  g->Set(3);
  h->Record(10.0);
  h->Record(2000.0);
  return r.Snapshot();
}

TEST(ExportTest, PrometheusTextFormat) {
  std::string text = ToPrometheusText(SampleSnapshot());

  // One HELP/TYPE header per family, even with several label sets.
  EXPECT_NE(text.find("# HELP unn_queries_total Total queries."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE unn_queries_total counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE unn_queries_total counter"),
            text.rfind("# TYPE unn_queries_total counter"));
  EXPECT_NE(text.find("unn_queries_total{type=\"top_k\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("unn_queries_total{type=\"threshold\"} 2"),
            std::string::npos);

  EXPECT_NE(text.find("# TYPE unn_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("unn_inflight 3"), std::string::npos);

  // Histograms: cumulative buckets ending at +Inf, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE unn_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("unn_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("unn_latency_us_sum 2010"), std::string::npos);
  EXPECT_NE(text.find("unn_latency_us_count 2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  Registry r;
  r.GetCounter("unn_esc_total", "h", {{"path", "a\"b\\c\nd"}})->Inc();
  std::string text = ToPrometheusText(r.Snapshot());
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(ExportTest, JsonCarriesSummaries) {
  std::string json = ToJson(SampleSnapshot());
  EXPECT_NE(json.find("\"name\": \"unn_queries_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"top_k\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  // Histograms export percentile summaries rather than raw buckets.
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  // Balanced brackets as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ExportTest, ExportDispatchesOnFormat) {
  std::vector<MetricSnapshot> snap = SampleSnapshot();
  EXPECT_EQ(Export(snap, MetricsFormat::kPrometheus), ToPrometheusText(snap));
  EXPECT_EQ(Export(snap, MetricsFormat::kJson), ToJson(snap));
}

}  // namespace
}  // namespace obs
}  // namespace unn
