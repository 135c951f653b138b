#ifndef UNN_OBS_EXPORT_H_
#define UNN_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file export.h
/// Snapshot serializers: Prometheus text exposition format (version
/// 0.0.4 — HELP/TYPE headers, cumulative `_bucket{le=...}` histograms
/// with `_sum`/`_count`) and a JSON document (one object per metric,
/// histograms carry count/sum/max plus p50/p95/p99 instead of raw
/// buckets). Pure functions over MetricSnapshot, so anything that can
/// produce snapshots (Registry::Snapshot) can be exported. Snapshots
/// sharing a name (e.g. a counter per label set) are grouped under one
/// HELP/TYPE header as Prometheus requires.

namespace unn {
namespace obs {

enum class MetricsFormat { kPrometheus, kJson };

std::string ToPrometheusText(const std::vector<MetricSnapshot>& metrics);
std::string ToJson(const std::vector<MetricSnapshot>& metrics);

/// Dispatches on `format`.
std::string Export(const std::vector<MetricSnapshot>& metrics,
                   MetricsFormat format);

}  // namespace obs
}  // namespace unn

#endif  // UNN_OBS_EXPORT_H_
