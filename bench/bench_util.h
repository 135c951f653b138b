#ifndef UNN_BENCH_BENCH_UTIL_H_
#define UNN_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "geom/vec2.h"

#if !defined(UNN_GIT_SHA) && __has_include("unn_git_sha.h")
#include "unn_git_sha.h"
#endif

/// \file bench_util.h
/// Shared helpers for the experiment drivers (E1..E15). Each driver prints
/// a self-contained table; its file comment names the theorem or claim it
/// measures and the expected outcome. Every driver also understands three
/// flags:
///   --tiny          shrink the input sweep (the CI bench-smoke job);
///   --json <path>   additionally write the measurements as JSON — the
///                   BENCH_pr.json artifact that seeds the perf trajectory.
///                   Every document is stamped with provenance (git_sha,
///                   build_type, wall-clock time) so artifacts stay
///                   attributable across PRs;
///   --metrics <path> drivers that stand up a QueryServer write its
///                   Prometheus DumpMetrics() exposition here (e13).

namespace unn {
namespace bench {

/// Picks the --tiny sweep or the full sweep.
template <class T>
std::vector<T> Sweep(bool tiny, std::vector<T> small, std::vector<T> full) {
  return tiny ? std::move(small) : std::move(full);
}

/// Shared driver command line (see file comment).
struct Args {
  bool tiny = false;
  std::string json_path;
  std::string metrics_path;
};

inline Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s == "--tiny") {
      a.tiny = true;
    } else if (s == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (s.rfind("--json=", 0) == 0) {
      a.json_path = s.substr(7);
    } else if (s == "--metrics" && i + 1 < argc) {
      a.metrics_path = argv[++i];
    } else if (s.rfind("--metrics=", 0) == 0) {
      a.metrics_path = s.substr(10);
    }
  }
  return a;
}

/// Build provenance: the commit the bench targets were built from
/// (unn_git_sha.h, written at build time by cmake/git_sha.cmake), or a
/// UNN_GIT_SHA the including build defines itself; "unknown" when built
/// outside a git checkout (e.g. a tarball).
inline const char* GitSha() {
#ifdef UNN_GIT_SHA
  return UNN_GIT_SHA;
#else
  return "unknown";
#endif
}

inline const char* BuildType() {
#ifdef UNN_BUILD_TYPE
  return (UNN_BUILD_TYPE)[0] != '\0' ? UNN_BUILD_TYPE : "unknown";
#else
  return "unknown";
#endif
}

/// Writes the Prometheus exposition text to `path`; no-op when empty.
inline bool WriteMetricsDump(const std::string& path,
                             const std::string& text) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "WriteMetricsDump: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Collects named measurements row by row and serializes them as
///   {"experiment": "e01", "rows": [{"n": 8, "build_ms": 1.5}, ...]}
/// so CI can diff benchmark runs across PRs.
class JsonEmitter {
 public:
  explicit JsonEmitter(std::string experiment)
      : experiment_(std::move(experiment)) {}

  void StartRow() { rows_.emplace_back(); }

  void Metric(const std::string& key, double value) {
    if (rows_.empty()) rows_.emplace_back();
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    rows_.back().push_back({key, buf});
  }

  /// A string-valued field (e.g. which structure a row measures). The
  /// value must not need JSON escaping (labels only).
  void Str(const std::string& key, const std::string& value) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().push_back({key, "\"" + value + "\""});
  }

  std::string ToJson() const {
    std::string out = "{\"experiment\": \"" + experiment_ + "\",";
    out += " \"git_sha\": \"" + std::string(GitSha()) + "\",";
    out += " \"build_type\": \"" + std::string(BuildType()) + "\",";
    char stamp[32];
    std::snprintf(stamp, sizeof stamp, "%lld",
                  static_cast<long long>(
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()));
    out += " \"unix_time_ms\": " + std::string(stamp) + ",";
    out += " \"rows\": [";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out += r == 0 ? "\n" : ",\n";
      out += "  {";
      for (size_t m = 0; m < rows_[r].size(); ++m) {
        if (m > 0) out += ", ";
        out += "\"" + rows_[r][m].first + "\": " + rows_[r][m].second;
      }
      out += "}";
    }
    out += "\n]}\n";
    return out;
  }

  /// Writes the JSON to `path`; no-op when `path` is empty. Returns false
  /// (after warning on stderr) when the file cannot be written.
  bool Write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonEmitter: cannot write %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  std::string experiment_;
  /// Per row: (key, already-serialized JSON value).
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Least-squares slope of log(y) vs log(x): the measured growth exponent.
inline double LogLogSlope(const std::vector<std::pair<double, double>>& xy) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (auto [x, y] : xy) {
    if (x <= 0 || y <= 0) continue;
    double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

inline std::vector<geom::Vec2> RandomQueries(int count, double extent,
                                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-extent, extent);
  std::vector<geom::Vec2> qs(count);
  for (auto& q : qs) q = {u(rng), u(rng)};
  return qs;
}

}  // namespace bench
}  // namespace unn

#endif  // UNN_BENCH_BENCH_UTIL_H_
