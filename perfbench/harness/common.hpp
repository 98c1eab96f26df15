// Shared plumbing for the perfbench harness: options, the result sheet,
// in-memory spans, clocks and order statistics.
//
// The harness only calls the repository's public module APIs. Every span it
// records is taken here, around those calls; nothing inside src/ is traced.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs: exercises every path quickly
  unsigned nproc = 1;  ///< K for campaigns, threads for docking
  std::uint64_t campaign_seed = 2007;
  std::uint64_t serve_seed = 1;
  std::uint64_t receptor_seed = 13;
  std::uint64_t ligand_seed = 14;
  std::uint32_t dock_first = 0;  ///< first starting position of the slice
  std::string trace_out;         ///< Chrome trace of the spans (traced run)
};

/// What a metric is for. The result line of an untraced run holds exactly
/// the end-to-end metrics and that of a traced run exactly the per-layer
/// ones (the same names on every workload, as BENCHMARK.json lists them);
/// a workload's own breakdown is printed above the result line.
enum class Kind { kEndToEnd, kLayer, kDetail };

/// One named number. `samples` is how many observations stand behind it
/// (1 for a single timing, the RPC count for a latency quantile, ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
  Kind kind = Kind::kEndToEnd;
};

/// Everything a workload run produces: metrics plus the operation ledger
/// that becomes `attempted`/`failed`. A failed check is a failed operation.
struct Sheet {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// End-to-end metric (reported by every run; renamed `traced.*` and
  /// reported as a per-layer metric when the run is traced).
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Per-layer metric from the layer probes (traced runs only).
  void layer(std::string name, double value, std::string unit,
             std::uint64_t samples = 1) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, Kind::kLayer});
  }
  /// A number of the workload's own breakdown (traced runs only): printed
  /// in the table and the `details` line, not in the result line.
  void detail(std::string name, double value, std::string unit,
              std::uint64_t samples = 1) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, Kind::kDetail});
  }
  /// Counts one attempted operation; records it as failed unless `ok`.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
    return ok;
  }
  /// Bulk tally for operations that are not individual checks (RPCs).
  void tally(std::uint64_t attempted_ops, std::uint64_t failed_ops,
             const std::string& what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0 && failures.size() < 32)
      failures.push_back(what + ": " + std::to_string(failed_ops));
  }
};

/// In-memory span log, written out once at the end of a traced run.
/// A span names a call into one layer; `parent` links it to the span that
/// caused it (-1 at the root) and `id` groups the spans of one request.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}
  int open(const char* name, Clock::time_point start, int parent = -1,
           std::uint64_t id = 0) {
    spans_.push_back({name, since(start), -1.0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span, Clock::time_point end) {
    spans_[span].end = since(end);
  }
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t id = 0) {
    const int s = open(name, start, parent, id);
    close(s, end);
    return s;
  }
  /// Chrome trace_event JSON ("X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  double since(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t id;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Nearest-rank quantile of `v` (copied, so the caller's order survives).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  const auto k =
      static_cast<std::size_t>(std::clamp(std::ceil(q * n), 1.0, n)) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// CPU time the hypervisor has stolen from this machine's vCPUs since boot,
/// in seconds (the `steal` column of /proc/stat; 0 where it is not kept).
double steal_seconds();

void run_campaign_workload(const Options& opt, bool faults, Sheet& sheet,
                           Spans* spans);
void run_serve_workload(const Options& opt, Sheet& sheet, Spans* spans);
void run_dock_workload(const Options& opt, Sheet& sheet, Spans* spans);

/// Layer probes: each times one module's public functions on inputs of its
/// own, the same on every workload, so every traced run reports every
/// per-layer metric. Each adds its metrics with Sheet::layer.
void campaign_layer_probes(const Options& opt, Sheet& sheet, Spans* spans);
void serve_layer_probes(const Options& opt, Sheet& sheet, Spans* spans);
void dock_layer_probes(const Options& opt, Sheet& sheet, Spans* spans);

}  // namespace perfbench
