// Shared vocabulary of the streamshim end-to-end benchmark (perfbench).
//
// The benchmark is kept apart from the system under test: it
// generates the input, offers it to MiniKafka, runs the 24 query setups
// through queries::run_query, and reads the results back from the broker.
// Nothing here reaches into engine internals; the per-layer numbers come
// from spans around the calls into each layer plus the existing profiler
// and metrics registry. See README.md for the workload and metric map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "queries/query_context.hpp"
#include "workload/streambench.hpp"

namespace perfbench {

using dsps::queries::Engine;
using dsps::queries::Sdk;
using dsps::workload::QueryId;

/// One benchmark workload: a data-plane configuration under which every
/// run measures the closed loop (24 setups) and the open loop (Flink native
/// and Flink Beam Identity at a fixed offered rate).
struct WorkloadSpec {
  std::string name;
  int parallelism = 1;
  int input_partitions = 1;
  bool fuse_stages = false;
  bool elide_coders = false;
  bool async_sinks = false;
  /// Closed loop: AOL records preloaded once per run.
  std::uint64_t closed_records = 0;
};

/// Returns nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// Seconds of steady-clock time since an arbitrary epoch.
double now_s();

// --- trace ------------------------------------------------------------------

/// In-memory span recorder. Spans carry name, start, end, parent span and
/// the run (pass) they belong to; they are written out once, at the end.
/// Disabled recorders cost one branch per span.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  int begin(std::string name, int parent);
  void end(int id);
  void set_run(int run) { run_ = run; }
  std::string to_json() const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    int run = -1;
  };
  bool enabled_;
  int run_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; `id()` is the parent handle for nested spans.
class SpanScope {
 public:
  SpanScope(Trace& trace, std::string name, int parent)
      : trace_(trace), id_(trace.begin(std::move(name), parent)) {}
  ~SpanScope() { trace_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

// --- statistics ---------------------------------------------------------------

/// Exact order statistic (nearest rank) of raw samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);

/// The highest of p50/p90/p99/p99.9/p99.99 that has at least ten samples
/// beyond it, or 0 when even p50 does not.
double highest_supported_quantile(std::size_t samples);

/// Exact percentiles of integer-microsecond samples (LogAppendTime has
/// microsecond resolution): one count per microsecond, so pooling every
/// run of a setup costs constant memory. Samples beyond the range read as
/// the range limit.
class MicrosHistogram {
 public:
  void add(std::int64_t us);
  std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile in microseconds; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kMaxUs = std::size_t{1} << 20;
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

// --- output verification ------------------------------------------------------

/// Order-insensitive multiset digest: count plus the wrapping sum of a
/// 64-bit mix of each value. Parallel runs reorder output, so order cannot
/// be part of the comparison.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void add(std::string_view value);
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Reference output digests of the four queries over `lines`, built with
/// the shared per-record logic every implementation reuses.
std::map<QueryId, Digest> reference_digests(
    const std::vector<std::string>& lines, std::uint64_t seed);

// --- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Printed next to timings: the highest supported percentile of the
  /// per-run samples the value is the median of, and their count.
  double high_q = 0.0;
  double high_value = 0.0;
  std::size_t samples = 0;
};

/// Median of `samples` as a metric, with its highest supported percentile.
Metric timing_metric(std::string name, const std::vector<double>& samples,
                     std::string unit);

/// Shortest round-trip decimal form of a double.
std::string format_number(double value);

}  // namespace perfbench
