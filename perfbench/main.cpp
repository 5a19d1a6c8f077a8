// perfbench: the streamshim data-plane benchmark.
//
//   perfbench --workload <paper-p1|mitigated-p2> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>] [--commit <id>]
//             [--broker-rtt-us <us>]
//
// Each run sets up its input several times (set-up time is the median),
// then repeats passes until --seconds is used up. A pass is the closed loop
// over all 24 setups followed by the open loop (Flink native and Flink Beam
// Identity at a fixed offered rate). Every output is verified. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 passes alternate between a disarmed and an armed profiler, the
// per-layer metrics come from the armed passes, and the spans are written
// to --trace-out.
#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "open_loop.hpp"
#include "perfbench.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"

namespace {

using namespace perfbench;
using dsps::runtime::MetricsRegistry;
using dsps::runtime::MetricsSnapshot;
using dsps::runtime::Profiler;
using dsps::runtime::Stage;

constexpr int kSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::int64_t rtt_us = 25;  // the paper-calibrated simulated broker RTT
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--broker-rtt-us") {
      args.rtt_us = std::strtoll(value, &end, 10);
      if (*end != '\0' || args.rtt_us < 0) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// --- host/build fingerprint ---------------------------------------------------

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string sanitizer_flags() {
  std::string flags;
#if defined(__SANITIZE_ADDRESS__)
  flags += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  flags += "thread ";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    flags += "flags:" + std::string(PERFBENCH_CXX_FLAGS);
  }
  return flags;
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

std::string fingerprint_json(const Args& args) {
  return std::string("{\"fingerprint\": {\"cpu\": \"") + cpu_model() +
         "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
         "\", \"compiler\": \"gcc " + __VERSION__ +
         "\", \"sanitizers\": \"" + sanitizer_flags() +
         "\", \"optimized\": " + (kOptimized ? "true" : "false") +
         ", \"commit\": \"" + args.commit +
         "\", \"seed\": " + std::to_string(args.seed) +
         ", \"workload\": \"" + args.workload +
         "\", \"broker_rtt_us\": " + std::to_string(args.rtt_us) + "}}";
}

// --- metrics ------------------------------------------------------------------

/// Deltas of the process-global metrics registry over the measured passes.
std::uint64_t counter_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            const std::string& name) {
  return after.counter(name) - before.counter(name);
}

dsps::runtime::HistogramSummary histogram_delta(const MetricsSnapshot& before,
                                                const MetricsSnapshot& after,
                                                const std::string& name) {
  dsps::runtime::HistogramSummary delta;
  const auto later = after.histograms.find(name);
  if (later == after.histograms.end()) return delta;
  delta = later->second;
  const auto earlier = before.histograms.find(name);
  if (earlier == before.histograms.end()) return delta;
  delta.count -= earlier->second.count;
  delta.sum_us -= earlier->second.sum_us;
  for (std::size_t i = 0;
       i < delta.buckets.size() && i < earlier->second.buckets.size(); ++i) {
    delta.buckets[i] -= earlier->second.buckets[i];
  }
  return delta;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Sum over the four queries of each setup's median execution span.
double group_span_s(const ClosedLoop& closed, std::size_t group,
                    bool armed) {
  double total = 0.0;
  for (std::size_t q = 0; q < kQueries.size(); ++q) {
    const SetupSamples& s = closed.samples(group, q);
    total += median(armed ? s.armed_span_s : s.span_s);
  }
  return total;
}

std::vector<double> concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::vector<Metric> end_to_end(const ClosedLoop& closed, const OpenLoop& open,
                               const std::vector<double>& setup_s,
                               double first_pass_rss_mb) {
  std::vector<Metric> metrics;
  metrics.push_back(timing_metric("setup_s", setup_s, "s"));
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    // Summing spans keeps the short Grep runs from dominating the rate.
    const double span = group_span_s(closed, g, false);
    metrics.push_back(Metric{
        .name = std::string(kGroups[g].name) + "_rps",
        .value = span > 0.0 ? 4.0 * static_cast<double>(closed.records()) / span
                            : 0.0,
        .unit = "records/s",
        .samples = closed.samples(g, 0).span_s.size()});
  }
  Metric pass{.name = "pass_s", .unit = "s"};
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    for (std::size_t q = 0; q < kQueries.size(); ++q) {
      pass.value += median(closed.samples(g, q).run_s);
      pass.samples = closed.samples(g, q).run_s.size();
    }
  }
  metrics.push_back(pass);
  metrics.push_back(
      timing_metric("native_lat_p50_ms", open.samples(0).p50_ms, "ms"));
  metrics.push_back(Metric{
      .name = "peak_rss_mb", .value = first_pass_rss_mb, .unit = "MB"});
  return metrics;
}

std::vector<Metric> per_layer(const ClosedLoop& closed, const OpenLoop& open,
                              const std::vector<double>& generate_s,
                              const std::vector<double>& ingest_s,
                              const MetricsSnapshot& run_before,
                              const MetricsSnapshot& run_after) {
  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{
        .name = std::move(name), .value = value, .unit = std::move(unit)});
  };
  add("workload.generate_s", median(generate_s), "s");
  add("workload.ingest_s", median(ingest_s), "s");

  const OpenLayerSamples& layer = open.layer();
  add("kafka.append_us_p50", quantile(layer.append_us, 0.50), "us");
  add("kafka.append_us_p99", quantile(layer.append_us, 0.99), "us");
  add("kafka.consumer_lag_max",
      median(concat(open.samples(0).lag_max, open.samples(1).lag_max)),
      "records");
  add("kafka.drain_ms",
      median(concat(open.samples(0).drain_ms, open.samples(1).drain_ms)),
      "ms");
  const auto queue_wait =
      histogram_delta(run_before, run_after, "kafka.producer.queue_wait_us");
  add("kafka.producer_queue_wait_us_p99",
      static_cast<double>(queue_wait.percentile_us(0.99)), "us");
  add("kafka.fetch_ns_per_rec", closed.fetch_ns_per_record(), "ns");

  static constexpr std::pair<Stage, const char*> kStages[] = {
      {Stage::kQueueWait, "queue_wait"},
      {Stage::kDecode, "decode"},
      {Stage::kUserFn, "user_fn"},
      {Stage::kEncode, "encode"},
      {Stage::kBrokerRtt, "broker_rtt"}};
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    const GroupProfile& profile = closed.profile(g);
    const double records = static_cast<double>(profile.input_records);
    for (const auto& [stage, stage_name] : kStages) {
      const double us = static_cast<double>(
          profile.profile.stages[static_cast<std::size_t>(stage)].total_us);
      add(std::string(kGroups[g].name) + "." + stage_name + "_ns_per_rec",
          records > 0.0 ? us * 1e3 / records : 0.0, "ns");
    }
    std::vector<double> startup;
    for (std::size_t q = 0; q < kQueries.size(); ++q) {
      startup = concat(startup, closed.samples(g, q).startup_ms);
    }
    add(std::string(kGroups[g].name) + ".startup_ms", median(startup), "ms");
  }
  // kGroups lists each engine's native group right before its Beam group.
  for (std::size_t native = 0; native < kGroups.size(); native += 2) {
    const std::string group = kGroups[native].name;
    const double beam_span = group_span_s(closed, native + 1, false);
    add(group.substr(0, group.find('_')) + ".beam_share",
        beam_span > 0.0
            ? 1.0 - group_span_s(closed, native, false) / beam_span
            : 0.0,
        "fraction");
  }
  add("serde.encode_records",
      closed.counter_per_pass(&RunCounters::encode_records), "count");
  add("serde.decode_records",
      closed.counter_per_pass(&RunCounters::decode_records), "count");
  add("serde.encode_bytes", closed.counter_per_pass(&RunCounters::encode_bytes),
      "bytes");
  add("serde.elided_edges", closed.counter_per_pass(&RunCounters::elided_edges),
      "count");
  add("spark.batches", closed.counter_per_pass(&RunCounters::spark_batches),
      "count");
  add("apex.containers",
      closed.counter_per_pass(&RunCounters::apex_containers), "count");
  add("runtime.throttle_waits",
      static_cast<double>(counter_delta(run_before, run_after,
                                        "backpressure.throttle_waits")),
      "count");
  std::vector<double> calc_ms;
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    for (std::size_t q = 0; q < kQueries.size(); ++q) {
      calc_ms = concat(calc_ms, closed.samples(g, q).calc_ms);
    }
  }
  add("harness.result_calc_ms", median(calc_ms), "ms");
  add("loadgen.late_p99_ms", quantile(layer.late_ms, 0.99), "ms");

  // Tracing overhead: armed vs disarmed closed-loop spans of the same run,
  // each engine x SDK group weighted alike.
  double overhead = 0.0;
  for (std::size_t g = 0; g < kGroups.size(); ++g) {
    const double plain = group_span_s(closed, g, false);
    const double traced = group_span_s(closed, g, true);
    if (plain > 0.0) overhead += (traced / plain - 1.0) * 100.0;
  }
  add("trace_overhead_pct", overhead / static_cast<double>(kGroups.size()),
      "%");
  return metrics;
}

/// Per-setup medians and the paper's slowdown factor (Beam span over
/// native span), for reading a run; not gated.
void print_setups(const ClosedLoop& closed) {
  for (std::size_t q = 0; q < kQueries.size(); ++q) {
    for (std::size_t g = 0; g < kGroups.size(); ++g) {
      const SetupSamples& s = closed.samples(g, q);
      const double span = median(s.span_s);
      std::printf(
          "# setup %-13s %-10s span_ms %10.4f [q1 %10.4f q3 %10.4f] n=%-3zu",
          kGroups[g].name, dsps::workload::query_info(kQueries[q]).name.c_str(),
          span * 1e3, quantile(s.span_s, 0.25) * 1e3,
          quantile(s.span_s, 0.75) * 1e3, s.span_s.size());
      if (kGroups[g].sdk == Sdk::kBeam) {
        const double native = median(closed.samples(g - 1, q).span_s);
        std::printf(" slowdown %.2fx", native > 0.0 ? span / native : 0.0);
      }
      std::printf("\n");
    }
  }
}

/// The open-loop tail, printed but not gated (see OpenSamples).
void print_open_tail(const OpenLoop& open) {
  for (std::size_t sdk = 0; sdk < OpenLoop::kSdks.size(); ++sdk) {
    const OpenSamples& s = open.samples(sdk);
    const char* prefix = sdk == 0 ? "native" : "beam";
    for (const auto& [name, runs] :
         {std::pair{"p50", &s.p50_ms}, std::pair{"p90", &s.p90_ms},
          std::pair{"p99", &s.p99_ms}}) {
      if (sdk == 0 && runs == &s.p50_ms) continue;  // gated, printed above
      std::printf(
          "# %s_lat_%s_ms %14.6g ms  (not gated; median of n=%zu runs, q1 "
          "%.6g q3 %.6g)\n",
          prefix, name, median(*runs), runs->size(), quantile(*runs, 0.25),
          quantile(*runs, 0.75));
    }
    const std::uint64_t n = s.latency.count();
    const double high_q = highest_supported_quantile(n);
    std::printf("# %s_lat pooled over runs: n=%llu p99 %.6g ms p%g %.6g ms\n",
                prefix, static_cast<unsigned long long>(n),
                s.latency.quantile(0.99) / 1e3, high_q * 100.0,
                s.latency.quantile(high_q) / 1e3);
  }
}

void print_report(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf("  (n=%zu", m.samples);
      if (m.high_q > 0.0) {
        std::printf(", p%g=%.6g", m.high_q * 100.0, m.high_value);
      }
      std::printf(")");
    }
    std::printf("\n");
  }
}

std::string result_json(bool correct, const RunCounts& counts,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(counts.attempted) +
                    ", \"failed\": " + std::to_string(counts.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper-p1|mitigated-p2> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--commit <id>] [--broker-rtt-us <us>]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string fingerprint = fingerprint_json(args);
  std::printf("%s\n", fingerprint.c_str());
  if (!kOptimized || !sanitizer_flags().empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report metrics from an unoptimised "
                 "or sanitizer build\n");
    return 3;
  }

  Trace trace(args.trace);
  ClosedLoop closed(*spec, args.seed, args.rtt_us, trace);
  OpenLoop open(*spec, args.seed, args.rtt_us, trace);
  const int root = trace.begin("run/" + args.workload, -1);

  // Set-up runs several times after one untimed warm-up that pays the
  // first-touch page faults; the last one's input serves the passes.
  std::vector<double> setup_s, generate_s, ingest_s;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    const ClosedLoop::SetupTimes times = closed.setup(root);
    const double pool_s = open.setup(root);
    if (i == 0) continue;
    setup_s.push_back(times.generate_s + times.ingest_s + pool_s);
    generate_s.push_back(times.generate_s + pool_s);
    ingest_s.push_back(times.ingest_s);
  }

  RunCounts counts;
  const MetricsSnapshot run_before = MetricsRegistry::global().snapshot();
  const double deadline = now_s() + args.seconds;
  double passes_s = 0.0;
  double first_pass_rss_mb = 0.0;
  for (int pass = 0;; ++pass) {
    // Traced runs alternate disarmed and armed passes: the per-layer
    // numbers come from the armed ones, the overhead from the comparison.
    const bool armed = args.trace && pass % 2 == 1;
    if (armed) Profiler::instance().arm();
    trace.set_run(pass);
    const double start = now_s();
    {
      SpanScope span(trace, "pass", root);
      closed.run_pass(armed, span.id(), counts);
      open.run_pass(armed, span.id(), counts);
    }
    if (armed) Profiler::instance().disarm();
    // Freed memory that allocator fragmentation keeps mapped makes the
    // peak creep up with every further pass, so it is read after the
    // set-up and the first pass, a fixed amount of work.
    if (pass == 0) first_pass_rss_mb = peak_rss_mb();
    passes_s += now_s() - start;
    const int done = pass + 1;
    const double next_end = now_s() + passes_s / done;
    if (next_end > deadline && done >= (args.trace ? 2 : 1)) break;
  }
  const MetricsSnapshot run_after = MetricsRegistry::global().snapshot();
  trace.end(root);

  const std::vector<Metric> metrics =
      args.trace ? per_layer(closed, open, generate_s, ingest_s, run_before,
                             run_after)
                 : end_to_end(closed, open, setup_s, first_pass_rss_mb);
  if (!args.trace) {
    print_setups(closed);
    print_open_tail(open);
  }
  print_report(metrics);
  std::printf("# error_rate %g (%llu of %llu runs failed or mis-output)\n",
              counts.attempted == 0
                  ? 0.0
                  : static_cast<double>(counts.failed) /
                        static_cast<double>(counts.attempted),
              static_cast<unsigned long long>(counts.failed),
              static_cast<unsigned long long>(counts.attempted));
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << trace.to_json();
  }
  const bool correct = counts.failed == 0 && counts.attempted > 0;
  std::printf("%s\n", result_json(correct, counts, metrics).c_str());
  return correct ? 0 : 1;
}
