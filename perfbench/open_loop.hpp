// Open loop: the benchmark's own single-thread pacing loop offers a fixed
// record rate to a running Flink job (QueryContext::open_loop) while the
// engine fetches and its sinks append, and event-time latency is taken from
// each record's *due* time on the schedule to the LogAppendTime of its
// output record, so generator lateness counts against the system.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "closed_loop.hpp"
#include "kafka/record.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// Results of one open-loop setup (Flink native or Flink Beam). The
/// percentiles are medians over runs of each run's exact percentile. Only
/// the native p50 is gated. Host stalls of a few ms move the tail of
/// whichever run they hit, and their rate changes from one benchmark run
/// to the next. The flags-off Beam path settles per run at ~1.5-2 ms or
/// ~4.5 ms depending on whether its stage threads drain each batch before
/// the next arrives, which the host's speed decides. Those figures are
/// printed, not gated. The pooled histogram gives the deeper tail.
struct OpenSamples {
  MicrosHistogram latency;     // every settled record of every run
  std::vector<double> p50_ms;  // per run
  std::vector<double> p90_ms;
  std::vector<double> p99_ms;
  std::vector<double> drain_ms;
  std::vector<double> lag_max;
};

/// Generator-side layer readings, pooled over armed runs.
struct OpenLayerSamples {
  std::vector<double> append_us;  // one per append_batch call
  std::vector<double> late_ms;    // input LogAppendTime minus due time
};

class OpenLoop {
 public:
  static constexpr std::array<Sdk, 2> kSdks{Sdk::kNative, Sdk::kBeam};
  static constexpr int kRunsPerPass = 5;

  OpenLoop(const WorkloadSpec& spec, std::uint64_t seed, std::int64_t rtt_us,
           Trace& trace);

  /// Builds the line pool the schedule cycles through; returns seconds.
  double setup(int parent_span);

  /// Runs each setup kRunsPerPass times, alternating native and Beam.
  void run_pass(bool armed, int parent_span, RunCounts& counts);

  const OpenSamples& samples(std::size_t sdk) const { return samples_[sdk]; }
  const OpenLayerSamples& layer() const { return layer_; }

 private:
  void run_one(std::size_t sdk, bool armed, int parent_span,
               RunCounts& counts);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::int64_t rtt_us_;
  Trace& trace_;
  /// Distinct AOL lines; offered record `seq` carries pool_[seq % size],
  /// so an output's content names its input up to the pool cycle.
  std::vector<std::string> pool_;
  std::vector<dsps::kafka::Payload> payloads_;
  std::unordered_map<std::string_view, std::uint32_t> index_;
  std::array<OpenSamples, 2> samples_;
  OpenLayerSamples layer_;
};

}  // namespace perfbench
