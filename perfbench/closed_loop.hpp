// The paper's closed loop: preload the input topic once, then run every
// (engine, SDK, query) setup to completion and time it from the broker's
// LogAppendTime stamps on its output topic (§III-A2/3).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "kafka/broker.hpp"
#include "perfbench.hpp"
#include "runtime/profiler.hpp"

namespace perfbench {

/// Engine x SDK: the six groups every closed-loop metric is split by.
struct Group {
  Engine engine;
  Sdk sdk;
  const char* name;  // "flink_native", ...
};
extern const std::array<Group, 6> kGroups;
extern const std::array<QueryId, 4> kQueries;

struct RunCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Layer counters read around one run: exact counts, not timings.
struct RunCounters {
  double encode_records = 0.0;  // runtime.serde.*
  double decode_records = 0.0;
  double encode_bytes = 0.0;
  double elided_edges = 0.0;
  double spark_batches = 0.0;    // spark.batch.count
  double apex_containers = 0.0;  // apex.app.containers (per-job gauge)
};

/// Samples of one (group, query) setup across passes. Armed (profiled)
/// passes keep their own span list so tracing overhead can be compared.
struct SetupSamples {
  std::vector<double> span_s;        // LogAppendTime execution span
  std::vector<double> armed_span_s;  // same, profiler armed
  std::vector<double> run_s;         // topic create .. calculate .. delete
  std::vector<double> startup_ms;    // run_query wall minus span
  std::vector<double> calc_ms;       // ResultCalculator::calculate
  std::vector<RunCounters> counters;
};

/// Per-layer readings of one group over the armed passes.
struct GroupProfile {
  dsps::runtime::ProfileSnapshot profile;
  std::uint64_t input_records = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(const WorkloadSpec& spec, std::uint64_t seed,
             std::int64_t rtt_us, Trace& trace);

  struct SetupTimes {
    double generate_s = 0.0;
    double ingest_s = 0.0;
  };
  /// Builds a fresh broker and generates + ingests the input topic. The
  /// last call's broker is the one the passes run against.
  SetupTimes setup(int parent_span);

  /// Runs every setup, verifying each output: once in the first pass,
  /// then as often as fits a fixed time budget per setup, so that fast
  /// setups gather as many samples as slow ones. Armed passes also
  /// accumulate profiler deltas per group.
  void run_pass(bool armed, int parent_span, RunCounts& counts);

  const SetupSamples& samples(std::size_t group, std::size_t query) const {
    return samples_[group][query];
  }
  const GroupProfile& profile(std::size_t group) const {
    return profiles_[group];
  }
  std::uint64_t records() const { return spec_.closed_records; }
  /// Verifier fetch cost over every output record read back.
  double fetch_ns_per_record() const;
  /// Sum over the 24 setups of the median per-run value of one counter.
  double counter_per_pass(double RunCounters::*field) const;

 private:
  void run_one(std::size_t group, std::size_t query, bool armed,
               int parent_span, RunCounts& counts);
  bool verify(const std::string& topic, QueryId query, int parent_span);

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::int64_t rtt_us_;
  Trace& trace_;
  std::unique_ptr<dsps::kafka::Broker> broker_;
  std::map<QueryId, Digest> expected_;
  int next_topic_ = 0;
  std::array<std::array<SetupSamples, 4>, 6> samples_;
  std::array<GroupProfile, 6> profiles_;
  /// Runs per setup per pass, fixed after the first pass so that every
  /// setup is timed for about kSetupBudgetS per pass.
  std::array<std::array<int, 6>, 4> reps_{};  // [query][group]
  double fetch_s_ = 0.0;
  std::uint64_t fetched_ = 0;
};

}  // namespace perfbench
