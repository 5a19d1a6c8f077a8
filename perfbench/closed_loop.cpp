#include "closed_loop.hpp"

#include <algorithm>
#include <cstdio>

#include "harness/result_calculator.hpp"
#include "queries/query_factory.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace perfbench {

namespace {

using dsps::kafka::Broker;
using dsps::runtime::Profiler;
using dsps::runtime::ProfileSnapshot;

constexpr const char* kInputTopic = "perfbench-in";
constexpr double kSetupBudgetS = 0.25;
constexpr int kMaxReps = 8;

double counter_value(const char* name) {
  return static_cast<double>(
      dsps::runtime::MetricsRegistry::global().counter(name).value());
}

RunCounters read_counters() {
  return RunCounters{
      .encode_records = counter_value("runtime.serde.encode.records"),
      .decode_records = counter_value("runtime.serde.decode.records"),
      .encode_bytes = counter_value("runtime.serde.encode.bytes"),
      .elided_edges = counter_value("runtime.serde.elided_edges"),
      .spark_batches = counter_value("spark.batch.count"),
      .apex_containers = 0.0};
}

void add_profile(ProfileSnapshot& into, const ProfileSnapshot& delta) {
  for (std::size_t s = 0; s < dsps::runtime::kStageCount; ++s) {
    into.stages[s] += delta.stages[s];
  }
}

}  // namespace

const std::array<Group, 6> kGroups{{
    {Engine::kFlink, Sdk::kNative, "flink_native"},
    {Engine::kFlink, Sdk::kBeam, "flink_beam"},
    {Engine::kSpark, Sdk::kNative, "spark_native"},
    {Engine::kSpark, Sdk::kBeam, "spark_beam"},
    {Engine::kApex, Sdk::kNative, "apex_native"},
    {Engine::kApex, Sdk::kBeam, "apex_beam"},
}};

const std::array<QueryId, 4> kQueries{QueryId::kIdentity, QueryId::kSample,
                                      QueryId::kProjection, QueryId::kGrep};

ClosedLoop::ClosedLoop(const WorkloadSpec& spec, std::uint64_t seed,
                       std::int64_t rtt_us, Trace& trace)
    : spec_(spec), seed_(seed), rtt_us_(rtt_us), trace_(trace) {}

ClosedLoop::SetupTimes ClosedLoop::setup(int parent_span) {
  SpanScope span(trace_, "setup/closed", parent_span);
  auto broker = std::make_unique<Broker>();
  broker->set_rtt_us(rtt_us_);
  SetupTimes times;

  double start = now_s();
  std::vector<std::string> lines;
  {
    SpanScope generate(trace_, "workload/generate", span.id());
    dsps::workload::AolGenerator generator(dsps::workload::AolGeneratorConfig{
        .record_count = spec_.closed_records, .seed = seed_});
    lines = generator.all_lines();
  }
  times.generate_s = now_s() - start;

  start = now_s();
  {
    SpanScope ingest(trace_, "workload/ingest", span.id());
    dsps::workload::create_benchmark_topic(*broker, kInputTopic,
                                           spec_.input_partitions)
        .expect_ok();
    dsps::workload::DataSender sender(
        *broker, dsps::workload::DataSenderConfig{.topic = kInputTopic});
    sender.send_lines(lines).status().expect_ok();
  }
  times.ingest_s = now_s() - start;

  broker_ = std::move(broker);
  if (expected_.empty()) expected_ = reference_digests(lines, seed_);
  return times;
}

void ClosedLoop::run_pass(bool armed, int parent_span, RunCounts& counts) {
  // Native and Beam of one engine and query run back to back, so host
  // drift during a pass hits both sides of each slowdown ratio alike.
  for (std::size_t q = 0; q < kQueries.size(); ++q) {
    // Repetitions go round the six groups rather than back to back, so a
    // passing disturbance spreads over groups instead of one setup.
    const int rounds = std::max(1, *std::max_element(reps_[q].begin(),
                                                     reps_[q].end()));
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t g = 0; g < kGroups.size(); ++g) {
        if (round < std::max(reps_[q][g], 1)) {
          run_one(g, q, armed, parent_span, counts);
        }
      }
    }
    for (std::size_t g = 0; g < kGroups.size(); ++g) {
      const std::vector<double>& run_s = samples_[g][q].run_s;
      if (reps_[q][g] == 0) {
        reps_[q][g] = run_s.empty()
                          ? 1
                          : static_cast<int>(std::clamp(
                                kSetupBudgetS / run_s.back(), 1.0,
                                static_cast<double>(kMaxReps)));
      }
    }
  }
}

double ClosedLoop::counter_per_pass(double RunCounters::*field) const {
  double total = 0.0;
  for (const auto& group : samples_) {
    for (const SetupSamples& setup : group) {
      std::vector<double> values;
      for (const RunCounters& c : setup.counters) values.push_back(c.*field);
      total += median(values);
    }
  }
  return total;
}

void ClosedLoop::run_one(std::size_t group, std::size_t query, bool armed,
                         int parent_span, RunCounts& counts) {
  const Group& g = kGroups[group];
  const QueryId q = kQueries[query];
  const std::string label =
      std::string(g.name) + "/" + dsps::workload::query_info(q).name;
  SpanScope span(trace_, "closed/" + label, parent_span);
  ++counts.attempted;

  const double start = now_s();
  const std::string topic = "perfbench-out-" + std::to_string(next_topic_++);
  dsps::workload::create_benchmark_topic(*broker_, topic, spec_.parallelism)
      .expect_ok();
  dsps::queries::QueryContext ctx;
  ctx.broker = broker_.get();
  ctx.input_topic = kInputTopic;
  ctx.output_topic = topic;
  ctx.parallelism = spec_.parallelism;
  ctx.seed = seed_;
  ctx.fuse_stages = spec_.fuse_stages;
  ctx.async_sinks = spec_.async_sinks;
  ctx.elide_coders = spec_.elide_coders;

  const RunCounters counters_before = read_counters();
  const ProfileSnapshot before =
      armed ? Profiler::instance().snapshot() : ProfileSnapshot{};
  const double query_start = now_s();
  dsps::Status status = dsps::Status::ok();
  {
    SpanScope run(trace_, "run_query", span.id());
    status = dsps::queries::run_query(g.engine, g.sdk, q, ctx);
  }
  const double query_wall = now_s() - query_start;
  RunCounters run_counters = read_counters();
  run_counters.encode_records -= counters_before.encode_records;
  run_counters.decode_records -= counters_before.decode_records;
  run_counters.encode_bytes -= counters_before.encode_bytes;
  run_counters.elided_edges -= counters_before.elided_edges;
  run_counters.spark_batches -= counters_before.spark_batches;
  if (g.engine == Engine::kApex) {
    run_counters.apex_containers = dsps::runtime::MetricsRegistry::global()
                                       .gauge("apex.app.containers")
                                       .value();
  }
  if (armed) {
    add_profile(profiles_[group].profile,
                Profiler::instance().snapshot().since(before));
    profiles_[group].input_records += spec_.closed_records;
  }

  const double calc_start = now_s();
  dsps::Result<dsps::harness::QueryResult> result =
      dsps::Status::unavailable("not run");
  {
    SpanScope calc(trace_, "harness/calculate", span.id());
    result = dsps::harness::ResultCalculator(*broker_).calculate(topic);
  }
  const double calc_ms = (now_s() - calc_start) * 1e3;
  const double before_verify = now_s();

  bool ok = status.is_ok() && result.is_ok();
  if (ok) ok = verify(topic, q, span.id());
  const double verify_s = now_s() - before_verify;
  (void)broker_->delete_topic(topic);
  const double run_s = now_s() - start - verify_s;

  if (!ok) {
    ++counts.failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", label.c_str(),
                 !status.is_ok()   ? status.message().c_str()
                 : !result.is_ok() ? result.status().message().c_str()
                                   : "output mismatch");
    return;
  }
  SetupSamples& samples = samples_[group][query];
  const double span_s = result.value().execution_seconds;
  (armed ? samples.armed_span_s : samples.span_s).push_back(span_s);
  samples.run_s.push_back(run_s);
  samples.startup_ms.push_back((query_wall - span_s) * 1e3);
  samples.calc_ms.push_back(calc_ms);
  samples.counters.push_back(run_counters);
}

bool ClosedLoop::verify(const std::string& topic, QueryId query,
                        int parent_span) {
  SpanScope span(trace_, "verify", parent_span);
  const auto partitions = broker_->partition_count(topic);
  if (!partitions.is_ok()) return false;
  Digest digest;
  std::vector<dsps::kafka::StoredRecord> batch;
  for (int p = 0; p < partitions.value(); ++p) {
    const dsps::kafka::TopicPartition tp{topic, p};
    const auto end = broker_->end_offset(tp);
    if (!end.is_ok()) return false;
    std::int64_t offset = 0;
    while (offset < end.value()) {
      batch.clear();
      const double fetch_start = now_s();
      const auto fetched = broker_->fetch(tp, offset, 8192, batch);
      fetch_s_ += now_s() - fetch_start;
      if (!fetched.is_ok() || batch.empty()) return false;
      fetched_ += batch.size();
      for (const auto& record : batch) digest.add(record.value.view());
      offset = batch.back().offset + 1;
    }
  }
  const Digest& expected = expected_.at(query);
  if (digest == expected) return true;
  std::fprintf(stderr,
               "perfbench: %s output has %llu records, expected %llu%s\n",
               topic.c_str(), static_cast<unsigned long long>(digest.count),
               static_cast<unsigned long long>(expected.count),
               digest.count == expected.count ? " (contents differ)" : "");
  return false;
}

double ClosedLoop::fetch_ns_per_record() const {
  return fetched_ == 0 ? 0.0 : fetch_s_ * 1e9 / static_cast<double>(fetched_);
}

}  // namespace perfbench
