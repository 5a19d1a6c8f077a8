#include "open_loop.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/clock.hpp"
#include "kafka/broker.hpp"
#include "queries/query_factory.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace perfbench {

namespace {

using dsps::kafka::Broker;
using dsps::kafka::StoredRecord;
using dsps::kafka::TopicPartition;

constexpr const char* kInputTopic = "perfbench-open-in";
constexpr const char* kOutputTopic = "perfbench-open-out";
// 64-record batches, one every 320 us at 200k rec/s. With 256-record
// batches the flags-off Beam path settled per run into one of two latency
// regimes (p50 ~2 ms or ~4.5 ms), so its median jumped between runs of the
// benchmark; smaller, more frequent batches keep one regime.
constexpr std::size_t kBatch = 64;
// 200k rec/s is below every Flink Identity knee; 50k records make a
// 0.25 s run, so each pass holds several runs of each setup.
constexpr double kOfferedRate = 200'000.0;
constexpr std::uint64_t kRunRecords = 50'000;
// 65536 distinct lines: at 200k rec/s a line repeats every ~330 ms, far
// beyond any reordering a sustained run shows, so matching an output to
// the oldest unmatched input of the same content is exact.
constexpr std::size_t kPoolSize = 65'536;
// The first tenth of each run is a settle window (engine start-up, first
// fetches) and stays out of the latency percentiles.
constexpr double kSettleFraction = 0.1;

std::int64_t partition_end(const Broker& broker, const std::string& topic,
                           int partitions) {
  std::int64_t total = 0;
  for (int p = 0; p < partitions; ++p) {
    const auto end = broker.end_offset({topic, p});
    if (end.is_ok()) total += end.value();
  }
  return total;
}

/// Waits until steady-clock time `due_us` by spinning on the pacer's own
/// core: a sleeping pacer waits for a free core on every wake-up while the
/// engine's threads are busy, and that lateness would land in the latency
/// of whole batches.
void wait_until(std::int64_t due_us) {
  while (dsps::steady_clock_us() < due_us) {
  }
}

/// Splits this thread's CPUs between the pacer and the engine: the
/// engine thread (and every thread it starts) inherits all but one CPU,
/// and the pacer keeps the last one to itself, so the load generator and
/// the system under test never share a core. Restores the mask on exit.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0 ||
        CPU_COUNT(&original_) < 2) {
      return;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        pacer_cpu_ = cpu;
        break;
      }
    }
    engine_ = original_;
    CPU_CLR(pacer_cpu_, &engine_);
    split_ = sched_setaffinity(0, sizeof engine_, &engine_) == 0;
  }
  /// Call after the engine thread has started.
  void pin_pacer() {
    if (!split_) return;
    cpu_set_t pacer;
    CPU_ZERO(&pacer);
    CPU_SET(pacer_cpu_, &pacer);
    (void)sched_setaffinity(0, sizeof pacer, &pacer);
  }
  ~CpuSplit() {
    if (split_) (void)sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

 private:
  cpu_set_t original_;
  cpu_set_t engine_;
  int pacer_cpu_ = -1;
  bool split_ = false;
};

bool fetch_all(const Broker& broker, const std::string& topic, int partitions,
               std::vector<StoredRecord>& out) {
  std::vector<StoredRecord> batch;
  for (int p = 0; p < partitions; ++p) {
    const TopicPartition tp{topic, p};
    const auto end = broker.end_offset(tp);
    if (!end.is_ok()) return false;
    std::int64_t offset = 0;
    while (offset < end.value()) {
      batch.clear();
      if (!broker.fetch(tp, offset, 8192, batch).is_ok() || batch.empty()) {
        return false;
      }
      offset = batch.back().offset + 1;
      for (auto& record : batch) out.push_back(std::move(record));
    }
  }
  return true;
}

}  // namespace

OpenLoop::OpenLoop(const WorkloadSpec& spec, std::uint64_t seed,
                   std::int64_t rtt_us, Trace& trace)
    : spec_(spec), seed_(seed), rtt_us_(rtt_us), trace_(trace) {}

double OpenLoop::setup(int parent_span) {
  SpanScope span(trace_, "setup/open_pool", parent_span);
  const double start = now_s();
  std::vector<std::string> pool;
  pool.reserve(kPoolSize);
  std::unordered_map<std::string_view, std::uint32_t> index;
  dsps::workload::AolGenerator generator(
      dsps::workload::AolGeneratorConfig{.seed = seed_});
  for (std::uint64_t i = 0; pool.size() < kPoolSize; ++i) {
    pool.push_back(generator.record_at(i).to_line());
    // Duplicate lines would make outputs ambiguous; keep the first.
    if (!index.emplace(pool.back(), 0).second) pool.pop_back();
  }
  // Index after the pool stops growing: the keys view its strings.
  index.clear();
  std::vector<dsps::kafka::Payload> payloads;
  payloads.reserve(kPoolSize);
  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    payloads.emplace_back(pool[i]);
    index.emplace(pool[i], i);
  }
  const double elapsed = now_s() - start;
  pool_ = std::move(pool);
  payloads_ = std::move(payloads);
  index_ = std::move(index);
  return elapsed;
}

void OpenLoop::run_pass(bool armed, int parent_span, RunCounts& counts) {
  for (int r = 0; r < kRunsPerPass; ++r) {
    for (std::size_t sdk = 0; sdk < kSdks.size(); ++sdk) {
      run_one(sdk, armed, parent_span, counts);
    }
  }
}

void OpenLoop::run_one(std::size_t sdk, bool armed, int parent_span,
                       RunCounts& counts) {
  const std::string label = std::string("open/") +
                            (kSdks[sdk] == Sdk::kNative ? "flink_native"
                                                        : "flink_beam") +
                            "/Identity";
  SpanScope span(trace_, label, parent_span);
  ++counts.attempted;

  const int partitions = spec_.input_partitions;
  const std::uint64_t total = kRunRecords;
  const std::size_t batches = (total + kBatch - 1) / kBatch;
  const double period_us = static_cast<double>(kBatch) / kOfferedRate * 1e6;

  Broker broker;
  broker.set_rtt_us(rtt_us_);
  dsps::workload::create_benchmark_topic(broker, kInputTopic, partitions)
      .expect_ok();
  dsps::workload::create_benchmark_topic(broker, kOutputTopic,
                                         spec_.parallelism)
      .expect_ok();
  dsps::queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kInputTopic;
  ctx.output_topic = kOutputTopic;
  ctx.parallelism = spec_.parallelism;
  ctx.seed = seed_;
  ctx.fuse_stages = spec_.fuse_stages;
  ctx.async_sinks = spec_.async_sinks;
  ctx.elide_coders = spec_.elide_coders;
  ctx.open_loop = true;

  dsps::Status engine_status = dsps::Status::ok();
  CpuSplit cpus;
  std::thread engine([&] {
    engine_status = dsps::queries::run_query(Engine::kFlink, kSdks[sdk],
                                             QueryId::kIdentity, ctx);
  });
  cpus.pin_pacer();

  // Batch k is due at start + k * period on both clocks: the steady clock
  // paces, the wall clock is what LogAppendTime is stamped in.
  const std::int64_t steady_start = dsps::steady_clock_us();
  const dsps::Timestamp wall_start = dsps::wall_clock_now();
  const auto due_offset_us = [&](std::size_t batch_index) {
    return static_cast<std::int64_t>(static_cast<double>(batch_index) *
                                     period_us);
  };
  bool append_failed = false;
  double lag_max = 0.0;
  {
    SpanScope pace(trace_, "pace", span.id());
    std::vector<dsps::kafka::ProducerRecord> batch;
    batch.reserve(kBatch);
    for (std::size_t k = 0; k < batches; ++k) {
      wait_until(steady_start + due_offset_us(k));
      batch.clear();
      const std::uint64_t first = k * kBatch;
      const std::uint64_t last = std::min<std::uint64_t>(total, first + kBatch);
      for (std::uint64_t seq = first; seq < last; ++seq) {
        batch.push_back(
            dsps::kafka::ProducerRecord{.value = payloads_[seq % kPoolSize]});
      }
      const std::int64_t append_start = dsps::steady_clock_us();
      const auto appended = broker.append_batch(
          {kInputTopic, static_cast<int>(k % static_cast<std::size_t>(
                                                 partitions))},
          batch, false);
      if (armed) {
        layer_.append_us.push_back(
            static_cast<double>(dsps::steady_clock_us() - append_start));
      }
      if (!appended.is_ok()) {
        append_failed = true;
        break;
      }
      if (k % 8 == 7) {
        // Backlog: records offered but not yet through the Identity job.
        lag_max = std::max(
            lag_max, static_cast<double>(
                         partition_end(broker, kInputTopic, partitions) -
                         partition_end(broker, kOutputTopic,
                                       spec_.parallelism)));
      }
    }
  }
  broker.seal_topic(kInputTopic).expect_ok();
  const double drain_start = now_s();
  {
    SpanScope drain(trace_, "drain", span.id());
    engine.join();
  }
  const double drain_ms = (now_s() - drain_start) * 1e3;

  SpanScope verify(trace_, "verify", span.id());
  std::vector<StoredRecord> outputs;
  bool ok = !append_failed && engine_status.is_ok() &&
            fetch_all(broker, kOutputTopic, spec_.parallelism, outputs) &&
            outputs.size() == total;
  // Parallel sinks interleave: match in LogAppendTime order, so each
  // output takes the oldest unmatched input with its content.
  if (ok && spec_.parallelism > 1) {
    std::stable_sort(outputs.begin(), outputs.end(),
                     [](const StoredRecord& a, const StoredRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  std::vector<std::uint32_t> seen(kPoolSize, 0);
  std::vector<std::int64_t> latency_us;
  latency_us.reserve(outputs.size());
  const auto settle = static_cast<std::uint64_t>(
      kSettleFraction * static_cast<double>(total));
  for (std::size_t j = 0; ok && j < outputs.size(); ++j) {
    const auto it = index_.find(outputs[j].value.view());
    if (it == index_.end()) {
      ok = false;
      break;
    }
    const std::uint64_t seq =
        it->second + static_cast<std::uint64_t>(seen[it->second]++) * kPoolSize;
    // Unknown or duplicated content lands past the end; at P1 the output
    // must also be the input in order.
    if (seq >= total || (spec_.parallelism == 1 && seq != j)) {
      ok = false;
      break;
    }
    if (seq < settle) continue;
    const dsps::Timestamp due = wall_start + due_offset_us(seq / kBatch);
    latency_us.push_back(outputs[j].timestamp - due);
  }

  if (ok && armed) {
    // Generator lateness: the first record of each batch carries the
    // batch's append time.
    std::vector<StoredRecord> first;
    std::vector<std::int64_t> cursor(static_cast<std::size_t>(partitions), 0);
    for (std::size_t k = 0; k < batches; ++k) {
      const auto p = k % static_cast<std::size_t>(partitions);
      first.clear();
      if (!broker.fetch({kInputTopic, static_cast<int>(p)}, cursor[p], 1,
                        first)
               .is_ok() ||
          first.empty()) {
        ok = false;
        break;
      }
      cursor[p] += static_cast<std::int64_t>(
          std::min<std::uint64_t>(kBatch, total - k * kBatch));
      layer_.late_ms.push_back(
          static_cast<double>(first[0].timestamp - wall_start -
                              due_offset_us(k)) /
          1e3);
    }
  }

  if (!ok) {
    ++counts.failed;
    std::fprintf(stderr, "perfbench: %s failed: %s (%zu of %llu outputs)\n",
                 label.c_str(),
                 engine_status.is_ok() ? "output mismatch"
                                       : engine_status.message().c_str(),
                 outputs.size(), static_cast<unsigned long long>(total));
    return;
  }
  OpenSamples& samples = samples_[sdk];
  std::vector<double> run_ms;
  run_ms.reserve(latency_us.size());
  for (const std::int64_t us : latency_us) {
    samples.latency.add(us);
    run_ms.push_back(static_cast<double>(us) / 1e3);
  }
  samples.p50_ms.push_back(quantile(run_ms, 0.50));
  samples.p90_ms.push_back(quantile(run_ms, 0.90));
  // p99 only with at least ten samples beyond it.
  if (static_cast<double>(run_ms.size()) * 0.01 >= 10.0) {
    samples.p99_ms.push_back(quantile(run_ms, 0.99));
  }
  samples.drain_ms.push_back(drain_ms);
  samples.lag_max.push_back(lag_max);
}

}  // namespace perfbench
