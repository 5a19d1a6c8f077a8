// Chaos smoke: one faulted-and-recovered Identity run per engine x SDK.
//
// Tracks the *recovery* plane: how many restarts a seeded kill schedule
// costs each engine, how many records get replayed, and the wall-clock
// recovery overhead versus an unfaulted run of the same setup. Per-setup
// numbers are published into the unified MetricsRegistry under
// chaos.<setup>.* and printed as a table; the exit code is nonzero when any
// setup failed to recover or saw no injected fault.
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "harness/benchmark.hpp"
#include "harness/report.hpp"
#include "kafka/broker.hpp"
#include "queries/query_factory.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "workload/streambench.hpp"

namespace {

using namespace dsps;
using queries::Engine;
using queries::Sdk;
using runtime::FaultPoint;
using runtime::FaultRule;

constexpr const char* kIn = "chaos-in";
constexpr const char* kOut = "chaos-out";
constexpr int kRecords = 9'000;
constexpr std::uint64_t kSeed = 1;

void load_input(kafka::Broker& broker) {
  broker.create_topic(kIn, kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic(kOut, kafka::TopicConfig{.partitions = 1}).expect_ok();
  std::vector<kafka::ProducerRecord> batch;
  batch.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) {
    batch.push_back(kafka::ProducerRecord{
        .value = "row-" + std::to_string(i) + "\tpayload-" + std::to_string(i)});
  }
  broker.append_batch({kIn, 0}, batch, false).status().expect_ok();
}

struct ChaosResult {
  std::string setup;
  double clean_ms = 0.0;
  double faulted_ms = 0.0;
  std::uint64_t injected = 0;
  std::uint64_t restarts = 0;
  std::uint64_t replayed = 0;
  bool ok = false;
};

double run_once(Engine engine, Sdk sdk, bool faulted, bool& ok,
                std::uint64_t& injected) {
  kafka::Broker broker;
  load_input(broker);
  queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kIn;
  ctx.output_topic = kOut;
  ctx.recovery.enabled = true;
  ctx.recovery.max_restarts = 4;
  ctx.recovery.backoff_seed = kSeed;

  auto& injector = runtime::FaultInjector::instance();
  if (faulted) {
    FaultRule kill{.point = FaultPoint::kOperatorThrow, .times = 1};
    int burn = 0;
    switch (engine) {
      case Engine::kFlink:
        if (sdk == Sdk::kNative) {
          kill.site = "flink.source.";
          kill.after_hits = 2;
        } else {
          kill.site = "ParDo";
          kill.after_hits = 2;
        }
        break;
      case Engine::kSpark:
        kill.site = "spark.batch";
        kill.after_hits = 1;
        burn = 1;
        break;
      case Engine::kApex:
        kill.site = "apex.";
        kill.after_hits = 2;
        break;
    }
    injector.arm(kSeed, {kill});
    for (int i = 0; i < burn; ++i) {
      try {
        injector.maybe_throw(FaultPoint::kOperatorThrow, "spark.batch");
      } catch (const runtime::FaultInjectedError&) {
      }
    }
  }
  Stopwatch watch;
  const Status status =
      queries::run_query(engine, sdk, workload::QueryId::kIdentity, ctx);
  const double ms = watch.elapsed_ms();
  if (faulted) {
    injected = injector.injected_count();
    injector.disarm();
  }
  ok = status.is_ok();
  if (!ok) {
    std::fprintf(stderr, "  %s/%s %s run failed: %s\n",
                 queries::engine_name(engine), queries::sdk_name(sdk),
                 faulted ? "faulted" : "clean", status.to_string().c_str());
  }
  return ms;
}

std::uint64_t counter_delta(const runtime::MetricsSnapshot& before,
                            const runtime::MetricsSnapshot& after,
                            std::string_view name) {
  return after.counter(name) - before.counter(name);
}

}  // namespace

int main() {
  std::printf("=== Chaos smoke (Identity under a seeded kill, all setups) ===\n");
  std::printf("scale: %d records, seed %llu, max_restarts 4\n\n", kRecords,
              static_cast<unsigned long long>(kSeed));

  auto& global = runtime::MetricsRegistry::global();
  std::vector<ChaosResult> results;
  bool all_ok = true;
  for (const auto engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    const std::string restart_counter =
        engine == Engine::kFlink   ? "flink.recovery.restarts"
        : engine == Engine::kSpark ? "spark.recovery.batch_retries"
                                   : "apex.recovery.restarts";
    const std::string replay_counter =
        engine == Engine::kFlink   ? "flink.recovery.replayed_records"
        : engine == Engine::kSpark ? "spark.recovery.replayed_records"
                                   : "apex.recovery.replayed_records";
    for (const auto sdk : {Sdk::kNative, Sdk::kBeam}) {
      ChaosResult r;
      r.setup = std::string(queries::engine_name(engine)) + "-" +
                queries::sdk_name(sdk);
      bool clean_ok = false;
      std::uint64_t unused = 0;
      r.clean_ms = run_once(engine, sdk, false, clean_ok, unused);
      const auto before = global.snapshot();
      bool faulted_ok = false;
      r.faulted_ms = run_once(engine, sdk, true, faulted_ok, r.injected);
      const auto after = global.snapshot();
      r.restarts = counter_delta(before, after, restart_counter);
      r.replayed = counter_delta(before, after, replay_counter);
      r.ok = clean_ok && faulted_ok && r.injected > 0;
      all_ok = all_ok && r.ok;

      // Publish the recovery trajectory through the same registry the
      // engines use, so report/figures render chaos runs unchanged.
      const std::string prefix = "chaos." + r.setup;
      global.gauge(prefix + ".clean_ms").set(r.clean_ms);
      global.gauge(prefix + ".faulted_ms").set(r.faulted_ms);
      global.gauge(prefix + ".recovery_overhead_ms")
          .set(r.faulted_ms - r.clean_ms);
      global.counter(prefix + ".restarts").add(r.restarts);
      global.counter(prefix + ".replayed_records").add(r.replayed);
      global.counter(prefix + ".faults_injected").add(r.injected);
      results.push_back(r);
    }
  }

  std::printf("%-14s %10s %12s %9s %9s %10s %6s\n", "setup", "clean_ms",
              "faulted_ms", "injected", "restarts", "replayed", "ok");
  for (const auto& r : results) {
    std::printf("%-14s %10.2f %12.2f %9llu %9llu %10llu %6s\n",
                r.setup.c_str(), r.clean_ms, r.faulted_ms,
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.restarts),
                static_cast<unsigned long long>(r.replayed),
                r.ok ? "yes" : "NO");
  }

  std::printf("\n%s",
              harness::render_recovery_summary(global.snapshot()).c_str());

  return all_ok ? 0 : 1;
}
