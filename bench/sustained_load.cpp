// Open-loop sustained-load harness (Karimov et al. / Henning & Hasselbring
// methodology, PAPERS.md): instead of preloading the input topic and timing
// the drain, a rate-controlled generator offers records while the engine
// runs, and the harness binary-searches each setup's maximum sustainable
// throughput.
//
// Sustainable here means the engine keeps up with the offered rate: after
// the generator seals the input topic, the remaining backlog drains within
// a small fraction of the generation window (bounded consumer lag). Above
// that rate the backlog grows for the whole window and the drain time
// blows up — the knee the binary search brackets.
//
// Event-time latency comes from broker kLogAppendTime timestamps: output
// append time minus the matched input record's append time, matched
// positionally per query (Identity/Projection are 1:1; Sample and Grep
// keep the deterministic subset the shared predicates select — the
// LoadGenerator's cycled pool makes the kept-index list reconstructible).
// Percentiles run through the HDR TimeHistogram.
//
// The sweep prints one row per setup (knee rate, p50/p99/p999 event-time
// latency at 80% of the knee), then a 2x-knee overload probe with the
// CreditGate armed; the exit code is nonzero when any probe failed.
//
// --soak: CI mode — short open-loop run at 1.2x a quickly-estimated
// capacity with backpressure, retention and the stall watchdog armed;
// exits non-zero on watchdog trips, unbounded lag (drain never finishes
// within the sealed-topic bound), or runaway memory.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "harness/benchmark.hpp"
#include "harness/loadgen.hpp"
#include "kafka/broker.hpp"
#include "queries/query_factory.hpp"
#include "runtime/credit_gate.hpp"
#include "runtime/metrics.hpp"
#include "runtime/watchdog.hpp"
#include "workload/data_sender.hpp"
#include "workload/streambench.hpp"

namespace {

using namespace dsps;
using queries::Engine;
using queries::Sdk;
using workload::QueryId;

constexpr const char* kIn = "sustained-in";
constexpr const char* kOut = "sustained-out";

struct SweepConfig {
  std::uint64_t seed = 42;
  std::int64_t rtt_us = 25;
  /// Target generation window per probe; records scale with the rate.
  double window_s = 0.30;
  std::uint64_t min_records = 2'000;
  std::uint64_t max_records = 24'000;
  int bisect_probes = 4;
  double start_rate = 20'000.0;

  static SweepConfig from_env() {
    SweepConfig config;
    config.seed = static_cast<std::uint64_t>(env_i64("STREAMSHIM_SEED", 42));
    config.rtt_us = env_i64("STREAMSHIM_RTT_US", config.rtt_us);
    config.window_s =
        static_cast<double>(env_i64("STREAMSHIM_SUSTAINED_WINDOW_MS", 300)) /
        1e3;
    config.max_records = static_cast<std::uint64_t>(env_i64(
        "STREAMSHIM_SUSTAINED_RECORDS",
        static_cast<std::int64_t>(config.max_records)));
    config.min_records = std::min(config.min_records, config.max_records);
    config.bisect_probes = static_cast<int>(
        env_i64("STREAMSHIM_SUSTAINED_PROBES", config.bisect_probes));
    config.start_rate = static_cast<double>(
        env_i64("STREAMSHIM_SUSTAINED_START_RATE", 20'000));
    return config;
  }
};

struct ProbeResult {
  bool ok = false;          // engine run returned OK
  bool sustainable = false;
  double offered_rate = 0.0;
  double achieved_rate = 0.0;
  double gen_seconds = 0.0;
  double drain_seconds = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t output_records = 0;
};

/// One open-loop run: engine consuming while the generator paces, then the
/// input topic seals and the drain is timed. Retention/backpressure state
/// is whatever the caller armed (disarmed for capacity probes).
ProbeResult run_probe(Engine engine, Sdk sdk, QueryId query,
                      const SweepConfig& sweep, double rate,
                      runtime::MetricsRegistry* latency_into) {
  ProbeResult result;
  result.offered_rate = rate;

  kafka::Broker broker;
  broker.set_rtt_us(sweep.rtt_us);
  workload::create_benchmark_topic(broker, kIn).expect_ok();
  workload::create_benchmark_topic(broker, kOut).expect_ok();

  harness::LoadGenConfig gen_config;
  gen_config.topic = kIn;
  gen_config.target_rate = rate;
  gen_config.records = std::clamp(
      static_cast<std::uint64_t>(rate * sweep.window_s), sweep.min_records,
      sweep.max_records);
  gen_config.seed = sweep.seed;
  harness::LoadGenerator generator(broker, gen_config);

  queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kIn;
  ctx.output_topic = kOut;
  ctx.seed = sweep.seed;
  ctx.open_loop = true;

  Status engine_status = Status::ok();
  std::thread engine_thread([&] {
    engine_status = queries::run_query(engine, sdk, query, ctx);
  });

  auto gen_report = generator.run();
  broker.seal_topic(kIn).expect_ok();
  Stopwatch drain_watch;
  engine_thread.join();
  result.drain_seconds = drain_watch.elapsed_seconds();

  if (!gen_report.is_ok()) {
    std::fprintf(stderr, "  generator failed: %s\n",
                 gen_report.status().message().c_str());
    return result;
  }
  result.ok = engine_status.is_ok();
  if (!result.ok) {
    std::fprintf(stderr, "  engine run failed: %s\n",
                 engine_status.message().c_str());
    return result;
  }
  result.gen_seconds = gen_report.value().duration_seconds;
  result.achieved_rate = gen_report.value().achieved_rate;
  result.admitted = gen_report.value().admitted;

  const auto out_end = broker.end_offset({kOut, 0});
  result.output_records =
      out_end.is_ok() ? static_cast<std::uint64_t>(out_end.value()) : 0;

  // Sustainable: the post-seal backlog cleared quickly (bounded lag) and
  // the generator was not held below its target (paced appends only).
  const double drain_budget = std::max(0.5, 0.35 * result.gen_seconds);
  result.sustainable = result.ok &&
                       result.drain_seconds <= drain_budget &&
                       result.achieved_rate >= 0.85 * rate;

  if (latency_into != nullptr && result.ok) {
    // Reconstruct output->input correspondence from the deterministic pool
    // and compute event-time latency per output record.
    std::vector<kafka::StoredRecord> inputs, outputs;
    broker.fetch({kIn, 0}, 0, result.admitted, inputs).status().expect_ok();
    broker.fetch({kOut, 0}, 0, result.output_records, outputs)
        .status()
        .expect_ok();
    std::vector<std::size_t> kept;
    kept.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string& line = generator.pool()[generator.pool_index(i)];
      bool keep = true;
      if (query == QueryId::kSample) {
        keep = workload::sample_keep(line, sweep.seed);
      } else if (query == QueryId::kGrep) {
        keep = workload::grep_matches(line);
      }
      if (keep) kept.push_back(i);
    }
    auto histogram = latency_into->histogram("latency");
    const std::size_t n = std::min(outputs.size(), kept.size());
    const std::size_t warmup = n / 10;  // settle window: first 10% skipped
    for (std::size_t j = warmup; j < n; ++j) {
      const Timestamp delta =
          outputs[j].timestamp - inputs[kept[j]].timestamp;
      histogram.record_us(
          delta > 0 ? static_cast<std::uint64_t>(delta) : 0);
    }
  }
  return result;
}

struct SetupRow {
  std::string setup;
  std::string query;
  double max_rate = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  bool ok = false;
};

/// Doubling search up (or halving down), then bisection, for the knee rate.
SetupRow sweep_setup(Engine engine, Sdk sdk, QueryId query,
                     const SweepConfig& sweep) {
  SetupRow row;
  row.setup = harness::setup_label(
      harness::SetupKey{engine, sdk, query, /*parallelism=*/1});
  row.query = workload::query_info(query).name;

  double good = 0.0, bad = 0.0;
  double rate = sweep.start_rate;
  for (int i = 0; i < 10; ++i) {
    const ProbeResult probe =
        run_probe(engine, sdk, query, sweep, rate, nullptr);
    if (!probe.ok) return row;
    if (probe.sustainable) {
      good = rate;
      if (bad > 0.0) break;  // knee already bracketed from a down-search
      rate *= 2.0;
    } else {
      bad = rate;
      if (good > 0.0) break;
      rate /= 2.0;
      if (rate < 500.0) break;  // pathological: nothing sustains
    }
  }
  if (good == 0.0) return row;
  if (bad == 0.0) bad = good * 2.0;
  for (int i = 0; i < sweep.bisect_probes; ++i) {
    const double mid = 0.5 * (good + bad);
    const ProbeResult probe =
        run_probe(engine, sdk, query, sweep, mid, nullptr);
    if (!probe.ok) return row;
    (probe.sustainable ? good : bad) = mid;
  }
  row.max_rate = good;

  // Latency at a comfortably sustainable point (80% of the knee), where
  // queueing delay reflects steady state rather than the overload cliff.
  runtime::MetricsRegistry latency_registry;
  const ProbeResult probe = run_probe(engine, sdk, query, sweep,
                                      0.8 * good, &latency_registry);
  if (!probe.ok) return row;
  const auto snapshot = latency_registry.snapshot();
  if (auto it = snapshot.histograms.find("latency");
      it != snapshot.histograms.end()) {
    row.p50_us = it->second.p50_us();
    row.p99_us = it->second.p99_us();
    row.p999_us = it->second.p999_us();
  }
  row.ok = true;
  return row;
}

std::int64_t vm_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1;
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

struct OverloadResult {
  double offered_rate = 0.0;
  double achieved_rate = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t throttle_waits = 0;
  std::uint64_t overload_transitions = 0;
  std::uint64_t watchdog_stalls = 0;
  std::int64_t rss_delta_kb = 0;
  std::int64_t retained_bytes = 0;
  bool ok = false;
};

/// A probe at `factor` x the measured knee with the full protection layer
/// armed: CreditGate (policy from STREAMSHIM_SHED_POLICY), log retention,
/// and the stall watchdog. Demonstrates that offered load above capacity
/// yields bounded memory and a throttled/shed admitted stream.
OverloadResult run_overload_probe(Engine engine, Sdk sdk, QueryId query,
                                  const SweepConfig& sweep, double knee_rate,
                                  double factor) {
  OverloadResult result;
  result.offered_rate = factor * knee_rate;

  auto& gate = runtime::CreditGate::instance();
  gate.arm(runtime::CreditGate::Config{.shed = runtime::shed_policy_from_env()});
  auto& watchdog = runtime::Watchdog::instance();
  watchdog.arm(runtime::Watchdog::Config{.deadline_ms = 5'000});
  const std::uint64_t stalls_before = watchdog.stalls_detected();
  const auto metrics_before = runtime::MetricsRegistry::global().snapshot();
  const std::int64_t rss_before = vm_rss_kb();

  {
    kafka::Broker broker;
    broker.set_rtt_us(sweep.rtt_us);
    workload::create_benchmark_topic(broker, kIn).expect_ok();
    workload::create_benchmark_topic(broker, kOut).expect_ok();
    // Bounded broker memory: cap the input log well below the offered
    // volume so retention (not the run size) bounds it.
    broker
        .set_retention(kIn, kafka::RetentionConfig{.max_bytes = 8 << 20})
        .expect_ok();

    harness::LoadGenConfig gen_config;
    gen_config.topic = kIn;
    gen_config.target_rate = result.offered_rate;
    gen_config.records = std::clamp(
        static_cast<std::uint64_t>(result.offered_rate * 2.0 * sweep.window_s),
        sweep.min_records, 2 * sweep.max_records);
    gen_config.seed = sweep.seed;
    gen_config.burst_factor = 2.0;  // burst on top of steady overload
    gen_config.burst_period_ms = 100;
    gen_config.burst_width_ms = 20;
    harness::LoadGenerator generator(broker, gen_config);

    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kIn;
    ctx.output_topic = kOut;
    ctx.seed = sweep.seed;
    ctx.open_loop = true;

    Status engine_status = Status::ok();
    std::thread engine_thread([&] {
      engine_status = queries::run_query(engine, sdk, query, ctx);
    });
    auto gen_report = generator.run();
    result.retained_bytes = broker.retained_bytes(kIn);
    broker.seal_topic(kIn).expect_ok();
    engine_thread.join();

    result.ok = gen_report.is_ok() && engine_status.is_ok();
    if (gen_report.is_ok()) {
      result.achieved_rate = gen_report.value().achieved_rate;
      result.shed = gen_report.value().shed;
    }
  }

  const auto metrics_after = runtime::MetricsRegistry::global().snapshot();
  result.throttle_waits =
      metrics_after.counter("backpressure.throttle_waits") -
      metrics_before.counter("backpressure.throttle_waits");
  result.overload_transitions =
      metrics_after.counter("backpressure.overload_transitions") -
      metrics_before.counter("backpressure.overload_transitions");
  result.watchdog_stalls = watchdog.stalls_detected() - stalls_before;
  const std::int64_t rss_after = vm_rss_kb();
  result.rss_delta_kb =
      (rss_before > 0 && rss_after > 0) ? rss_after - rss_before : 0;
  watchdog.disarm();
  gate.disarm();
  return result;
}

int run_sweep() {
  const SweepConfig sweep = SweepConfig::from_env();
  std::printf(
      "=== Sustained-load sweep: max sustainable throughput, all 24 setups "
      "===\n");
  std::printf(
      "probe window %.0f ms, records <= %llu, %d bisections, RTT %lld us\n\n",
      sweep.window_s * 1e3,
      static_cast<unsigned long long>(sweep.max_records), sweep.bisect_probes,
      static_cast<long long>(sweep.rtt_us));

  std::vector<SetupRow> rows;
  bool all_ok = true;
  for (const auto engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    for (const auto sdk : {Sdk::kNative, Sdk::kBeam}) {
      for (const auto query :
           {QueryId::kIdentity, QueryId::kSample, QueryId::kProjection,
            QueryId::kGrep}) {
        SetupRow row = sweep_setup(engine, sdk, query, sweep);
        std::printf(
            "%-16s %-10s max %9.0f ev/s  p50 %6llu us  p99 %7llu us  "
            "p999 %7llu us%s\n",
            row.setup.c_str(), row.query.c_str(), row.max_rate,
            static_cast<unsigned long long>(row.p50_us),
            static_cast<unsigned long long>(row.p99_us),
            static_cast<unsigned long long>(row.p999_us),
            row.ok ? "" : "  [FAILED]");
        std::fflush(stdout);
        all_ok = all_ok && row.ok;
        rows.push_back(std::move(row));
      }
    }
  }

  // Overload demonstration at 2x the measured knee of the first setup:
  // gate + retention + watchdog armed, bursty offered load.
  const double knee = rows.empty() ? 0.0 : rows.front().max_rate;
  OverloadResult overload;
  if (knee > 0.0) {
    std::printf("\noverload probe: 2.0x knee (%s, %s), gate+retention armed\n",
                rows.front().setup.c_str(), rows.front().query.c_str());
    overload = run_overload_probe(Engine::kFlink, Sdk::kNative,
                                  QueryId::kIdentity, sweep, knee, 2.0);
    std::printf(
        "  offered %.0f ev/s -> admitted %.0f ev/s, shed %llu, "
        "throttle_waits %llu, transitions %llu, rss +%lld kB, retained %lld B, "
        "stalls %llu\n",
        overload.offered_rate, overload.achieved_rate,
        static_cast<unsigned long long>(overload.shed),
        static_cast<unsigned long long>(overload.throttle_waits),
        static_cast<unsigned long long>(overload.overload_transitions),
        static_cast<long long>(overload.rss_delta_kb),
        static_cast<long long>(overload.retained_bytes),
        static_cast<unsigned long long>(overload.watchdog_stalls));
    all_ok = all_ok && overload.ok;
  }

  return all_ok ? 0 : 1;
}

int run_soak() {
  SweepConfig sweep = SweepConfig::from_env();
  std::printf("=== Soak: 1.2x capacity, backpressure + watchdog armed ===\n");
  // Keep the soak cheap: a coarse two-probe capacity estimate per combo,
  // then one overload run each. TSan slows everything ~10x, so the combos
  // cover each engine once rather than the full matrix.
  struct Combo {
    Engine engine;
    Sdk sdk;
  };
  const std::vector<Combo> combos = {{Engine::kFlink, Sdk::kNative},
                                     {Engine::kSpark, Sdk::kBeam},
                                     {Engine::kApex, Sdk::kNative}};
  const std::int64_t rss_budget_kb = env_i64("STREAMSHIM_SOAK_RSS_KB", 786'432);
  bool ok = true;
  for (const auto& combo : combos) {
    double knee = sweep.start_rate;
    for (int i = 0; i < 3; ++i) {
      const ProbeResult probe = run_probe(combo.engine, combo.sdk,
                                          QueryId::kIdentity, sweep, knee,
                                          nullptr);
      if (!probe.ok) {
        std::fprintf(stderr, "soak: capacity probe failed\n");
        return 1;
      }
      if (!probe.sustainable) {
        knee /= 2.0;
        break;
      }
      knee *= 2.0;
    }
    const OverloadResult overload = run_overload_probe(
        combo.engine, combo.sdk, QueryId::kIdentity, sweep, knee, 1.2);
    const bool shed_expected =
        runtime::shed_policy_from_env() != runtime::ShedPolicy::kNone;
    const bool combo_ok = overload.ok && overload.watchdog_stalls == 0 &&
                          (shed_expected || overload.shed == 0) &&
                          (overload.rss_delta_kb < rss_budget_kb);
    std::printf(
        "%-7s %-7s offered %.0f -> %.0f ev/s, shed %llu, stalls %llu, "
        "rss +%lld kB  %s\n",
        queries::engine_name(combo.engine), queries::sdk_name(combo.sdk),
        overload.offered_rate, overload.achieved_rate,
        static_cast<unsigned long long>(overload.shed),
        static_cast<unsigned long long>(overload.watchdog_stalls),
        static_cast<long long>(overload.rss_delta_kb),
        combo_ok ? "ok" : "FAILED");
    ok = ok && combo_ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) return run_soak();
  }
  return run_sweep();
}
