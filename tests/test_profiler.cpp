// Tests for the cost-attribution profiler (src/runtime/profiler.hpp), the
// unified operator invoker that feeds it, and the adaptive policy engine
// that consumes its snapshots:
//   - stage attribution sums to busy wall time within tolerance at
//     sample_stride=1, with nested scopes decomposing into self-times;
//   - a disarmed profiler attributes nothing and invoker helpers stay
//     transparent pass-throughs;
//   - stride sampling scales recorded costs back up to the true totals;
//   - fused Beam composites attribute per member, not per composite;
//   - per-thread slab flushes race-cleanly against live snapshots (the
//     TSan job runs this binary);
//   - every engine x SDK x query setup attributes time with the profiler
//     armed (an execution path that bypasses the invoker attributes none);
//   - the armed profiler stays inside its <2% overhead budget on the
//     hottest data-plane path (Flink native Identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "beam/element.hpp"
#include "beam/fusion.hpp"
#include "beam/stage.hpp"
#include "harness/benchmark.hpp"
#include "harness/figures.hpp"
#include "runtime/invoker.hpp"
#include "runtime/policy.hpp"
#include "runtime/profiler.hpp"

namespace dsps {
namespace {

using runtime::OperatorInvoker;
using runtime::PolicyEngine;
using runtime::Profiler;
using runtime::ProfilerConfig;
using runtime::ProfileSnapshot;
using runtime::ScopedStage;
using runtime::Stage;

// Busy-spin so the scope's wall time is real CPU-visible time (sleeping
// would measure the scheduler, not the profiler).
void spin_for_us(std::int64_t us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

// Every test begins disarmed with no leftover policy hook; arm() inside a
// test resets all accumulated costs.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PolicyEngine::instance().disable();
    Profiler::instance().disarm();
  }
  void TearDown() override {
    PolicyEngine::instance().disable();
    Profiler::instance().disarm();
  }
};

TEST_F(ProfilerTest, StageAttributionSumsToBusyWallTime) {
  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});

  const std::uint32_t op = profiler.operator_id("test.attribution");
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // Nested scopes: the outer user_fn must record only its *self* time,
    // the inner decode its own — no double counting.
    ScopedStage user_fn(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
    spin_for_us(3'000);
    {
      ScopedStage decode(Stage::kDecode, ScopedStage::Mode::kSampled, op);
      spin_for_us(2'000);
    }
  }
  {
    ScopedStage wait(Stage::kQueueWait, ScopedStage::Mode::kAlways);
    spin_for_us(1'000);
  }
  const double wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  profiler.flush_this_thread();

  const ProfileSnapshot snap = profiler.snapshot();
  const auto stage_us = [&](Stage stage) {
    return static_cast<double>(
        snap.stages[static_cast<std::size_t>(stage)].total_us);
  };
  // Each stage within +-35% of what was actually spun there. Generous:
  // a preempted spin loop legitimately runs long, and the scope measures
  // the same wall the spin does.
  EXPECT_GT(stage_us(Stage::kUserFn), 3'000.0 * 0.65);
  EXPECT_LT(stage_us(Stage::kUserFn), 3'000.0 * 1.35 + wall_us - 6'000.0);
  EXPECT_GT(stage_us(Stage::kDecode), 2'000.0 * 0.65);
  EXPECT_GT(stage_us(Stage::kQueueWait), 1'000.0 * 0.65);
  // And the total attribution accounts for the busy wall time: no stage
  // lost, no stage counted twice.
  const double attributed = static_cast<double>(snap.attributed_us());
  EXPECT_GT(attributed, wall_us * 0.75);
  EXPECT_LT(attributed, wall_us * 1.25);
  // Per-operator attribution carries the user_fn cost under the site name.
  ASSERT_TRUE(snap.operators.contains("test.attribution"));
  EXPECT_GT(snap.operators.at("test.attribution").total_us, 0u);
}

TEST_F(ProfilerTest, DisarmedScopesAttributeNothing) {
  auto& profiler = Profiler::instance();
  // Arm+disarm to reset, then verify totals stay frozen while disarmed.
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});
  profiler.disarm();
  const ProfileSnapshot before = profiler.snapshot();
  {
    ScopedStage user_fn(Stage::kUserFn);
    spin_for_us(500);
    ScopedStage wait(Stage::kQueueWait, ScopedStage::Mode::kAlways);
    spin_for_us(500);
  }
  profiler.flush_this_thread();
  const ProfileSnapshot delta = profiler.snapshot().since(before);
  EXPECT_EQ(delta.attributed_us(), 0u);
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    EXPECT_EQ(delta.stages[s].calls, 0u);
  }
}

TEST_F(ProfilerTest, DisarmedInvokerIsTransparent) {
  OperatorInvoker invoker("test.transparent");
  EXPECT_EQ(invoker.decode([] { return 7; }), 7);
  EXPECT_EQ(invoker.encode([] { return std::string("x"); }), "x");
  EXPECT_EQ(invoker.queue_wait([] { return 42u; }), 42u);
  int calls = 0;
  invoker.invoke([&] { ++calls; });
  invoker.invoke_unfaulted([&] { ++calls; });
  invoker.broker_rtt([&] { ++calls; });
  invoker.checkpoint([&] { ++calls; });
  EXPECT_EQ(calls, 4);
}

TEST_F(ProfilerTest, StrideSamplingScalesBackToTrueTotals) {
  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{.sample_stride = 4, .start_sampler = false});
  const std::uint32_t op = profiler.operator_id("test.stride");

  constexpr int kScopes = 400;
  constexpr std::int64_t kSpinUs = 20;
  for (int i = 0; i < kScopes; ++i) {
    ScopedStage scope(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
    spin_for_us(kSpinUs);
  }
  profiler.flush_this_thread();

  const ProfileSnapshot snap = profiler.snapshot();
  const auto& user_fn = snap.stages[static_cast<std::size_t>(Stage::kUserFn)];
  // One in four scopes actually timed...
  EXPECT_EQ(user_fn.samples, kScopes / 4);
  // ...but weights scale calls and time back to the population.
  EXPECT_EQ(user_fn.calls, static_cast<std::uint64_t>(kScopes));
  const double true_total_us = static_cast<double>(kScopes) * kSpinUs;
  EXPECT_GT(static_cast<double>(user_fn.total_us), true_total_us * 0.6);
  EXPECT_LT(static_cast<double>(user_fn.total_us), true_total_us * 1.6);
}

// A fused composite must attribute each member under its own
// "beam.<name>" site — fusing stages never loses breakdown resolution.
TEST_F(ProfilerTest, FusedStageAttributesPerMember) {
  class SpinStage final : public beam::StageExecutor {
   public:
    explicit SpinStage(std::int64_t spin_us) : spin_us_(spin_us) {}
    void process(const beam::Element& element,
                 const beam::Emit& emit) override {
      spin_for_us(spin_us_);
      beam::Element out = element;
      emit(std::move(out));
    }
    void finish(const beam::Emit& /*emit*/) override {}

   private:
    std::int64_t spin_us_;
  };

  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});

  const beam::StageFactory fused = beam::fused_stage(
      {[] { return std::make_unique<SpinStage>(300); },
       [] { return std::make_unique<SpinStage>(900); }},
      {"First", "Second"});
  const auto executor = fused();
  executor->start();
  int emitted = 0;
  const beam::Emit sink = [&emitted](beam::Element&&) { ++emitted; };
  for (int i = 0; i < 10; ++i) {
    executor->process(beam::make_element(std::string("r")), sink);
  }
  executor->finish(sink);
  profiler.flush_this_thread();

  EXPECT_EQ(emitted, 10);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_TRUE(snap.operators.contains("beam.First"));
  ASSERT_TRUE(snap.operators.contains("beam.Second"));
  const auto& first = snap.operators.at("beam.First");
  const auto& second = snap.operators.at("beam.Second");
  EXPECT_EQ(first.samples, 10u);
  EXPECT_EQ(second.samples, 10u);
  // The outer member's user_fn is *self* time: its nested call into the
  // second member must not be counted against it, so the 3:9 spin ratio
  // survives (within tolerance).
  EXPECT_GT(second.total_us, first.total_us);
  EXPECT_GT(static_cast<double>(first.total_us), 300.0 * 10 * 0.5);
  EXPECT_LT(static_cast<double>(first.total_us), 300.0 * 10 * 2.0);
}

// Hammer thread-local flushes against live snapshot readers; the TSan job
// runs this binary, so any unsynchronized publish shows up there. Counts
// are exact at stride 1 once every thread flushed.
TEST_F(ProfilerTest, ConcurrentFlushesAndSnapshotsAreRaceClean) {
  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{
      .sample_stride = 1, .sampler_interval_ms = 1, .start_sampler = true});

  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 20'000;
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      (void)Profiler::instance().snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const std::uint32_t op = Profiler::instance().operator_id(
          "test.race." + std::to_string(t));
      for (int i = 0; i < kScopesPerThread; ++i) {
        ScopedStage scope(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
      }
      Profiler::instance().flush_this_thread();
    });
  }
  for (auto& worker : workers) worker.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  const ProfileSnapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.stages[static_cast<std::size_t>(Stage::kUserFn)].calls,
            static_cast<std::uint64_t>(kThreads) * kScopesPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "test.race." + std::to_string(t);
    ASSERT_TRUE(snap.operators.contains(name)) << name;
    EXPECT_EQ(snap.operators.at(name).calls,
              static_cast<std::uint64_t>(kScopesPerThread));
  }
}

TEST_F(ProfilerTest, PolicyEngineKnobsPassThroughWhenDisabled) {
  auto& policy = PolicyEngine::instance();
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(policy.flink_buffer_timeout_us(500), 500);
  EXPECT_EQ(policy.spark_batch_interval_ms(120), 120);
  EXPECT_DOUBLE_EQ(policy.flink_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(policy.spark_multiplier(), 1.0);
}

TEST_F(ProfilerTest, PolicyEngineAdaptsToQueueShare) {
  auto& policy = PolicyEngine::instance();
  auto& profiler = Profiler::instance();
  policy.enable();
  // Stop the background sampler so only the synthetic observations below
  // drive the control loop; the policy hook itself stays registered.
  profiler.disarm();

  // A starved window (queue_wait dominates) shrinks both knobs.
  ProfileSnapshot starved;
  starved.stages[static_cast<std::size_t>(Stage::kQueueWait)].total_us =
      8'000;
  starved.stages[static_cast<std::size_t>(Stage::kUserFn)].total_us = 2'000;
  policy.observe(starved);
  EXPECT_LT(policy.flink_multiplier(), 1.0);
  EXPECT_LT(policy.flink_buffer_timeout_us(500), 500);
  EXPECT_LT(policy.spark_batch_interval_ms(120), 120);

  // Compute-bound windows (negligible queue share) grow them back. The
  // snapshots are cumulative; the engine steps on the delta.
  ProfileSnapshot busy = starved;
  for (int i = 0; i < 8; ++i) {
    busy.stages[static_cast<std::size_t>(Stage::kUserFn)].total_us += 50'000;
    policy.observe(busy);
  }
  EXPECT_GT(policy.flink_multiplier(), 1.0);
  EXPECT_GT(policy.flink_buffer_timeout_us(500), 500);

  // Disabling restores pass-through and unit multipliers.
  policy.disable();
  EXPECT_EQ(policy.flink_buffer_timeout_us(500), 500);
  EXPECT_DOUBLE_EQ(policy.flink_multiplier(), 1.0);
}

// With the profiler armed, every setup of the figure matrix attributes
// time: an engine or SDK whose execution path fell off the unified invoker
// would attribute nothing. The TSan job runs this over the full matrix.
TEST_F(ProfilerTest, EverySetupAttributesTime) {
  harness::HarnessConfig config;
  config.records = 2'000;
  config.runs = 1;
  config.profile = true;
  harness::BenchmarkHarness bench(config);
  for (const auto& key : harness::full_matrix()) {
    const auto measurements = bench.run_setup(key);
    ASSERT_TRUE(measurements.is_ok()) << harness::setup_label(key);
    EXPECT_GT(measurements.value().profile.attributed_us(), 0u)
        << harness::setup_label(key) << " "
        << workload::query_info(key.query).name;
  }
}

// Armed-minus-disarmed cost of one scope entry in ns: a tight loop of
// scopes, best of 5 loops per side.
double scope_cost_ns(Stage stage, ScopedStage::Mode mode, std::uint32_t op) {
  auto& profiler = Profiler::instance();
  constexpr int kScopes = 500'000;
  const auto best_loop_ns = [&] {
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kScopes; ++i) {
        ScopedStage scope(stage, mode, op);
      }
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (rep == 0 || ns < best) best = ns;
    }
    return best;
  };
  profiler.disarm();
  const double disarmed_ns = best_loop_ns();
  profiler.arm();
  const double armed_ns = best_loop_ns();
  profiler.disarm();
  return std::max(0.0, (armed_ns - disarmed_ns) / kScopes);
}

// The acceptance budget: an armed profiler costs < 2% on the hottest path
// (Flink native Identity, a few hundred ns per record). Timing whole armed
// and disarmed runs against each other cannot resolve 2%: separate runs of
// the same ~15 ms span differ by far more than that. So the overhead is
// estimated from parts that can be measured tightly:
//   scope entries per record (the probe's armed snapshot) x armed cost per
//   scope entry (tight loop) / median disarmed span per record.
// Timing is meaningless under sanitizers, so the TSan/ASan jobs skip it.
TEST_F(ProfilerTest, ArmedOverheadStaysUnderBudget) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "timing budget not meaningful under sanitizers";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "timing budget not meaningful under sanitizers";
#endif
#endif
  harness::HarnessConfig config;
  config.records = 50'000;
  config.runs = 1;
  harness::BenchmarkHarness bench(config);
  const harness::SetupKey probe{.engine = queries::Engine::kFlink,
                                .sdk = queries::Sdk::kNative,
                                .query = workload::QueryId::kIdentity,
                                .parallelism = 1};
  auto& profiler = Profiler::instance();
  const double records = static_cast<double>(config.records);

  profiler.disarm();
  std::vector<double> spans;
  for (int i = 0; i < 5; ++i) {
    auto run = bench.run_once(probe);
    ASSERT_TRUE(run.is_ok());
    spans.push_back(run.value().execution_seconds);
  }
  std::sort(spans.begin(), spans.end());
  const double span_ns_per_record = spans[spans.size() / 2] * 1e9 / records;
  ASSERT_GT(span_ns_per_record, 0.0);

  profiler.arm();
  ASSERT_TRUE(bench.run_once(probe).is_ok());
  profiler.disarm();
  const ProfileSnapshot armed = profiler.snapshot();
  // The invoker opens user_fn, decode and encode scopes as kSampled and
  // every other stage as kAlways (invoker.hpp).
  double sampled_calls = 0.0;
  double always_calls = 0.0;
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    const auto stage = static_cast<Stage>(s);
    const bool sampled = stage == Stage::kUserFn || stage == Stage::kDecode ||
                         stage == Stage::kEncode;
    (sampled ? sampled_calls : always_calls) +=
        static_cast<double>(armed.stages[s].calls);
  }
  const double sampled_per_record = sampled_calls / records;
  const double always_per_record = always_calls / records;
  ASSERT_GT(sampled_per_record, 0.0) << "the probe attributed no scopes";

  const std::uint32_t op = profiler.operator_id("test.overhead");
  const double sampled_ns =
      scope_cost_ns(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
  const double always_ns =
      scope_cost_ns(Stage::kQueueWait, ScopedStage::Mode::kAlways, op);

  const double overhead_pct = (sampled_per_record * sampled_ns +
                               always_per_record * always_ns) /
                              span_ns_per_record * 100.0;
  std::printf(
      "armed overhead %.2f%%: %.3f sampled x %.2f ns + %.4f always-timed x "
      "%.1f ns per record, over a median span of %.1f ns/record\n",
      overhead_pct, sampled_per_record, sampled_ns, always_per_record,
      always_ns, span_ns_per_record);
  EXPECT_LT(overhead_pct, 2.0)
      << "armed profiler overhead exceeds the 2% budget";
}

}  // namespace
}  // namespace dsps
