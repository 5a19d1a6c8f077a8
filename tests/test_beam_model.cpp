// Tests for the Beam-sim model: coders, windowing, DoFn lifecycle, and the
// core transforms (ParDo, GroupByKey, Flatten, Window, Combine, Count)
// executed on the DirectRunner reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>

#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/direct_runner.hpp"

// Global allocation counter: every operator new in this binary goes through
// here, so a test can assert that a code path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined new with free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dsps::beam {
namespace {

/// Sink DoFn collecting values into shared storage (thread-safe).
template <typename T>
class CollectSink final : public DoFn<T, std::int64_t> {
 public:
  struct Storage {
    std::mutex mutex;
    std::vector<T> values;
  };

  explicit CollectSink(std::shared_ptr<Storage> storage)
      : storage_(std::move(storage)) {}

  void process(typename DoFn<T, std::int64_t>::ProcessContext& ctx) override {
    std::lock_guard lock(storage_->mutex);
    storage_->values.push_back(ctx.element());
  }

 private:
  std::shared_ptr<Storage> storage_;
};

template <typename T>
std::pair<DoFnPtr<T, std::int64_t>,
          std::shared_ptr<typename CollectSink<T>::Storage>>
make_collector() {
  auto storage = std::make_shared<typename CollectSink<T>::Storage>();
  return {std::make_shared<CollectSink<T>>(storage), storage};
}

std::vector<std::string> strings(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

// --- coders -------------------------------------------------------------------

template <typename T>
T coder_round_trip(const CoderPtr& coder, const T& value) {
  Bytes bytes;
  BinaryWriter writer(bytes);
  coder->encode(Value{value}, writer);
  BinaryReader reader(bytes);
  return coder->decode(reader).get<T>();
}

TEST(CoderTest, StringRoundTrip) {
  const auto coder = CoderTraits<std::string>::of();
  EXPECT_EQ(coder_round_trip<std::string>(coder, "hello\tworld"),
            "hello\tworld");
  EXPECT_EQ(coder_round_trip<std::string>(coder, ""), "");
}

TEST(CoderTest, VarIntRoundTrip) {
  const auto coder = CoderTraits<std::int64_t>::of();
  for (const std::int64_t v : {0L, -1L, 42L, (long)INT64_MAX, (long)INT64_MIN}) {
    EXPECT_EQ(coder_round_trip<std::int64_t>(coder, v), v);
  }
}

TEST(CoderTest, DoubleRoundTrip) {
  const auto coder = CoderTraits<double>::of();
  for (const double v : {0.0, -3.25, 1e300, 1e-300}) {
    EXPECT_EQ(coder_round_trip<double>(coder, v), v);
  }
}

TEST(CoderTest, KvCoderRoundTrip) {
  const auto coder = CoderTraits<KV<std::string, std::int64_t>>::of();
  const KV<std::string, std::int64_t> kv{"key", 77};
  EXPECT_EQ((coder_round_trip<KV<std::string, std::int64_t>>(coder, kv)), kv);
}

TEST(CoderTest, KafkaRecordCoderRoundTrip) {
  const auto coder = CoderTraits<KafkaRecord>::of();
  const KafkaRecord record{.topic = "t",
                           .partition = 3,
                           .offset = 99,
                           .timestamp = 123456,
                           .key = "k",
                           .value = "v"};
  EXPECT_EQ(coder_round_trip<KafkaRecord>(coder, record), record);
}

TEST(CoderTest, KafkaRecordDecodeAliasesTheWireBuffer) {
  const auto coder = CoderTraits<KafkaRecord>::of();
  const KafkaRecord record{.topic = "aol-queries",
                           .partition = 1,
                           .offset = 5,
                           .timestamp = 7,
                           .key = "the key",
                           .value = "the value bytes"};
  Bytes bytes;
  BinaryWriter writer(bytes);
  coder->encode(Value{record}, writer);
  const runtime::Payload wire(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  BinaryReader reader = runtime::payload_reader(wire);
  const Value decoded = coder->decode(reader);
  const auto& restored = decoded.get<KafkaRecord>();
  EXPECT_EQ(restored, record);
  EXPECT_TRUE(restored.key.shares_storage_with(wire));
  EXPECT_TRUE(restored.value.shares_storage_with(wire));
}

TEST(CoderTest, WindowedValueCoderPreservesMetadata) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  Element element = make_element<std::string>("payload", 4200);
  element.windows = {BoundedWindow{1000, 2000}, BoundedWindow{2000, 3000}};
  element.pane = PaneInfo{.is_first = false, .is_last = true, .index = 3};
  const Element restored = coder.decode(coder.encode(element));
  EXPECT_EQ(element_value<std::string>(restored), "payload");
  EXPECT_EQ(restored.timestamp, 4200);
  EXPECT_EQ(restored.windows, element.windows);
  EXPECT_FALSE(restored.pane.is_first);
  EXPECT_TRUE(restored.pane.is_last);
  EXPECT_EQ(restored.pane.index, 3);
}

// --- allocation-free envelope ---------------------------------------------------

/// Allocations made while `sample` is built into a Value, copied, moved,
/// copy-assigned, read back, and carried in a copied Element.
template <typename T>
std::uint64_t allocations_through_value(const T& sample, bool& read_back) {
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  {
    Value built{sample};
    Value copied{built};
    Value moved{std::move(copied)};
    Value assigned;
    assigned = moved;
    read_back = assigned.get<T>() == sample && moved.get<T>() == sample;
    const Element element = make_element(sample, 42);
    const Element element_copy = element;
    read_back = read_back && element_value<T>(element_copy) == sample;
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

template <typename T>
void expect_allocation_free(const T& sample, const char* type_name) {
  bool read_back = false;
  EXPECT_EQ(allocations_through_value(sample, read_back), 0u) << type_name;
  EXPECT_TRUE(read_back) << type_name;
}

TEST(ValueTest, InlineTypesMoveThroughTheEnvelopeWithoutAllocating) {
  // Strings stay within the small-string buffer (<= 15 bytes), and the
  // Payloads are built up front: only the envelope's own work is counted.
  const runtime::Payload key("key");
  const runtime::Payload value("a record value that is long");
  expect_allocation_free(std::string("short"), "std::string");
  expect_allocation_free(KV<std::string, std::string>{"k", "v"},
                         "KV<string, string>");
  expect_allocation_free(value, "Payload");
  expect_allocation_free(KV<runtime::Payload, runtime::Payload>{key, value},
                         "KV<Payload, Payload>");
  expect_allocation_free(KafkaRecord{.topic = "aol-queries",
                                     .partition = 2,
                                     .offset = 17,
                                     .timestamp = 1000,
                                     .key = key,
                                     .value = value},
                         "KafkaRecord");
  expect_allocation_free(ProducerRecordStub{.key = key, .value = value},
                         "ProducerRecordStub");
  expect_allocation_free(std::int64_t{7}, "std::int64_t");
  expect_allocation_free(2.5, "double");
}

TEST(ValueTest, OtherTypesAreStillBoxed) {
  // Trivially copyable, but too large for std::any's small buffer: the
  // fallback allocates, which also shows the counter sees allocations.
  struct Wide {
    std::int64_t a, b, c;
    bool operator==(const Wide&) const = default;
  };
  bool read_back = false;
  EXPECT_GT(allocations_through_value(Wide{1, 2, 3}, read_back), 0u);
  EXPECT_TRUE(read_back);
}

// --- windowing -----------------------------------------------------------------

TEST(WindowTest, FixedWindowsAssignByTimestamp) {
  const WindowFn fn = fixed_windows(1000);
  const auto windows = fn(2500);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].start, 2000);
  EXPECT_EQ(windows[0].end, 3000);
}

TEST(WindowTest, FixedWindowsHandleBoundariesAndNegatives) {
  const WindowFn fn = fixed_windows(1000);
  EXPECT_EQ(fn(2000)[0].start, 2000);   // boundary belongs to the new window
  EXPECT_EQ(fn(-1)[0].start, -1000);    // negative timestamps floor correctly
  EXPECT_EQ(fn(-1000)[0].start, -1000);
}

TEST(WindowTest, GlobalWindowIsDefault) {
  const Element element = make_element<int>(1);
  ASSERT_EQ(element.windows.size(), 1u);
  EXPECT_EQ(element.windows[0], global_window());
}

// --- DoFn lifecycle ---------------------------------------------------------------

TEST(DoFnTest, LifecycleOrder) {
  struct Recording final : DoFn<std::string, std::string> {
    std::vector<std::string>* log;
    explicit Recording(std::vector<std::string>* log_ptr) : log(log_ptr) {}
    void setup() override { log->push_back("setup"); }
    void start_bundle() override { log->push_back("start_bundle"); }
    void process(ProcessContext& ctx) override {
      log->push_back("process:" + ctx.element());
    }
    void finish_bundle(
        const std::function<void(std::string)>&) override {
      log->push_back("finish_bundle");
    }
    void teardown() override { log->push_back("teardown"); }
  };
  std::vector<std::string> log;
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"a", "b"}))
      .apply(ParDo::of<std::string, std::string>(
          std::make_shared<Recording>(&log)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(log, (std::vector<std::string>{"setup", "start_bundle",
                                           "process:a", "process:b",
                                           "finish_bundle", "teardown"}));
}

TEST(DoFnTest, BundleBoundariesRestartBundles) {
  struct Counting final : DoFn<std::string, std::string> {
    int* bundles;
    explicit Counting(int* b) : bundles(b) {}
    void process(ProcessContext&) override {}
    void start_bundle() override { ++*bundles; }
  };
  int bundles = 0;
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of(strings(25)))
      .apply(ParDo::of<std::string, std::string>(
          std::make_shared<Counting>(&bundles)));
  DirectRunner runner(DirectRunnerOptions{.bundle_size = 10});
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  // Initial bundle + restarts after elements 10 and 20.
  EXPECT_EQ(bundles, 3);
}

TEST(DoFnTest, OutputWithTimestampOverrides) {
  auto [sink, storage] = make_collector<std::int64_t>();
  struct Stamper final : DoFn<std::string, std::int64_t> {
    void process(ProcessContext& ctx) override {
      ctx.output_with_timestamp(99, 1234);
    }
  };
  Pipeline pipeline;
  auto stamped = pipeline.apply(Create<std::string>::of({"x"}))
                     .apply(ParDo::of<std::string, std::int64_t>(
                         std::make_shared<Stamper>()));
  // Verify through a second DoFn observing the timestamp.
  struct Check final : DoFn<std::int64_t, std::int64_t> {
    Timestamp* seen;
    explicit Check(Timestamp* s) : seen(s) {}
    void process(ProcessContext& ctx) override { *seen = ctx.timestamp(); }
  };
  Timestamp seen = 0;
  stamped.apply(ParDo::of<std::int64_t, std::int64_t>(
      std::make_shared<Check>(&seen)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(seen, 1234);
}

// --- core transforms -----------------------------------------------------------------

TEST(TransformTest, MapElements) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"a", "b", "c"}))
      .apply(MapElements<std::string, std::string>::via(
          [](const std::string& s) { return s + "!"; }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"a!", "b!", "c!"}));
}

TEST(TransformTest, FilterKeepsMatching) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"keep-1", "drop", "keep-2"}))
      .apply(Filter<std::string>::by([](const std::string& s) {
        return s.starts_with("keep");
      }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"keep-1", "keep-2"}));
}

TEST(TransformTest, FlatMapEmitsMany) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"ab", "c"}))
      .apply(FlatMapElements<std::string, std::string>::via(
          [](const std::string& s, const std::function<void(std::string)>& out) {
            for (const char c : s) out(std::string(1, c));
          }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TransformTest, GroupByKeyGroupsAllValues) {
  using InKv = KV<std::string, std::int64_t>;
  using OutKv = KV<std::string, std::vector<std::int64_t>>;
  auto [sink, storage] = make_collector<OutKv>();
  Pipeline pipeline;
  std::vector<InKv> input;
  for (std::int64_t i = 0; i < 30; ++i) {
    input.push_back(InKv{i % 3 == 0 ? "fizz" : "other", i});
  }
  pipeline.apply(Create<InKv>::of(std::move(input)))
      .apply(GroupByKey<std::string, std::int64_t>::create())
      .apply(ParDo::of<OutKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  ASSERT_EQ(storage->values.size(), 2u);
  std::map<std::string, std::size_t> sizes;
  for (const auto& group : storage->values) {
    sizes[group.key] = group.value.size();
  }
  EXPECT_EQ(sizes["fizz"], 10u);
  EXPECT_EQ(sizes["other"], 20u);
}

TEST(TransformTest, GroupByKeyRespectsWindows) {
  using InKv = KV<std::string, std::int64_t>;
  using OutKv = KV<std::string, std::vector<std::int64_t>>;
  auto [sink, storage] = make_collector<OutKv>();

  // Assign timestamps via a stamping DoFn, then window into 1000-unit
  // fixed windows: values 0..9 at timestamps 0,500,1000,... split into
  // windows of 2 values each.
  struct Stamp final : DoFn<std::int64_t, InKv> {
    void process(ProcessContext& ctx) override {
      ctx.output_with_timestamp(InKv{"k", ctx.element()},
                                ctx.element() * 500);
    }
  };
  Pipeline pipeline;
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 10; ++i) values.push_back(i);
  pipeline.apply(Create<std::int64_t>::of(std::move(values)))
      .apply(ParDo::of<std::int64_t, InKv>(std::make_shared<Stamp>()))
      .apply(WindowInto<InKv>(fixed_windows(1000)))
      .apply(GroupByKey<std::string, std::int64_t>::create())
      .apply(ParDo::of<OutKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  ASSERT_EQ(storage->values.size(), 5u);  // 5 windows of 2 values
  for (const auto& group : storage->values) {
    EXPECT_EQ(group.value.size(), 2u);
  }
}

TEST(TransformTest, FlattenMergesCollections) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  auto a = pipeline.apply(Create<std::string>::of({"a1", "a2"}, "CreateA"));
  auto b = pipeline.apply(Create<std::string>::of({"b1"}, "CreateB"));
  auto c = pipeline.apply(Create<std::string>::of({"c1", "c2"}, "CreateC"));
  flatten<std::string>({a, b, c})
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  std::vector<std::string> sorted = storage->values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a1", "a2", "b1", "c1", "c2"}));
}

TEST(TransformTest, CombinePerKeyReduces) {
  using InKv = KV<std::string, std::int64_t>;
  auto [sink, storage] = make_collector<InKv>();
  Pipeline pipeline;
  pipeline
      .apply(Create<InKv>::of({{"a", 1}, {"b", 10}, {"a", 2}, {"b", 20},
                               {"a", 3}}))
      .apply(CombinePerKey<std::string, std::int64_t>(
          [](const std::int64_t& x, const std::int64_t& y) { return x + y; }))
      .apply(ParDo::of<InKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  std::map<std::string, std::int64_t> totals;
  for (const auto& kv : storage->values) totals[kv.key] = kv.value;
  EXPECT_EQ(totals["a"], 6);
  EXPECT_EQ(totals["b"], 30);
}

TEST(TransformTest, CountPerElement) {
  using OutKv = KV<std::string, std::int64_t>;
  auto [sink, storage] = make_collector<OutKv>();
  Pipeline pipeline;
  pipeline
      .apply(Create<std::string>::of({"x", "y", "x", "x", "y"}))
      .apply(CountPerElement<std::string>{})
      .apply(ParDo::of<OutKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  std::map<std::string, std::int64_t> counts;
  for (const auto& kv : storage->values) counts[kv.key] = kv.value;
  EXPECT_EQ(counts["x"], 3);
  EXPECT_EQ(counts["y"], 2);
}

TEST(TransformTest, ValuesDropsKeys) {
  using InKv = KV<std::string, std::string>;
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<InKv>::of({{"k1", "v1"}, {"k2", "v2"}}))
      .apply(Values<std::string>::create<std::string>())
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"v1", "v2"}));
}

TEST(TransformTest, StatefulDoFnAccumulatesPerKey) {
  using InKv = KV<std::string, std::int64_t>;
  struct RunningMax final : StatefulDoFn<std::string, std::int64_t,
                                         std::int64_t, std::int64_t> {
    void process_stateful(Context& ctx, std::int64_t& state) override {
      state = std::max(state, ctx.element().value);
      ctx.output(state);
    }
  };
  auto fn = std::make_shared<RunningMax>();
  auto [sink, storage] = make_collector<std::int64_t>();
  Pipeline pipeline;
  pipeline
      .apply(Create<InKv>::of({{"a", 3}, {"a", 1}, {"b", 7}, {"a", 5},
                               {"b", 2}}))
      .apply(ParDo::of<InKv, std::int64_t>(fn))
      .apply(ParDo::of<std::int64_t, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::int64_t>{3, 3, 7, 5, 7}));
  int keys = 0;
  fn->for_each_state([&keys](const std::string&, const std::int64_t&) {
    ++keys;
  });
  EXPECT_EQ(keys, 2);
}

TEST(TransformTest, PipelineMetricsCountElements) {
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of(strings(42), "Source"))
      .apply(Filter<std::string>::by(
          [](const std::string&) { return true; }, "Keep"));
  DirectRunner runner;
  auto result = pipeline.run(runner);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().elements_in.at("Source"), 42u);
  EXPECT_EQ(result.value().elements_in.at("Keep"), 42u);
}

TEST(TransformTest, EmptyPipelineFails) {
  Pipeline pipeline;
  DirectRunner runner;
  EXPECT_EQ(pipeline.run(runner).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- KafkaIO expansion shape -----------------------------------------------------------

TEST(KafkaIoTest, ReadExpandsToSourcePlusFlatMap) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}));
  const auto& nodes = pipeline.graph().nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].kind, TransformKind::kRead);
  EXPECT_EQ(nodes[1].urn, urns::kReadExpand);
}

TEST(KafkaIoTest, FullQueryPipelineHasSevenNodes) {
  // The Fig. 13 shape: source + flat map + 5 ParDos (withoutMetadata,
  // Values, logic, ToProducerRecord, KafkaWriter).
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  auto records =
      pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}));
  auto kvs = records.apply(KafkaIO::without_metadata());
  auto values = kvs.apply(Values<runtime::Payload>::create<runtime::Payload>());
  auto filtered = values.apply(Filter<runtime::Payload>::by(
      [](const runtime::Payload& s) {
        return s.view().find("test") != std::string_view::npos;
      },
      "Grep"));
  filtered.apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  EXPECT_EQ(pipeline.graph().nodes().size(), 7u);
}

TEST(KafkaIoTest, ReadToWriteOnDirectRunner) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 50; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.key = "k" + std::to_string(i),
                                        .value = "v" + std::to_string(i)},
                  false)
        .status()
        .expect_ok();
  }
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 50);
  std::vector<kafka::StoredRecord> out;
  broker.fetch({"out", 0}, 0, 100, out).status().expect_ok();
  EXPECT_EQ(out[0].value, "v0");
  EXPECT_EQ(out[49].value, "v49");
}

TEST(KafkaIoTest, WithoutMetadataKeepsKeyAndValue) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.append({"in", 0},
                kafka::ProducerRecord{.key = "the-key", .value = "the-value"},
                false)
      .status()
      .expect_ok();
  using OutKv = KV<runtime::Payload, runtime::Payload>;
  auto [sink, storage] = make_collector<OutKv>();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(ParDo::of<OutKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  ASSERT_EQ(storage->values.size(), 1u);
  EXPECT_EQ(storage->values[0].key, "the-key");
  EXPECT_EQ(storage->values[0].value, "the-value");
}

TEST(KafkaIoTest, ReadStampsElementsWithBrokerTimestamps) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.append({"in", 0}, kafka::ProducerRecord{.value = "x"}, false)
      .status()
      .expect_ok();
  struct Check final : DoFn<KafkaRecord, std::int64_t> {
    Timestamp* seen;
    explicit Check(Timestamp* s) : seen(s) {}
    void process(ProcessContext& ctx) override { *seen = ctx.timestamp(); }
  };
  Timestamp seen = 0;
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(ParDo::of<KafkaRecord, std::int64_t>(
          std::make_shared<Check>(&seen)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"in", 0}, 0, 1, stored).status().expect_ok();
  EXPECT_EQ(seen, stored[0].timestamp);
}

}  // namespace
}  // namespace dsps::beam
