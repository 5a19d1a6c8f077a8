// Coder fast-path suite: the varint wire format (LEB128 + zigzag edges),
// round-trip properties for every built-in coder, the batch-amortized arena
// encode (exact precompute, shrink-less spans, shared chunks), zero-copy
// decode aliasing/lifetime (the ASan target), concurrent batch encode (the
// TSan target), and the elision contract — fingerprint-matched edges skip
// the encode→decode round trip with byte-identical output to the non-elided
// plan and the DirectRunner reference, on every runner, including under the
// chaos harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "beam/coders.hpp"
#include "beam/element.hpp"
#include "beam/graph.hpp"
#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/apex_runner.hpp"
#include "beam/runners/direct_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "common/bytes.hpp"
#include "queries/query_factory.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/payload.hpp"
#include "workload/streambench.hpp"

namespace dsps::beam {
namespace {

using runtime::Payload;
using runtime::PayloadArena;

// --- varint wire format ------------------------------------------------------

TEST(VarintWireTest, RoundTripsEdgeValues) {
  const std::vector<std::uint64_t> values = {
      0,
      1,
      127,
      128,
      300,
      (std::uint64_t{1} << 31),
      (std::uint64_t{1} << 31) - 1,
      (std::uint64_t{1} << 63),
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    Bytes out;
    BinaryWriter writer(out);
    writer.write_varint(v);
    EXPECT_EQ(out.size(), varint_size(v)) << v;
    BinaryReader reader(out);
    EXPECT_EQ(reader.read_varint(), v);
    EXPECT_FALSE(reader.failed());
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(VarintWireTest, ZigzagRoundTripsSignedEdges) {
  const std::vector<std::int64_t> values = {
      0, -1, 1, -64, 64, std::int64_t{1} << 31, -(std::int64_t{1} << 31),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
    Bytes out;
    BinaryWriter writer(out);
    writer.write_varint_i64(v);
    BinaryReader reader(out);
    EXPECT_EQ(reader.read_varint_i64(), v);
    EXPECT_FALSE(reader.failed());
  }
  // Small magnitudes stay short — the point of the zigzag mapping.
  EXPECT_EQ(varint_size(zigzag_encode(-1)), 1u);
  EXPECT_EQ(varint_size(zigzag_encode(63)), 1u);
}

TEST(VarintWireTest, TruncatedAndOverlongInputsFail) {
  // Truncated: a continuation bit with nothing after it.
  Bytes truncated = {0x80};
  BinaryReader r1(truncated);
  r1.read_varint();
  EXPECT_TRUE(r1.failed());
  // Overlong: more than 10 continuation bytes can't encode 64 bits.
  Bytes overlong(11, 0x80);
  BinaryReader r2(overlong);
  r2.read_varint();
  EXPECT_TRUE(r2.failed());
}

TEST(VarintWireTest, StringPrefixRoundTripsIncludingEmptyAndLarge) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{127}, std::size_t{128},
        std::size_t{1} << 20}) {
    const std::string s(n, 'x');
    Bytes out;
    BinaryWriter writer(out);
    writer.write_string(s);
    EXPECT_EQ(out.size(), varint_size(n) + n);
    BinaryReader reader(out);
    const std::string_view view = reader.read_view();
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(view.size(), n);
    EXPECT_EQ(view, s);
    // The view aliases the wire buffer — no copy.
    if (n > 0) {
      EXPECT_EQ(static_cast<const void*>(view.data()),
                static_cast<const void*>(out.data() + varint_size(n)));
    }
  }
}

TEST(VarintWireTest, ViewPastEndFails) {
  Bytes out;
  BinaryWriter writer(out);
  writer.write_varint(100);  // claims 100 bytes follow; none do
  BinaryReader reader(out);
  const std::string_view view = reader.read_view();
  EXPECT_TRUE(reader.failed());
  EXPECT_TRUE(view.empty());
}

TEST(FixedWriterTest, OverflowTripsFailureInsteadOfGrowing) {
  char buffer[4];
  BinaryWriter writer(buffer, sizeof buffer);
  writer.write_u64(42);  // 8 bytes into a 4-byte span
  EXPECT_TRUE(writer.failed());
  EXPECT_EQ(writer.bytes_written(), 0u);

  BinaryWriter exact(buffer, sizeof buffer);
  exact.write_u32(7);
  EXPECT_FALSE(exact.failed());
  EXPECT_EQ(exact.bytes_written(), 4u);
  exact.write_u8(1);  // one past the end
  EXPECT_TRUE(exact.failed());
}

// --- built-in coder round trips ----------------------------------------------

void expect_round_trip(const Coder& coder, const Value& value,
                       const auto& expect_equal) {
  Bytes out;
  BinaryWriter writer(out);
  coder.encode(value, writer);
  const std::size_t hint = coder.encoded_size_hint(value);
  EXPECT_EQ(hint, out.size()) << coder.name() << " hint is not exact";
  BinaryReader reader(out);
  const Value decoded = coder.decode(reader);
  EXPECT_FALSE(reader.failed()) << coder.name();
  EXPECT_TRUE(reader.exhausted()) << coder.name();
  expect_equal(decoded);
}

TEST(CoderRoundTripTest, EveryBuiltInRoundTripsWithExactHints) {
  expect_round_trip(StringUtf8Coder{}, Value{std::string("hello\tworld")},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<std::string>(), "hello\tworld");
                    });
  expect_round_trip(StringUtf8Coder{}, Value{std::string()},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<std::string>(), "");
                    });
  expect_round_trip(PayloadCoder{}, Value{Payload("payload bytes")},
                    [](const Value& v) {
                      EXPECT_EQ(v.get<Payload>().view(), "payload bytes");
                    });
  for (const std::int64_t i :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1} << 31,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    expect_round_trip(VarIntCoder{}, Value{i}, [i](const Value& v) {
      EXPECT_EQ(v.get<std::int64_t>(), i);
    });
  }
  expect_round_trip(DoubleCoder{}, Value{3.14159}, [](const Value& v) {
    EXPECT_EQ(v.get<double>(), 3.14159);
  });
  using Pair = KV<std::string, std::int64_t>;
  const KvCoder<std::string, std::int64_t> kv(
      CoderTraits<std::string>::of(), CoderTraits<std::int64_t>::of());
  expect_round_trip(kv, Value{Pair{"key", 99}}, [](const Value& v) {
    EXPECT_EQ(v.get<Pair>().key, "key");
    EXPECT_EQ(v.get<Pair>().value, 99);
  });
}

TEST(CoderFingerprintTest, StructuralIdentityNotWireCompatibility) {
  // Same coder type => same fingerprint, across instances.
  EXPECT_EQ(StringUtf8Coder{}.fingerprint(), StringUtf8Coder{}.fingerprint());
  // StringUtf8Coder and PayloadCoder share a wire format but decode to
  // different Value alternatives, so their fingerprints must differ —
  // eliding across them would change the type the consumer sees.
  EXPECT_NE(StringUtf8Coder{}.fingerprint(), PayloadCoder{}.fingerprint());
  EXPECT_NE(VarIntCoder{}.fingerprint(), DoubleCoder{}.fingerprint());
  const KvCoder<std::string, std::int64_t> kv(
      CoderTraits<std::string>::of(), CoderTraits<std::int64_t>::of());
  EXPECT_EQ(kv.fingerprint(), "kv<string,varint>");
}

TEST(CoderElisionTest, EdgeElidableRequiresMatchingFingerprints) {
  TransformNode producer;
  TransformNode consumer;
  EXPECT_FALSE(edge_elidable(producer, consumer));  // no coders at all
  producer.output_coder = CoderTraits<Payload>::of();
  EXPECT_FALSE(edge_elidable(producer, consumer));  // consumer missing
  consumer.input_coder = CoderTraits<Payload>::of();
  EXPECT_TRUE(edge_elidable(producer, consumer));
  consumer.input_coder = CoderTraits<std::string>::of();
  EXPECT_FALSE(edge_elidable(producer, consumer));  // fingerprint mismatch
}

// --- windowed-value envelope -------------------------------------------------

Element sample_element() {
  Element element = make_element<std::string>("first\tsecond\tthird", 1234);
  element.windows = WindowSet({BoundedWindow{0, 100}, BoundedWindow{50, 150},
                               BoundedWindow{100, 200}});
  element.pane = PaneInfo{.is_first = false, .is_last = true, .index = 5};
  return element;
}

TEST(WindowedValueCoderTest, RoundTripsEnvelopeIncludingMultiWindow) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  const Element element = sample_element();
  const Bytes bytes = coder.encode(element);
  EXPECT_EQ(coder.encoded_size(element), bytes.size());

  const Element decoded = coder.decode(bytes);
  EXPECT_EQ(element_value<std::string>(decoded), "first\tsecond\tthird");
  EXPECT_EQ(decoded.timestamp, 1234);
  EXPECT_EQ(decoded.windows, element.windows);
  EXPECT_EQ(decoded.pane.is_first, false);
  EXPECT_EQ(decoded.pane.is_last, true);
  EXPECT_EQ(decoded.pane.index, 5);
}

TEST(WindowedValueCoderTest, ArenaEncodeIsByteIdenticalToGrowable) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  const Element element = sample_element();
  const Bytes growable = coder.encode(element);
  PayloadArena arena;
  const Payload slab = coder.encode(element, arena);
  EXPECT_EQ(slab.view(),
            std::string_view(reinterpret_cast<const char*>(growable.data()),
                             growable.size()));
}

TEST(WindowedValueCoderTest, BatchEncodeSharesOneArenaChunk) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  PayloadArena arena;
  std::vector<Payload> wires;
  for (int i = 0; i < 50; ++i) {
    wires.push_back(
        coder.encode(make_element<std::string>("row-" + std::to_string(i)),
                     arena));
  }
  // 50 small envelopes fit comfortably in one 64 KiB chunk: the whole batch
  // shares a single refcounted allocation.
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  for (const auto& wire : wires) {
    EXPECT_TRUE(wire.shares_storage_with(wires.front()));
  }
  // And each one still decodes to its own element.
  for (int i = 0; i < 50; ++i) {
    const Element decoded = coder.decode(wires[static_cast<std::size_t>(i)]);
    EXPECT_EQ(element_value<std::string>(decoded),
              "row-" + std::to_string(i));
  }
}

TEST(PayloadArenaTest, CommitSpanReturnsSurplusToTheChunk) {
  PayloadArena arena(256);
  char* span = arena.reserve_span(100);
  ASSERT_NE(span, nullptr);
  std::memcpy(span, "short", 5);
  const Payload first = arena.commit_span(span, 5);
  EXPECT_EQ(first.view(), "short");
  // The 95 surplus bytes went back to the chunk: the next intern lands in
  // the same allocation instead of opening a new one.
  const Payload second = arena.intern(std::string(100, 'y'));
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  EXPECT_TRUE(second.shares_storage_with(first));
}

TEST(PayloadArenaTest, OversizedReservationGetsItsOwnChunk) {
  PayloadArena arena(128);
  char* span = arena.reserve_span(1000);
  ASSERT_NE(span, nullptr);
  std::memset(span, 'z', 1000);
  const Payload big = arena.commit_span(span, 1000);
  EXPECT_EQ(big.size(), 1000u);
  EXPECT_EQ(big.view(), std::string(1000, 'z'));
}

// --- zero-copy decode: aliasing and lifetime (the ASan target) ---------------

TEST(ZeroCopyDecodeTest, DecodedPayloadAliasesTheWireBytes) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  PayloadArena arena;
  const Element element = make_element<Payload>(Payload("aliased bytes"), 7);
  const Payload wire = coder.encode(element, arena);

  const Element decoded = coder.decode(wire);
  const Payload& value = element_value<Payload>(decoded);
  EXPECT_EQ(value.view(), "aliased bytes");
  EXPECT_TRUE(value.shares_storage_with(wire))
      << "Payload decode materialized a copy instead of aliasing the wire";
  // The decoded bytes literally live inside the wire buffer.
  EXPECT_GE(value.data(), wire.data());
  EXPECT_LE(value.data() + value.size(), wire.data() + wire.size());
}

TEST(ZeroCopyDecodeTest, DecodedViewOutlivesWireAndArena) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  Element decoded;
  {
    auto arena = std::make_unique<PayloadArena>();
    const Payload wire = coder.encode(
        make_element<Payload>(Payload("survives the arena"), 1), *arena);
    decoded = coder.decode(wire);
    // Both the wire payload and the arena die here; the decoded value's
    // refcount on the chunk must keep the bytes alive (ASan verifies).
  }
  EXPECT_EQ(element_value<Payload>(decoded).view(), "survives the arena");
}

TEST(ZeroCopyDecodeTest, ReaderWithoutOwnerFallsBackToOwningCopy) {
  const WindowedValueCoder coder(CoderTraits<Payload>::of());
  const Bytes bytes =
      coder.encode(make_element<Payload>(Payload("copied"), 1));
  // A plain Bytes reader has no refcounted owner, so the decode must copy —
  // the decoded value stays valid after the Bytes buffer dies.
  Element decoded;
  {
    const Bytes local = bytes;
    decoded = coder.decode(local);
  }
  EXPECT_EQ(element_value<Payload>(decoded).view(), "copied");
}

// --- concurrent batch encode (the TSan target) -------------------------------

TEST(ConcurrentEncodeTest, PerThreadArenasEncodeAndHandOffAcrossThreads) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Payload>> wires(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&coder, &wires, t] {
      // Single-writer arena per producer thread — the production structure.
      PayloadArena arena;
      wires[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        wires[static_cast<std::size_t>(t)].push_back(coder.encode(
            make_element<std::string>(std::to_string(t) + ":" +
                                      std::to_string(i)),
            arena));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Decode on the main thread: the refcounted chunks crossed threads.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const Element decoded =
          coder.decode(wires[static_cast<std::size_t>(t)]
                            [static_cast<std::size_t>(i)]);
      EXPECT_EQ(element_value<std::string>(decoded),
                std::to_string(t) + ":" + std::to_string(i));
    }
  }
}

// --- elision differential: elided == plain == DirectRunner -------------------

void load_topic(kafka::Broker& broker, const std::string& topic, int n) {
  broker.create_topic(topic, kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < n; ++i) {
    // Tab-separated rows; every 7th contains the Grep needle.
    const std::string value = (i % 7 == 0 ? "a test row " : "a plain row ") +
                              std::to_string(i) + "\tsecond-col";
    broker.append({topic, 0}, kafka::ProducerRecord{.value = value}, false)
        .status()
        .expect_ok();
  }
}

std::vector<std::string> read_topic(kafka::Broker& broker,
                                    const std::string& topic) {
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({topic, 0}, 0, 1'000'000, stored).status().expect_ok();
  std::vector<std::string> values;
  values.reserve(stored.size());
  for (auto& record : stored) values.push_back(record.value.str());
  std::sort(values.begin(), values.end());
  return values;
}

enum class RunnerKind { kDirect, kFlink, kSpark, kApex };

std::unique_ptr<PipelineRunner> make_runner(RunnerKind kind,
                                            const PipelineOptions& options,
                                            RestartHint restart = {}) {
  switch (kind) {
    case RunnerKind::kDirect:
      return std::make_unique<DirectRunner>();
    case RunnerKind::kFlink:
      return std::make_unique<FlinkRunner>(FlinkRunnerOptions{
          .parallelism = 1, .pipeline = options, .restart = restart});
    case RunnerKind::kSpark:
      return std::make_unique<SparkRunner>(SparkRunnerOptions{
          .parallelism = 1, .batch_interval_ms = 10, .pipeline = options,
          .restart = restart});
    case RunnerKind::kApex:
      return std::make_unique<ApexRunner>(ApexRunnerOptions{
          .parallelism = 1, .restart = restart, .pipeline = options});
  }
  throw std::invalid_argument("unknown runner");
}

std::unique_ptr<PipelineRunner> make_runner(RunnerKind kind, bool elide) {
  return make_runner(kind, PipelineOptions{.elide_coders = elide});
}

/// The four StreamBench query bodies. Sample uses a per-pipeline seeded
/// decider (not the thread-local production path) so the kept subset is a
/// pure function of element order — the property a differential test needs.
PCollection<Payload> apply_query(const PCollection<Payload>& values,
                                 workload::QueryId query) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return values.apply(MapElements<Payload, Payload>::via(
          [](const Payload& line) { return line; }, "Identity"));
    case QueryId::kSample:
      return values.apply(Filter<Payload>::by(
          [decider = workload::SampleDecider(7)](const Payload&) mutable {
            return decider.keep();
          },
          "Sample"));
    case QueryId::kProjection:
      return values.apply(MapElements<Payload, Payload>::via(
          [](const Payload& line) {
            return workload::projection_payload(line);
          },
          "Projection"));
    case QueryId::kGrep:
      return values.apply(Filter<Payload>::by(
          [](const Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Grep"));
  }
  throw std::invalid_argument("unknown query");
}

/// KafkaIO.read -> withoutMetadata -> Values -> <query> -> KafkaIO.write:
/// the StreamBench chain, 7 transforms and 6 edges.
void build_query_pipeline(Pipeline& pipeline, kafka::Broker& broker,
                          workload::QueryId query) {
  auto values =
      pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
          .apply(KafkaIO::without_metadata())
          .apply(Values<Payload>::create<Payload>());
  apply_query(values, query)
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
}

std::vector<std::string> run_query_with(RunnerKind kind, bool elide,
                                        workload::QueryId query) {
  kafka::Broker broker;
  load_topic(broker, "in", 400);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  build_query_pipeline(pipeline, broker, query);
  auto runner = make_runner(kind, elide);
  auto result = pipeline.run(*runner);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return read_topic(broker, "out");
}

class ElisionDifferentialTest
    : public ::testing::TestWithParam<workload::QueryId> {};

TEST_P(ElisionDifferentialTest, ElidedMatchesPlainAndDirectOnEveryRunner) {
  const workload::QueryId query = GetParam();
  const auto reference = run_query_with(RunnerKind::kDirect, false, query);
  ASSERT_FALSE(reference.empty() && query != workload::QueryId::kGrep);
  for (const RunnerKind kind :
       {RunnerKind::kFlink, RunnerKind::kSpark, RunnerKind::kApex}) {
    const auto plain = run_query_with(kind, false, query);
    const auto elided = run_query_with(kind, true, query);
    EXPECT_EQ(plain, reference) << "plain diverged from DirectRunner";
    EXPECT_EQ(elided, reference) << "elided diverged from DirectRunner";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, ElisionDifferentialTest,
    ::testing::Values(workload::QueryId::kIdentity, workload::QueryId::kSample,
                      workload::QueryId::kProjection,
                      workload::QueryId::kGrep),
    [](const auto& info) {
      return workload::query_info(info.param).name;
    });

// --- elided-edges accounting -------------------------------------------------

std::uint64_t elided_edges_counter() {
  return runtime::MetricsRegistry::global().snapshot().counter(
      "runtime.serde.elided_edges");
}

TEST(ElisionAccountingTest, ArmedRunnersCountElidedEdgesAndDisarmedDont) {
  for (const RunnerKind kind : {RunnerKind::kFlink, RunnerKind::kApex}) {
    const std::uint64_t before_plain = elided_edges_counter();
    run_query_with(kind, false, workload::QueryId::kProjection);
    EXPECT_EQ(elided_edges_counter(), before_plain)
        << "flag-off run elided edges — the paper's plans must not";

    const std::uint64_t before_elided = elided_edges_counter();
    run_query_with(kind, true, workload::QueryId::kProjection);
    EXPECT_GT(elided_edges_counter(), before_elided)
        << "armed run elided no edges — the fast path never engaged";
  }
}

TEST(ElisionAccountingTest, PlanOnlyTranslationLeavesTheRunCounterAlone) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  build_query_pipeline(pipeline, broker, workload::QueryId::kIdentity);
  const PipelineOptions elide{.elide_coders = true};
  const std::uint64_t before = elided_edges_counter();
  ASSERT_TRUE(FlinkRunner(FlinkRunnerOptions{.pipeline = elide})
                  .translate_plan(pipeline)
                  .is_ok());
  ASSERT_TRUE(ApexRunner(ApexRunnerOptions{.pipeline = elide})
                  .translate_plan(pipeline)
                  .is_ok());
  EXPECT_EQ(elided_edges_counter(), before)
      << "rendering a plan is not a run";
}

/// runtime.serde.elided_edges added by one run of the Identity chain.
std::uint64_t elided_edges_of_run(RunnerKind kind,
                                  const PipelineOptions& options,
                                  RestartHint restart = {}) {
  kafka::Broker broker;
  load_topic(broker, "in", 200);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  build_query_pipeline(pipeline, broker, workload::QueryId::kIdentity);
  const std::uint64_t before = elided_edges_counter();
  auto runner = make_runner(kind, options, restart);
  const auto result = pipeline.run(*runner);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return elided_edges_counter() - before;
}

TEST(ElisionAccountingTest, EachRunCountsItsElidedEdgesOnce) {
  const PipelineOptions elide{.elide_coders = true};
  const PipelineOptions fuse_elide{.fuse_stages = true, .elide_coders = true};
  // Flink: all 6 forward edges elide; a fused plan chains by fusion and
  // counts none. Apex: 6 edges elide unfused, the 2 edges around the fused
  // chain when fused.
  EXPECT_EQ(elided_edges_of_run(RunnerKind::kFlink, elide), 6u);
  EXPECT_EQ(elided_edges_of_run(RunnerKind::kFlink, fuse_elide), 0u);
  EXPECT_EQ(elided_edges_of_run(RunnerKind::kApex, elide), 6u);
  EXPECT_EQ(elided_edges_of_run(RunnerKind::kApex, fuse_elide), 2u);
  EXPECT_EQ(elided_edges_of_run(RunnerKind::kSpark, elide), 0u);

  // A restarted Flink job is still one run of one plan.
  using runtime::FaultInjector;
  auto& injector = FaultInjector::instance();
  injector.arm(3, {runtime::FaultRule{
                      .point = runtime::FaultPoint::kOperatorThrow,
                      .site = "beam.source",
                      .after_hits = 2,
                      .times = 1}});
  const std::uint64_t restarted = elided_edges_of_run(
      RunnerKind::kFlink, elide, RestartHint{.max_restarts = 2});
  const std::uint64_t injected = injector.injected_count();
  injector.disarm();
  EXPECT_GT(injected, 0u) << "the fault schedule never struck";
  EXPECT_EQ(restarted, 6u);
}

// --- production path (queries::run_beam + ctx.elide_coders) ------------------

TEST(ElisionProductionPathTest, ElideCodersFlagPreservesQueryOutput) {
  // The deterministic production queries (Sample excluded: its thread-local
  // sampling is seeded per worker thread, and elision legitimately changes
  // the threading) through the real factory, elided vs plain per engine.
  for (const auto query :
       {workload::QueryId::kIdentity, workload::QueryId::kProjection,
        workload::QueryId::kGrep}) {
    std::vector<std::vector<std::string>> outputs;
    for (const auto engine :
         {queries::Engine::kFlink, queries::Engine::kSpark,
          queries::Engine::kApex}) {
      for (const bool elide : {false, true}) {
        kafka::Broker broker;
        load_topic(broker, "in", 300);
        broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
            .expect_ok();
        queries::QueryContext ctx;
        ctx.broker = &broker;
        ctx.input_topic = "in";
        ctx.output_topic = "out";
        ctx.elide_coders = elide;
        const Status status = queries::run_beam(engine, query, ctx);
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        outputs.push_back(read_topic(broker, "out"));
      }
    }
    for (std::size_t i = 1; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[i], outputs[0])
          << workload::query_info(query).name << " run " << i
          << " diverged";
    }
  }
}

// --- chaos differential: the fast path under fault injection -----------------

TEST(ElisionChaosTest, ElidedPathStaysAtLeastOnceUnderFaults) {
  using runtime::FaultInjector;
  using runtime::FaultPoint;
  using runtime::FaultRule;
  constexpr int kRecords = 3000;
  constexpr const char* kIn = "elide-chaos-in";
  constexpr const char* kOut = "elide-chaos-out";

  // The unfaulted, non-elided reference.
  const std::vector<std::string> baseline = [&] {
    kafka::Broker broker;
    load_topic(broker, kIn, kRecords);
    broker.create_topic(kOut, kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kIn;
    ctx.output_topic = kOut;
    queries::run_beam(queries::Engine::kFlink, workload::QueryId::kGrep, ctx)
        .expect_ok();
    return read_topic(broker, kOut);
  }();
  ASSERT_FALSE(baseline.empty());

  for (const auto engine :
       {queries::Engine::kFlink, queries::Engine::kSpark,
        queries::Engine::kApex}) {
    SCOPED_TRACE(queries::engine_name(engine));
    kafka::Broker broker;
    load_topic(broker, kIn, kRecords);
    broker.create_topic(kOut, kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kIn;
    ctx.output_topic = kOut;
    ctx.elide_coders = true;
    ctx.recovery.enabled = true;
    ctx.recovery.max_restarts = 4;
    ctx.recovery.backoff_seed = 5;

    FaultRule kill{.point = FaultPoint::kOperatorThrow, .times = 1};
    int burn = 0;
    switch (engine) {
      case queries::Engine::kFlink:
        // Under elision the whole Beam pipeline chains into one source
        // vertex, so per-vertex task sites like "ParDo" never probe; the
        // Beam source's own invoker is the strike point that survives
        // chaining.
        kill.site = "beam.source";
        kill.after_hits = 2;
        break;
      case queries::Engine::kSpark:
        kill.site = "spark.batch";
        kill.after_hits = 1;
        burn = 1;
        break;
      case queries::Engine::kApex:
        kill.site = "apex.";
        kill.after_hits = 1;
        break;
    }
    auto& injector = FaultInjector::instance();
    injector.arm(5, {kill});
    for (int i = 0; i < burn; ++i) {
      try {
        injector.maybe_throw(FaultPoint::kOperatorThrow, "spark.batch");
      } catch (const runtime::FaultInjectedError&) {
      }
    }
    const Status status = queries::run_beam(
        engine, workload::QueryId::kGrep, ctx);
    const std::uint64_t injected = injector.injected_count();
    injector.disarm();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_GT(injected, 0u) << "the fault schedule never struck";

    // At-least-once: nothing lost, nothing invented (duplicates allowed).
    const auto output = read_topic(broker, kOut);
    std::map<std::string, long> missing;
    for (const auto& value : baseline) ++missing[value];
    for (const auto& value : output) --missing[value];
    long lost = 0;
    for (const auto& [value, count] : missing) {
      if (count > 0) lost += count;
    }
    EXPECT_EQ(lost, 0) << "elided recovery lost records";
    EXPECT_EQ(std::set<std::string>(output.begin(), output.end()),
              std::set<std::string>(baseline.begin(), baseline.end()));
  }
}

}  // namespace
}  // namespace dsps::beam
