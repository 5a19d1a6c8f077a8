#include "beam/runners/flink_runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "beam/physical_plan.hpp"
#include "flink/environment.hpp"
#include "runtime/invoker.hpp"
#include "runtime/metrics.hpp"

namespace dsps::beam {

namespace {

/// Source function pumping a Beam reader into the Flink-sim pipeline.
class BeamSourceFunction final : public flink::SourceFunction {
 public:
  explicit BeamSourceFunction(ReaderFactory factory)
      : factory_(std::move(factory)) {}

  void open(const flink::RuntimeContext& context) override {
    reader_ = factory_(context.subtask_index, context.parallelism);
    reader_->open();
  }

  void run(flink::SourceContext& context) override {
    // The source carries its own fault site: when coder elision chains the
    // whole pipeline into this vertex, the per-vertex task probes vanish
    // and this becomes the only kOperatorThrow point on the job — a fault
    // here models a throw anywhere in the chain, replayed by the runner's
    // whole-job restart.
    runtime::OperatorInvoker invoker("beam.source");
    Element element;
    while (!context.cancelled() && reader_->advance(element)) {
      invoker.maybe_fault();
      context.collect(flink::make_elem<Element>(std::move(element)));
      element = Element{};
    }
    reader_->close();
  }

 private:
  ReaderFactory factory_;
  std::unique_ptr<SourceReader> reader_;
};

/// Operator wrapping a StageExecutor; ends bundles every `bundle_size`
/// elements and finishes the stage at close().
class BeamStageOperator final : public flink::StreamOperator {
 public:
  BeamStageOperator(StageFactory factory, std::size_t bundle_size,
                    bool recycle_boxes)
      : factory_(std::move(factory)), bundle_size_(bundle_size),
        recycle_boxes_(recycle_boxes) {}

  void open(const flink::RuntimeContext& /*context*/) override {
    executor_ = factory_();
    executor_->start();
    emit_ = [this](Element&& produced) {
      if (!free_boxes_.empty()) {
        flink::Elem box = std::move(free_boxes_.back());
        free_boxes_.pop_back();
        *static_cast<Element*>(box.get()) = std::move(produced);
        out_->collect(std::move(box));
        return;
      }
      out_->collect(flink::make_elem<Element>(std::move(produced)));
    };
  }

  void process(flink::Elem element, flink::Collector& out) override {
    out_ = &out;
    executor_->process(flink::elem_cast<Element>(element), emit_);
    if (++since_bundle_ >= bundle_size_) {
      since_bundle_ = 0;
      executor_->bundle_boundary(emit_);
    }
    // Zero-copy hand-off, upstream half: once process() returns, the
    // executor's context references into the inbound box are gone, so a
    // sole-owner box is dead storage. Under the fast path keep it and let
    // the next emit move its output in instead of heap-boxing — the chain
    // then cycles a fixed set of boxes instead of allocating per hop.
    if (recycle_boxes_ && element.use_count() == 1 &&
        free_boxes_.size() < kMaxFreeBoxes) {
      free_boxes_.push_back(std::move(element));
    }
  }

  void close(flink::Collector& out) override {
    if (!executor_) return;
    out_ = &out;
    executor_->finish(emit_);
  }

 private:
  static constexpr std::size_t kMaxFreeBoxes = 8;

  StageFactory factory_;
  std::size_t bundle_size_;
  std::unique_ptr<StageExecutor> executor_;
  std::size_t since_bundle_ = 0;
  bool recycle_boxes_;
  flink::Collector* out_ = nullptr;
  Emit emit_;
  std::vector<flink::Elem> free_boxes_;
};

const char* translated_name(const TransformNode& node) {
  switch (node.kind) {
    case TransformKind::kRead:
      return "PTransformTranslation.UnknownRawPTransform";
    case TransformKind::kGroupByKey:
      return "GroupByKey";
    case TransformKind::kWindowInto:
    case TransformKind::kFlatten:
    case TransformKind::kParDo:
      if (node.urn == urns::kFused) return node.name.c_str();
      return node.urn == urns::kReadExpand ? "Flat Map"
                                           : "ParDoTranslation.RawParDo";
  }
  return "ParDoTranslation.RawParDo";
}

/// Elided edges this translation skips serde on: the forward edges of an
/// unfused plan (a fused plan chains by fusion, not by elision).
std::uint64_t elided_edges(const PhysicalPlan& plan) {
  if (plan.fused) return 0;
  std::uint64_t count = 0;
  for (const auto& planned : plan.nodes) {
    for (const auto& edge : planned.inputs) {
      if (edge.elided && edge.exchange == Exchange::kForward) ++count;
    }
  }
  return count;
}

/// Builds the Flink-sim job for the physical plan.
Status translate(const PhysicalPlan& plan, const FlinkRunnerOptions& options,
                 flink::StreamExecutionEnvironment& env) {
  if (plan.graph.nodes().empty()) {
    return Status::failed_precondition("empty pipeline");
  }
  env.set_parallelism(options.parallelism);
  // The paper-faithful translation runs one operator per transform: no
  // chaining (Fig. 13's plan shape). A fused plan is already collapsed, so
  // the engine's own chaining glues the fused stage to its source and sink —
  // direct calls end to end, like the native pipeline. What remains of the
  // slowdown is then the structural cost of the abstraction (element
  // boxing), not operator scheduling.
  //
  // Coder elision reaches the same shape by a different proof: an unfused
  // operator is chainable onto its producer only when every input edge is
  // elided — i.e. the encode→decode hop the unchained plan models is
  // provably the identity. With no elided edge nothing chains.
  std::vector<int> beam_to_flink;
  for (const auto& node : plan.graph.nodes()) {
    const PlanNode& planned = plan.at(node.id);
    flink::StreamNode flink_node;
    flink_node.name = translated_name(node);
    flink_node.parallelism = planned.parallelism;
    if (node.kind == TransformKind::kRead) {
      flink_node.kind = flink::NodeKind::kSource;
      flink_node.make_source = [factory = node.reader] {
        return std::make_unique<BeamSourceFunction>(factory);
      };
    } else {
      // Boxes arriving over an elided edge are recycled for the next emit
      // (zero-copy hand-off, see BeamStageOperator::process).
      bool all_elided = !planned.inputs.empty();
      bool any_elided = false;
      for (const auto& input : planned.inputs) {
        all_elided &= input.elided;
        any_elided |= input.elided;
      }
      if (!plan.fused) flink_node.chainable = all_elided;
      flink_node.kind = flink::NodeKind::kOperator;
      flink_node.make_operator = [factory = node.stage,
                                  bundle = options.bundle_size,
                                  recycle = any_elided] {
        return std::make_unique<BeamStageOperator>(factory, bundle, recycle);
      };
    }
    beam_to_flink.push_back(env.add_node(std::move(flink_node)));

    for (const auto& input : planned.inputs) {
      flink::StreamEdge edge;
      edge.from = beam_to_flink.at(static_cast<std::size_t>(input.from));
      edge.to = beam_to_flink.back();
      switch (input.exchange) {
        case Exchange::kKeyed:
          edge.mode = flink::PartitionMode::kHash;
          edge.key_fn = [hash = node.key_hash](const flink::Elem& elem) {
            return hash(flink::elem_cast<Element>(elem));
          };
          break;
        case Exchange::kRebalance:
          edge.mode = flink::PartitionMode::kRebalance;
          break;
        case Exchange::kForward:
          edge.mode = flink::PartitionMode::kForward;
          break;
      }
      env.add_edge(std::move(edge));
    }
  }
  return Status::ok();
}

/// One job execution: a fresh environment and fresh source readers.
Result<PipelineResult> run_once(const PhysicalPlan& plan,
                                const FlinkRunnerOptions& options) {
  flink::StreamExecutionEnvironment env;
  if (Status s = translate(plan, options, env); !s.is_ok()) return s;
  const std::string execution_plan = env.execution_plan();
  auto job = env.execute("beam-flink-job");
  if (!job.is_ok()) return job.status();

  PipelineResult result;
  result.state = PipelineState::kDone;
  result.duration_ms = job.value().duration_ms;
  result.execution_plan = execution_plan;
  // Translation adds job vertices in Beam-node order, so vertex id i is
  // transform i; counts come from the unified metrics snapshot.
  const auto& nodes = plan.graph.nodes();
  for (std::size_t i = 0;
       i < nodes.size() && i < job.value().vertex_names.size(); ++i) {
    result.elements_in[nodes[i].name] =
        job.value().records_in(static_cast<int>(i));
  }
  return result;
}

}  // namespace

Result<PipelineResult> FlinkRunner::run(const Pipeline& pipeline) {
  const PhysicalPlan plan = make_physical_plan(
      pipeline.graph(), options_.pipeline, options_.parallelism);
  // Counted once per run: a restart re-executes the same plan.
  if (const std::uint64_t elided = elided_edges(plan); elided > 0) {
    runtime::MetricsRegistry::global()
        .counter("runtime.serde.elided_edges")
        .add(elided);
  }
  // Fixed-delay restart strategy: each attempt rebuilds the translated job
  // from the Beam graph (new environment, new readers) and re-executes it
  // from scratch — how Flink restarts a job that has no checkpoint state.
  const runtime::RestartPolicy policy{
      .max_attempts = 1 + std::max(0, options_.restart.max_restarts),
      .backoff = options_.restart.backoff};
  Result<PipelineResult> outcome = Status::internal("job never ran");
  const Status final_status = runtime::run_supervised(
      policy,
      [&](int /*attempt*/) -> Status {
        auto attempt_result = run_once(plan, options_);
        if (!attempt_result.is_ok()) return attempt_result.status();
        outcome = std::move(attempt_result);
        return Status::ok();
      },
      [](int /*attempt*/, const Status& /*error*/) {
        runtime::MetricsRegistry::global()
            .counter("flink.recovery.restarts")
            .add(1);
      });
  if (!final_status.is_ok()) return final_status;
  return outcome;
}

Result<std::string> FlinkRunner::translate_plan(
    const Pipeline& pipeline) const {
  flink::StreamExecutionEnvironment env;
  const PhysicalPlan plan = make_physical_plan(
      pipeline.graph(), options_.pipeline, options_.parallelism);
  if (Status s = translate(plan, options_, env); !s.is_ok()) return s;
  return env.execution_plan();
}

}  // namespace dsps::beam
