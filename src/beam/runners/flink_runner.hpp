// FlinkRunner: translates the Beam graph onto Flink-sim.
//
// Translation style (matching the real runner as the paper observed it in
// Fig. 13): every transform becomes its *own* unchained operator, the source
// renders as "PTransformTranslation.UnknownRawPTransform", the read
// expansion as "Flat Map", and every other transform as
// "ParDoTranslation.RawParDo". Elements cross a channel between every pair
// of stages, boxed in the full windowed-value envelope.
//
// The runner maps a beam::PhysicalPlan (beam/physical_plan.hpp) onto the
// engine: plan parallelism -> operator parallelism; exchanges -> FORWARD /
// HASH / REBALANCE partition modes; a fused plan chains freely, an unfused
// one chains an operator only when all its input edges are elided.
#pragma once

#include <cstddef>

#include "beam/options.hpp"
#include "beam/pipeline.hpp"
#include "beam/runner.hpp"

namespace dsps::beam {

struct FlinkRunnerOptions {
  /// The -p / --parallelism submission flag (§III-A2).
  int parallelism = 1;
  /// Elements per bundle; the writer flushes at bundle boundaries.
  std::size_t bundle_size = 1000;
  /// Portable pipeline-level knobs, resolved by the physical plan. With
  /// `fuse_stages`, chains of one-to-one ParDos deploy as one operator
  /// instead of one each — the translated plan shrinks toward the native
  /// Fig. 12 shape. Off by default: the unfused plan is what the paper
  /// measured.
  PipelineOptions pipeline{};
  /// Translated to Flink's fixed-delay restart strategy: on failure, the
  /// whole job is rebuilt and re-executed from scratch (full source
  /// re-read, at-least-once — the translated job runs without Beam-side
  /// checkpoint state).
  RestartHint restart{};
};

class FlinkRunner final : public PipelineRunner {
 public:
  explicit FlinkRunner(FlinkRunnerOptions options = {}) : options_(options) {}

  Result<PipelineResult> run(const Pipeline& pipeline) override;
  std::string name() const override { return "FlinkRunner"; }

  /// The translated execution plan without running (Fig. 13 reproduction).
  Result<std::string> translate_plan(
      const Pipeline& pipeline) const override;

 private:
  FlinkRunnerOptions options_;
};

}  // namespace dsps::beam
