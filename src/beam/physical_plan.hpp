// The physical plan: every shape decision a runner's translation depends
// on, made once from the BeamGraph and the PipelineOptions.
//
//   * which graph is translated — rewritten by the fusion pass
//     (beam/fusion.hpp) when PipelineOptions::fuse_stages is on;
//   * per transform: its resolved parallelism (parallelism_hint, else the
//     runner's default) and whether it is terminal (has no consumers);
//   * per input edge: the exchange (forward, keyed or rebalance) and the
//     elision proof (PipelineOptions::elide_coders and matching coder
//     fingerprints, beam::edge_elidable).
//
// The Flink, Spark and Apex runners only map these annotations onto their
// engine's primitives (chaining and partition modes, repartitions and
// output operations, stream locality and codecs). The engine-specific rules
// — e.g. Flink chains by fusion or by elision but never counts an elided
// edge of a fused plan — stay in the runner that owns them.
#pragma once

#include <vector>

#include "beam/graph.hpp"
#include "beam/options.hpp"

namespace dsps::beam {

/// How records cross an edge between two transforms.
enum class Exchange {
  kForward,    // producer subtask i feeds consumer subtask i
  kKeyed,      // the consumer routes by key (TransformNode::key_hash)
  kRebalance,  // the parallelism changes: round-robin redistribution
};

struct PlanEdge {
  /// Producer node id.
  int from = 0;
  Exchange exchange = Exchange::kForward;
  /// The edge's encode→decode round trip is provably the identity and the
  /// options ask to skip it.
  bool elided = false;
};

struct PlanNode {
  int parallelism = 1;
  /// No consumers: the transform is a sink.
  bool terminal = false;
  /// One per TransformNode::inputs entry, in the same order.
  std::vector<PlanEdge> inputs;
};

struct PhysicalPlan {
  /// The graph runners translate: fused when the fusion pass ran.
  BeamGraph graph;
  /// The fusion pass ran (PipelineOptions::fuse_stages).
  bool fused = false;
  /// Indexed by node id in `graph`.
  std::vector<PlanNode> nodes;

  const PlanNode& at(int id) const {
    return nodes.at(static_cast<std::size_t>(id));
  }
};

/// Builds the plan for `graph`; transforms without a parallelism hint run
/// at `default_parallelism`.
PhysicalPlan make_physical_plan(const BeamGraph& graph,
                                const PipelineOptions& options,
                                int default_parallelism);

}  // namespace dsps::beam
