#include "beam/physical_plan.hpp"

#include "beam/fusion.hpp"

namespace dsps::beam {

PhysicalPlan make_physical_plan(const BeamGraph& graph,
                                const PipelineOptions& options,
                                int default_parallelism) {
  PhysicalPlan plan{
      .graph = options.fuse_stages ? fuse_graph(graph) : graph,
      .fused = options.fuse_stages};
  const auto& nodes = plan.graph.nodes();
  const auto consumers = consumer_lists(plan.graph);
  plan.nodes.resize(nodes.size());
  for (const auto& node : nodes) {
    PlanNode& planned = plan.nodes[static_cast<std::size_t>(node.id)];
    planned.parallelism = node.parallelism_hint > 0 ? node.parallelism_hint
                                                    : default_parallelism;
    planned.terminal = consumers[static_cast<std::size_t>(node.id)].empty();
    for (const int input : node.inputs) {
      // Builder order is topological: the producer is already planned.
      PlanEdge edge{.from = input};
      if (node.key_hash) {
        edge.exchange = Exchange::kKeyed;
      } else if (plan.at(input).parallelism != planned.parallelism) {
        edge.exchange = Exchange::kRebalance;
      }
      edge.elided =
          options.elide_coders && edge_elidable(plan.graph.node(input), node);
      planned.inputs.push_back(edge);
    }
  }
  return plan;
}

}  // namespace dsps::beam
