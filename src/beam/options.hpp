// PipelineOptions: portable knobs a Beam program hands to whichever runner
// executes it (mirroring Beam's PipelineOptions / --experiments flags).
// Its two flags shape the plan and only make_physical_plan reads them
// (beam/physical_plan.hpp). A sink's behaviour is not an option: async
// Kafka writes are set on the sink itself (KafkaWriteConfig::async).
//
// `fuse_stages` opts into the graph-fusion optimizer (beam/fusion.hpp). It
// is OFF by default on purpose: the unfused translation is what the paper
// measured (one operator per transform, Fig. 13), and the figure
// reproductions and slowdown factors must keep reproducing that plan. With
// fusion on, maximal chains of one-to-one ParDos execute as a single stage —
// the mitigation production Beam runners apply — which quantifies how much
// of the measured abstraction penalty is recoverable plan quality rather
// than structural cost.
#pragma once

#include "common/env.hpp"

namespace dsps::beam {

struct PipelineOptions {
  /// Run the fusion pass before translation (--fuse-stages).
  bool fuse_stages = false;

  /// Coder elision (--elide-coders): when an in-process edge's producer
  /// output-coder fingerprint equals its consumer input-coder fingerprint,
  /// the encode→decode round trip on that edge is the identity and the
  /// runner skips it (the Apex runner keeps the hop CONTAINER_LOCAL; the
  /// Flink runner keeps the engine's operator chaining). OFF by default for
  /// the same reason as fusion: the per-hop serialization is part of the
  /// abstraction cost Figs. 11–13 measure; turning it on quantifies how
  /// much of that cost a fingerprint-aware runner recovers.
  bool elide_coders = false;

  /// The one parser of the plan flags' env overrides (harness::HarnessConfig
  /// reads them through here): STREAMSHIM_FUSE_STAGES=1 turns fusion on,
  /// STREAMSHIM_CODER_ELISION=1 turns coder elision on.
  static PipelineOptions from_env() {
    return PipelineOptions{
        .fuse_stages = env_flag("STREAMSHIM_FUSE_STAGES"),
        .elide_coders = env_flag("STREAMSHIM_CODER_ELISION")};
  }
};

}  // namespace dsps::beam
