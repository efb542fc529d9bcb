// Shared miniature-world fixtures for the test suite. The full
// experiment world (1200 concepts, 30k+ auxiliary images, 40-epoch
// backbone pretraining) is deliberately expensive; tests use a shrunken
// world with the same structure so the whole suite runs in a couple of
// minutes on one core. Fixtures are memoized per process.
#pragma once

#include <memory>

#include "backbone/zoo.hpp"
#include "scads/scads.hpp"
#include "synth/split.hpp"
#include "synth/tasks.hpp"
#include "util/parallel.hpp"

namespace taglets::testing {

/// Small world config: ~300 concepts, low-budget camera. All target
/// class names are attached so every task builder works.
inline synth::WorldConfig small_world_config(std::uint64_t seed = 7) {
  synth::WorldConfig config = synth::default_world_config(seed);
  config.concept_count = 300;
  config.cross_edges = 600;
  config.render_regions = 8;
  return config;
}

/// Low-budget pretraining config matched to the small world.
inline backbone::PretrainConfig small_pretrain_config() {
  backbone::PretrainConfig config;
  config.hidden_dim = 64;
  config.feature_dim = 24;
  config.images_per_class = 8;
  config.epochs = 25;
  return config;
}

/// Memoized small world (built once per test binary).
inline synth::World& small_world() {
  static synth::World world(small_world_config());
  return world;
}

/// Memoized zoo over the small world (no disk cache: tests must not
/// depend on prior runs).
inline backbone::Zoo& small_zoo() {
  static backbone::Zoo zoo(&small_world(), small_pretrain_config(),
                           std::string{});
  return zoo;
}

/// Memoized SCADS over the small world with a small auxiliary corpus
/// installed.
inline scads::Scads& small_scads() {
  static std::unique_ptr<scads::Scads> instance = [] {
    auto& world = small_world();
    auto scads = std::make_unique<scads::Scads>(
        world.graph(), world.taxonomy(), world.scads_embeddings());
    util::Rng rng(1234);
    scads->install_dataset(
        world.make_auxiliary_corpus(world.auxiliary_concepts(), 10, rng));
    return scads;
  }();
  return *instance;
}

/// A small 10-class 1-shot task (the FMD analogue on the small world).
inline synth::FewShotTask small_task(std::size_t shots = 1,
                                     std::uint64_t split = 0) {
  synth::TaskSpec spec = synth::fmd_spec();
  spec.images_per_class = 30;
  synth::Dataset pool = synth::build_task_pool(small_world(), spec, 11);
  return synth::make_few_shot_task(pool, shots, spec.test_per_class,
                                   split + 101);
}

/// Temporarily redirect util::Parallel::global() at a specific pool —
/// e.g. a 1-lane pool, on which the pipeline's task graph dispatches
/// every node in topological order on the calling thread.
class GlobalParallelOverride {
 public:
  explicit GlobalParallelOverride(util::Parallel* pool)
      : prev_(util::Parallel::exchange_global(pool)) {}
  ~GlobalParallelOverride() { util::Parallel::exchange_global(prev_); }

  GlobalParallelOverride(const GlobalParallelOverride&) = delete;
  GlobalParallelOverride& operator=(const GlobalParallelOverride&) = delete;

 private:
  util::Parallel* prev_;
};

}  // namespace taglets::testing
