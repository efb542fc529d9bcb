// Lab: the shared experimental environment every bench and integration
// test runs in. Owns one synthetic world, the backbone zoo, a SCADS with
// "ImageNet-21k-S" installed (plus the Grocery novel concepts), the
// pretrained ZSL-KG engine, and cached task pools. Building these once
// and sharing them mirrors the paper's setup, where ConceptNet +
// ImageNet-21k + pretrained encoders are fixed across all experiments.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "backbone/zoo.hpp"
#include "modules/zsl_kg.hpp"
#include "scads/scads.hpp"
#include "synth/tasks.hpp"

namespace taglets::eval {

struct LabConfig {
  std::uint64_t world_seed = 7;
  /// Images per concept installed into SCADS ("ImageNet-21k-S" density).
  std::size_t aux_images_per_concept = 28;
  backbone::PretrainConfig pretrain{};
  modules::ZslKgEngine::Config zsl{};
  /// Disk cache directory for backbones and the ZSL-KG engine ("" = no
  /// disk cache; unset = the Zoo default, which reads TAGLETS_CACHE).
  std::optional<std::string> cache_dir;
};

class Lab {
 public:
  explicit Lab(LabConfig config = LabConfig());

  synth::World& world() { return *world_; }
  backbone::Zoo& zoo() { return *zoo_; }
  scads::Scads& scads() { return *scads_; }
  /// Lazily builds the ZSL-KG engine on first use (loaded from the
  /// zoo's disk cache, or pretrained and cached).
  modules::ZslKgEngine& zsl_engine();

  /// Full image pool for a task (cached per spec).
  const synth::Dataset& task_pool(const synth::TaskSpec& spec);

  /// FewShotTask for (spec, shots, split) — Appendix A.3 protocol.
  synth::FewShotTask task(const synth::TaskSpec& spec, std::size_t shots,
                          std::size_t split);

  const LabConfig& config() const { return config_; }

 private:
  /// Registers oatghurt/soyghurt in SCADS with their Example A.1 links.
  void add_grocery_novel_concepts();

  LabConfig config_;
  std::unique_ptr<synth::World> world_;
  std::unique_ptr<backbone::Zoo> zoo_;
  std::unique_ptr<scads::Scads> scads_;
  std::unique_ptr<modules::ZslKgEngine> zsl_engine_;
  std::map<std::string, synth::Dataset> pools_;
};

}  // namespace taglets::eval
