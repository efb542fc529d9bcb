// ZSL-KG module (Section 3.2.4): zero-shot classification driven purely
// by the knowledge graph. A TrGCN is pretrained once per world to map a
// concept's graph neighbourhood to the classification-head weights of a
// reference classifier over frozen backbone features (the Eq. 9 L2
// objective, with a train/validation class split and best-checkpoint
// selection as in Appendix A.5). At task time the GNN predicts a head
// for each *target* class from the SCADS graph — including novel
// user-added concepts — and the head is installed on the frozen encoder.
// The trained GNN is kept in the zoo's disk cache, so only the first
// run for a world pays for its training.
#pragma once

#include <istream>
#include <ostream>

#include "backbone/zoo.hpp"
#include "modules/module.hpp"
#include "modules/trgcn.hpp"
#include "scads/scads.hpp"

namespace taglets::modules {

class ZslKgEngine {
 public:
  struct Config {
    std::size_t hidden_dim = 32;
    std::size_t epochs = 80;       // paper: 1000 epochs at full scale
    std::size_t batch_size = 16;   // concepts per optimizer step
    double lr = 1e-3;              // Adam (paper: 1e-3)
    double weight_decay = 5e-4;    // paper: 5e-4
    std::size_t val_classes = 30;  // paper: 950/50 split
  };

  /// Loads the trained GNN from the zoo's disk cache, or pretrains it
  /// against the zoo's reference head (and caches it) on a miss. Either
  /// way the engine is bitwise the same: deterministic given (zoo's
  /// world, zoo's pretraining config, config).
  ZslKgEngine(backbone::Zoo& zoo, Config config);
  explicit ZslKgEngine(backbone::Zoo& zoo) : ZslKgEngine(zoo, Config()) {}

  /// Predict a C-way classification head for the given class names using
  /// the task's SCADS graph/embeddings. Classes missing from the graph
  /// get zero weights (uniform prediction) — callers should add novel
  /// concepts to SCADS first (Example A.1).
  nn::Linear predict_head(const scads::Scads& scads,
                          const std::vector<std::string>& class_names) const;

  /// The frozen encoder the predicted heads pair with (RN50-S — the
  /// module is backbone-invariant, as Figure 4's caption notes).
  const nn::Sequential& encoder() const { return encoder_; }
  std::size_t feature_dim() const { return feature_dim_; }
  double best_validation_loss() const { return best_val_loss_; }

 private:
  void pretrain(backbone::Zoo& zoo, const Config& config);
  /// Cache payload: the GNN's parameters, then best_val_loss_. load_state
  /// changes nothing unless the whole payload reads back.
  void save_state(std::ostream& out) const;
  void load_state(std::istream& in);

  TrGcn gnn_;
  nn::Sequential encoder_;
  std::size_t feature_dim_;
  double best_val_loss_ = 0.0;
};

class ZslKgModule : public Module {
 public:
  std::string name() const override { return "zsl-kg"; }
  /// Requires context.zsl_engine and context.scads; X and U are unused —
  /// this module is what makes 1-shot ensembles robust.
  Taglet train(const ModuleContext& context) const override;
};

}  // namespace taglets::modules
