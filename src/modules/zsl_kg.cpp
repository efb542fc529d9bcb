#include "modules/zsl_kg.hpp"

#include <limits>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"
#include "tensor/serialize.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace taglets::modules {

using tensor::Tensor;

namespace {

/// Cache key of the engine: the RN50-S backbone it trains against (every
/// world and pretraining field) extended with every engine config field.
std::uint64_t engine_key(const backbone::Zoo& zoo,
                         const ZslKgEngine::Config& config) {
  return util::combine_seeds({
      zoo.backbone_key(backbone::Kind::kRn50S), config.hidden_dim,
      config.epochs, config.batch_size,
      backbone::quantize_knob(config.lr, 1e9),
      backbone::quantize_knob(config.weight_decay, 1e9), config.val_classes,
  });
}

}  // namespace

ZslKgEngine::ZslKgEngine(backbone::Zoo& zoo, Config config)
    : gnn_([&] {
        TrGcn::Config gc;
        gc.input_dim = zoo.world().config().word_dim;
        gc.hidden_dim = config.hidden_dim;
        gc.output_dim = zoo.config().feature_dim + 1;  // weights + bias
        util::Rng rng(util::combine_seeds({zoo.world().config().seed, 0x25E1ULL}));
        return TrGcn(gc, rng);
      }()),
      feature_dim_(zoo.config().feature_dim) {
  obs::TraceSpan span;
  if (obs::trace_enabled()) span.begin("zsl.engine");
  encoder_ = zoo.get(backbone::Kind::kRn50S).encoder;
  const bool hit = zoo.load_or_build(
      "zsl_kg", engine_key(zoo, config),
      [&](std::istream& in) { load_state(in); },
      [&] { pretrain(zoo, config); },
      [&](std::ostream& out) { save_state(out); });
  span.add_attr("cache", hit ? "hit" : "miss");
}

void ZslKgEngine::save_state(std::ostream& out) const {
  for (const Tensor& p : gnn_.snapshot()) tensor::write_tensor(out, p);
  out.write(reinterpret_cast<const char*>(&best_val_loss_),
            sizeof(best_val_loss_));
}

void ZslKgEngine::load_state(std::istream& in) {
  std::vector<Tensor> params = gnn_.snapshot();
  for (Tensor& p : params) {
    Tensor cached = tensor::read_tensor(in);
    if (!tensor::same_shape(cached, p)) {
      throw std::runtime_error("ZSL-KG cache: parameter of shape " +
                               cached.shape_string() + ", expected " +
                               p.shape_string());
    }
    p = std::move(cached);
  }
  double best_val_loss = 0.0;
  in.read(reinterpret_cast<char*>(&best_val_loss), sizeof(best_val_loss));
  if (!in) throw std::runtime_error("ZSL-KG cache: truncated");
  gnn_.restore(params);
  best_val_loss_ = best_val_loss;
}

void ZslKgEngine::pretrain(backbone::Zoo& zoo, const Config& config) {
  const auto& reference = zoo.zsl_reference();
  const auto& world = zoo.world();
  const Tensor& features = world.scads_embeddings();
  const graph::KnowledgeGraph& graph = world.graph();

  // Targets: concatenated [head weight row ; bias] per reference concept,
  // and the GNN's graph inputs per concept, which no epoch changes.
  const std::size_t n = reference.concepts.size();
  const std::size_t out_dim = feature_dim_ + 1;
  std::vector<Tensor> targets;
  std::vector<TrGcn::Inputs> inputs;
  targets.reserve(n);
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor t = Tensor::zeros(out_dim);
    auto wrow = reference.weights.row(i);
    for (std::size_t d = 0; d < feature_dim_; ++d) t[d] = wrow[d];
    t[feature_dim_] = reference.biases[i];
    targets.push_back(std::move(t));
    inputs.push_back(gnn_.inputs(graph, features, reference.concepts[i]));
  }

  // Train / validation class split (paper: 950/50).
  util::Rng rng(util::combine_seeds({world.config().seed, 0x25E2ULL}));
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t n_val = std::min(config.val_classes, n / 5);
  std::vector<std::size_t> val(order.begin(),
                               order.begin() + static_cast<long>(n_val));
  std::vector<std::size_t> train(order.begin() + static_cast<long>(n_val),
                                 order.end());

  nn::Adam::Config adam;
  adam.lr = config.lr;
  adam.weight_decay = config.weight_decay;
  nn::Adam optimizer(gnn_.parameters(), adam);

  auto evaluate = [&](const std::vector<std::size_t>& subset) {
    double total = 0.0;
    for (std::size_t i : subset) {
      auto loss = nn::mse(gnn_.forward(inputs[i]).output, targets[i]);
      total += loss.loss;
    }
    return subset.empty() ? 0.0 : total / static_cast<double>(subset.size());
  };

  best_val_loss_ = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best = gnn_.snapshot();
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(train);
    for (std::size_t start = 0; start < train.size();
         start += config.batch_size) {
      const std::size_t end = std::min(train.size(), start + config.batch_size);
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t i = train[k];
        auto cache = gnn_.forward(inputs[i]);
        auto loss = nn::mse(cache.output, targets[i]);
        // Average over the batch.
        Tensor grad = loss.grad_logits;
        const float inv = 1.0f / static_cast<float>(end - start);
        for (float& g : grad.data()) g *= inv;
        gnn_.backward(cache, grad);
      }
      optimizer.step();
    }
    const double val_loss = evaluate(val);
    if (val_loss < best_val_loss_) {
      best_val_loss_ = val_loss;
      best = gnn_.snapshot();
    }
  }
  gnn_.restore(best);
  TAGLETS_LOG(kInfo) << "ZSL-KG engine pretrained; best val MSE "
                     << best_val_loss_;
}

nn::Linear ZslKgEngine::predict_head(
    const scads::Scads& scads,
    const std::vector<std::string>& class_names) const {
  const std::size_t c_count = class_names.size();
  Tensor weight = Tensor::zeros(feature_dim_, c_count);
  Tensor bias = Tensor::zeros(c_count);
  const Tensor& features = scads.embeddings().embeddings();
  for (std::size_t c = 0; c < c_count; ++c) {
    const auto id = scads.find_concept(class_names[c]);
    if (!id) {
      TAGLETS_LOG(kWarn) << "ZSL-KG: class '" << class_names[c]
                         << "' not in SCADS graph; predicting zeros";
      continue;
    }
    Tensor z = gnn_.predict(scads.graph(), features, *id);
    for (std::size_t d = 0; d < feature_dim_; ++d) weight.at(d, c) = z[d];
    bias[c] = z[feature_dim_];
  }
  return nn::Linear(std::move(weight), std::move(bias));
}

Taglet ZslKgModule::train(const ModuleContext& context) const {
  TAGLETS_CHECK(!(context.zsl_engine == nullptr ||
                context.scads == nullptr ||
                context.task == nullptr),
                "ZslKgModule: incomplete context");
  nn::Linear head = context.zsl_engine->predict_head(
      *context.scads, context.task->class_names);
  nn::Classifier model(context.zsl_engine->encoder(), std::move(head));
  return Taglet(name(), std::move(model));
}

}  // namespace taglets::modules
