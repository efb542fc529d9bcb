#include "nn/trainer.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace taglets::nn {

using tensor::Tensor;

std::vector<std::vector<std::size_t>> make_batches(std::size_t n,
                                                   std::size_t batch_size,
                                                   util::Rng& rng) {
  TAGLETS_CHECK_NE(batch_size, 0, "make_batches: batch 0");
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(n, start + batch_size);
    batches.emplace_back(order.begin() + static_cast<long>(start),
                         order.begin() + static_cast<long>(end));
  }
  return batches;
}

std::unique_ptr<Optimizer> make_optimizer(const FitConfig& config,
                                          std::vector<Parameter*> params) {
  if (config.optimizer == FitConfig::Opt::kSgd) {
    return std::make_unique<Sgd>(std::move(params), config.sgd);
  }
  return std::make_unique<Adam>(std::move(params), config.adam);
}

bool clip_grad_norm(std::span<Parameter* const> params, double max_norm) {
  if (max_norm <= 0.0) return true;
  double total = 0.0;
  for (Parameter* p : params) total += p->grad.squared_norm();
  total = std::sqrt(total);
  if (!std::isfinite(total)) return false;
  if (total <= max_norm) return true;
  const float scale = static_cast<float>(max_norm / (total + 1e-12));
  for (Parameter* p : params) {
    for (float& g : p->grad.data()) g *= scale;
  }
  return true;
}

namespace {

/// Throws unless every layer of `encoder` gives the same output in
/// training mode on every call; only such an encoder, when frozen, can
/// have its features computed once per fit. `path` prefixes nested
/// layer indices.
void require_deterministic_encoder(const Sequential& encoder,
                                   const std::string& path = "") {
  for (std::size_t i = 0; i < encoder.layer_count(); ++i) {
    const Layer& layer = encoder.layer(i);
    const std::string where = path + std::to_string(i);
    if (const auto* inner = dynamic_cast<const Sequential*>(&layer)) {
      require_deterministic_encoder(*inner, where + ".");
    } else if (dynamic_cast<const Dropout*>(&layer) != nullptr) {
      throw std::invalid_argument(
          "fit: frozen encoder layer " + where + " (" + layer.name() +
          ") is random in training mode; a frozen encoder must be "
          "deterministic so its features can be computed once");
    }
  }
}

/// Shared epoch loop; `loss_fn` maps (logits, batch indices) to a
/// LossResult whose grad is backpropagated.
FitReport run_fit(
    Classifier& model, const Tensor& inputs, std::size_t n,
    const FitConfig& config, util::Rng& rng,
    const std::function<LossResult(const Tensor&,
                                   const std::vector<std::size_t>&)>& loss_fn) {
  if (config.freeze_encoder) require_deterministic_encoder(model.encoder());
  if (n == 0) return FitReport{};
  model.set_encoder_frozen(config.freeze_encoder);
  auto params = model.parameters();
  auto optimizer = make_optimizer(config, params);
  const double base_lr = optimizer->learning_rate();

  // Total planned updates, for schedules defined over global steps.
  const std::size_t steps_per_epoch = (n + config.batch_size - 1) / config.batch_size;
  std::size_t epochs = config.epochs;
  if (config.min_steps > 0 && steps_per_epoch * epochs < config.min_steps) {
    epochs = (config.min_steps + steps_per_epoch - 1) / steps_per_epoch;
  }
  const std::size_t total_steps = steps_per_epoch * epochs;

  TAGLETS_TRACE_SCOPE("nn.fit", {{"epochs", std::to_string(epochs)},
                                 {"n", std::to_string(n)},
                                 {"steps", std::to_string(total_steps)}});
  // A frozen encoder's output cannot change during the fit: compute it
  // once, and each step runs the head alone. Every output row of a
  // kernel is computed the same way whatever the batch, so this is
  // bitwise equal to running the encoder per batch (docs/PERFORMANCE.md).
  Tensor features;
  if (config.freeze_encoder) {
    features = model.features(inputs, /*training=*/false);
  }
  auto& registry = obs::MetricsRegistry::global();
  obs::Gauge& loss_gauge = registry.gauge("nn.last_epoch_loss");

  FitReport report;
  std::size_t step = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    TAGLETS_TRACE_SCOPE("nn.epoch", {{"epoch", std::to_string(epoch)}});
    double epoch_loss = 0.0;
    std::size_t batches_seen = 0;
    for (const auto& batch : make_batches(n, config.batch_size, rng)) {
      Tensor logits =
          config.freeze_encoder
              ? model.head().forward(features.gather_rows(batch), true)
              : model.logits(inputs.gather_rows(batch), /*training=*/true);
      LossResult loss = loss_fn(logits, batch);
      model.zero_grad();
      model.backward(loss.grad_logits);
      const double lr = config.schedule
                            ? config.schedule->rate(step, total_steps)
                            : base_lr;
      optimizer->set_learning_rate(lr);
      if (clip_grad_norm(params, config.max_grad_norm)) {
        optimizer->step();
      } else {
        // A non-finite gradient norm means this batch's update would
        // poison the parameters; drop it (the step/schedule still
        // advance so the remaining updates match the planned run).
        registry.counter("nn.skipped_nonfinite_steps").add();
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
          TAGLETS_LOG(kWarn)
              << "non-finite gradient norm; skipping optimizer step "
              << "(counted in nn.skipped_nonfinite_steps)";
        }
      }
      epoch_loss += loss.loss;
      ++batches_seen;
      ++step;
    }
    report.epoch_loss.push_back(epoch_loss / static_cast<double>(batches_seen));
    loss_gauge.set(report.epoch_loss.back());
  }
  report.steps = step;
  registry.counter("nn.epochs_total").add(epochs);
  registry.counter("nn.steps_total").add(step);
  model.set_encoder_frozen(false);
  return report;
}

}  // namespace

FitReport fit_hard(Classifier& model, const Tensor& inputs,
                   std::span<const std::size_t> labels, const FitConfig& config,
                   util::Rng& rng) {
  TAGLETS_CHECK(!(!inputs.is_matrix() || inputs.rows() != labels.size()),
                "fit_hard: inputs/labels mismatch");
  return run_fit(model, inputs, labels.size(), config, rng,
                 [&](const Tensor& logits, const std::vector<std::size_t>& batch) {
                   std::vector<std::size_t> y(batch.size());
                   for (std::size_t i = 0; i < batch.size(); ++i) {
                     y[i] = labels[batch[i]];
                   }
                   return cross_entropy(logits, y);
                 });
}

FitReport fit_soft(Classifier& model, const Tensor& inputs,
                   const Tensor& targets, const FitConfig& config,
                   util::Rng& rng) {
  TAGLETS_CHECK(!(!inputs.is_matrix() ||
                !targets.is_matrix() ||
                inputs.rows() != targets.rows()),
                "fit_soft: inputs/targets mismatch");
  return run_fit(model, inputs, inputs.rows(), config, rng,
                 [&](const Tensor& logits, const std::vector<std::size_t>& batch) {
                   Tensor t = targets.gather_rows(batch);
                   return soft_cross_entropy(logits, t);
                 });
}

double evaluate_accuracy(Classifier& model, const Tensor& inputs,
                         std::span<const std::size_t> labels) {
  Tensor logits = model.logits(inputs, /*training=*/false);
  const double acc = accuracy(logits, labels);
  obs::MetricsRegistry::global().gauge("nn.last_eval_accuracy").set(acc);
  return acc;
}

}  // namespace taglets::nn
