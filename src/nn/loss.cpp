#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::nn {

using tensor::Tensor;

LossResult cross_entropy(const Tensor& logits,
                         std::span<const std::size_t> labels) {
  TAGLETS_CHECK(!(!logits.is_matrix() || logits.rows() != labels.size()),
                "cross_entropy: shape mismatch");
  const std::size_t n = logits.rows(), c = logits.cols();
  // One exp pass: the softmax is the gradient, and its per-row
  // log-sum-exp gives log p = logit - lse, bit for bit log_softmax.
  std::vector<float> lse;
  Tensor grad = tensor::softmax(logits, lse);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    TAGLETS_CHECK_LT(labels[i], c, "cross_entropy: label");
    loss -= logits.at(i, labels[i]) - lse[i];
    auto g = grad.row(i);
    g[labels[i]] -= 1.0f;
    for (float& x : g) x *= inv_n;
  }
  return LossResult{loss / static_cast<double>(n), std::move(grad)};
}

LossResult soft_cross_entropy(const Tensor& logits, const Tensor& targets) {
  TAGLETS_CHECK(!(!tensor::same_shape(logits, targets) || !logits.is_matrix()),
                "soft_cross_entropy: shape mismatch");
  const std::size_t n = logits.rows(), c = logits.cols();
  std::vector<float> lse;  // one exp pass, as in cross_entropy
  Tensor grad = tensor::softmax(logits, lse);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = logits.row(i);
    auto t = targets.row(i);
    auto g = grad.row(i);
    for (std::size_t j = 0; j < c; ++j) {
      const float log_p = x[j] - lse[i];
      loss -= static_cast<double>(t[j]) * log_p;
      g[j] = (g[j] - t[j]) * inv_n;
    }
  }
  return LossResult{loss / static_cast<double>(n), std::move(grad)};
}

LossResult mse(const Tensor& prediction, const Tensor& target) {
  TAGLETS_CHECK(tensor::same_shape(prediction, target), "mse: shape mismatch");
  const std::size_t n = prediction.size();
  Tensor grad = tensor::sub(prediction, target);
  double loss = 0.0;
  for (float g : grad.data()) loss += static_cast<double>(g) * g;
  loss /= static_cast<double>(n);
  const float scale = 2.0f / static_cast<float>(n);
  for (float& g : grad.data()) g *= scale;
  return LossResult{loss, std::move(grad)};
}

double accuracy(const Tensor& logits, std::span<const std::size_t> labels) {
  TAGLETS_CHECK(!(!logits.is_matrix() || logits.rows() != labels.size()),
                "accuracy: shape mismatch");
  if (labels.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    if (tensor::argmax(logits.row(i)) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace taglets::nn
