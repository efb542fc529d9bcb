#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "nn/classifier.hpp"
#include "nn/grad_check.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/scheduler.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::nn {
namespace {

using tensor::Tensor;

Tensor random_batch(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

// ----------------------------------------------------------------- init

TEST(Init, KaimingVarianceRoughlyCorrect) {
  util::Rng rng(3);
  Tensor w = kaiming_normal(200, 100, rng);
  double sq = 0.0;
  for (float x : w.data()) sq += static_cast<double>(x) * x;
  const double var = sq / static_cast<double>(w.size());
  EXPECT_NEAR(var, 2.0 / 200.0, 2e-3);
}

TEST(Init, XavierWithinBounds) {
  util::Rng rng(3);
  Tensor w = xavier_uniform(50, 30, rng);
  const double bound = std::sqrt(6.0 / 80.0);
  for (float x : w.data()) {
    EXPECT_LE(std::abs(x), bound + 1e-6);
  }
}

// --------------------------------------------------------------- layers

TEST(Linear, ForwardMatchesManualComputation) {
  Tensor w = Tensor::from_matrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_vector({0.5f, -0.5f, 0.0f});
  Linear layer(w, b);
  Tensor x = Tensor::from_matrix(1, 2, {1.0f, 2.0f});
  Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 1 + 2 * 4 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 1 * 2 + 2 * 5 - 0.5f);
}

TEST(Linear, RejectsMismatchedBias) {
  EXPECT_THROW(Linear(Tensor::zeros(2, 3), Tensor::zeros(2)),
               std::invalid_argument);
}

TEST(Linear, GradCheck) {
  util::Rng rng(7);
  Linear layer(4, 3, rng);
  Tensor x = random_batch(5, 4, rng);
  std::vector<std::size_t> labels{0, 1, 2, 0, 1};

  auto loss_fn = [&] {
    Tensor logits = layer.forward(x, true);
    return cross_entropy(logits, labels).loss;
  };
  // Populate analytic grads.
  for (Parameter* p : layer.parameters()) p->zero_grad();
  Tensor logits = layer.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  layer.backward(loss.grad_logits);
  EXPECT_LT(max_param_grad_error(layer.parameters(), loss_fn), 2e-2);
}

TEST(ReLU, ForwardAndBackwardMask) {
  ReLU relu;
  Tensor x = Tensor::from_matrix(1, 4, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.0f);
  Tensor g = Tensor::full(1, 4, 1.0f);
  Tensor dx = relu.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 1.0f);
}

TEST(Tanh, GradMatchesDerivative) {
  Tanh tanh_layer;
  Tensor x = Tensor::from_matrix(1, 2, {0.5f, -1.0f});
  Tensor y = tanh_layer.forward(x, true);
  Tensor g = Tensor::full(1, 2, 1.0f);
  Tensor dx = tanh_layer.backward(g);
  EXPECT_NEAR(dx.at(0, 0), 1.0f - y.at(0, 0) * y.at(0, 0), 1e-6);
}

TEST(Dropout, IdentityAtEval) {
  util::Rng rng(5);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::full(4, 4, 1.0f);
  Tensor eval = dropout.forward(x, false);
  for (float v : eval.data()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Dropout, TrainingMasksAndRescales) {
  util::Rng rng(5);
  Dropout dropout(0.5f, rng);
  Tensor x = Tensor::full(20, 20, 1.0f);
  Tensor out = dropout.forward(x, true);
  std::size_t zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scaling
  }
  EXPECT_GT(zeros, 100u);
  EXPECT_LT(zeros, 300u);
}

TEST(Dropout, RejectsInvalidRate) {
  util::Rng rng(5);
  EXPECT_THROW(Dropout(1.0f, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f, rng), std::invalid_argument);
}

// ------------------------------------------------------------ sequential

TEST(Sequential, MlpGradCheck) {
  util::Rng rng(11);
  Sequential mlp = make_mlp({3, 6, 4}, rng);
  Tensor x = random_batch(4, 3, rng);
  std::vector<std::size_t> labels{0, 1, 2, 3};

  auto loss_fn = [&] {
    Tensor logits = mlp.forward(x, true);
    return cross_entropy(logits, labels).loss;
  };
  mlp.zero_grad();
  Tensor logits = mlp.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  mlp.backward(loss.grad_logits);
  EXPECT_LT(max_param_grad_error(mlp.parameters(), loss_fn), 5e-2);
}

TEST(Sequential, InputGradCheck) {
  util::Rng rng(13);
  Sequential mlp = make_mlp({3, 5, 2}, rng);
  Tensor x = random_batch(3, 3, rng);
  std::vector<std::size_t> labels{0, 1, 0};

  mlp.zero_grad();
  Tensor logits = mlp.forward(x, true);
  auto loss = cross_entropy(logits, labels);
  Tensor dx = mlp.backward(loss.grad_logits);

  auto loss_fn = [&] {
    Tensor l = mlp.forward(x, true);
    return cross_entropy(l, labels).loss;
  };
  EXPECT_LT(max_input_grad_error(x, dx, loss_fn), 5e-2);
}

/// True when every parameter of `a` has a bitwise-equal gradient (or,
/// with `values`, value) in `b`.
bool params_bitwise_equal(std::vector<Parameter*> a, std::vector<Parameter*> b,
                          bool values = false) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Tensor& ta = values ? a[i]->value : a[i]->grad;
    const Tensor& tb = values ? b[i]->value : b[i]->grad;
    if (!tensor::same_shape(ta, tb) ||
        std::memcmp(ta.data().data(), tb.data().data(),
                    ta.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(Sequential, AccumulateGradsLeavesSameParameterGradsAsBackward) {
  // Dropout below the first Linear (never backpropagated by
  // accumulate_grads), Dropout between Linears and a Tanh output. The
  // copy clones each Dropout's RNG, so both forwards draw the same masks.
  util::Rng rng(23);
  Sequential a;
  a.add(std::make_unique<Dropout>(0.25f, rng.fork()));
  a.add(std::make_unique<Linear>(6, 9, rng));
  a.add(std::make_unique<ReLU>());
  a.add(std::make_unique<Dropout>(0.3f, rng.fork()));
  a.add(std::make_unique<Linear>(9, 4, rng));
  a.add(std::make_unique<Tanh>());
  Sequential b = a;
  Tensor x = random_batch(7, 6, rng);
  Tensor g = random_batch(7, 4, rng);
  a.zero_grad();
  b.zero_grad();
  a.forward(x, /*training=*/true);
  b.forward(x, /*training=*/true);
  a.backward(g);
  b.accumulate_grads(g);
  EXPECT_TRUE(params_bitwise_equal(a.parameters(), b.parameters()));
  EXPECT_GT(b.parameters()[0]->grad.squared_norm(), 0.0f);
}

TEST(Classifier, BackwardAccumulatesSameGradsAsFullBackward) {
  // Classifier::backward skips every input gradient; the parameter
  // gradients must be those of a head-then-encoder full backward.
  util::Rng rng(29);
  Classifier a(make_mlp({5, 8, 6}, rng), 6, 3, rng);
  Classifier b = a;
  Tensor x = random_batch(4, 5, rng);
  Tensor g = random_batch(4, 3, rng);
  a.zero_grad();
  b.zero_grad();
  a.logits(x, true);
  b.logits(x, true);
  a.encoder().backward(a.head().backward(g));
  b.backward(g);
  EXPECT_TRUE(params_bitwise_equal(a.parameters(), b.parameters()));
}

TEST(Sequential, CopyIsDeep) {
  util::Rng rng(17);
  Sequential a = make_mlp({2, 3, 2}, rng);
  Sequential b = a;  // copy
  // Mutate a's first parameter; b must be unaffected.
  a.parameters()[0]->value.fill(0.0f);
  bool b_nonzero = false;
  for (float v : b.parameters()[0]->value.data()) {
    if (v != 0.0f) b_nonzero = true;
  }
  EXPECT_TRUE(b_nonzero);
}

TEST(Sequential, SaveLoadRoundTrip) {
  util::Rng rng(19);
  Sequential mlp = make_mlp({4, 8, 3}, rng, /*dropout=*/0.2f);
  std::stringstream buffer;
  mlp.save(buffer);
  util::Rng load_rng(0);
  Sequential loaded = Sequential::load(buffer, load_rng);
  ASSERT_EQ(loaded.layer_count(), mlp.layer_count());
  Tensor x = random_batch(2, 4, rng);
  Tensor ya = mlp.forward(x, false);
  Tensor yb = loaded.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Sequential, MakeMlpValidatesDims) {
  util::Rng rng(2);
  EXPECT_THROW(make_mlp({4}, rng), std::invalid_argument);
}

// ----------------------------------------------------------------- loss

TEST(Loss, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::zeros(2, 4);
  std::vector<std::size_t> labels{0, 3};
  auto result = cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyGradCheck) {
  util::Rng rng(23);
  Tensor logits = random_batch(3, 5, rng);
  std::vector<std::size_t> labels{4, 2, 0};
  auto result = cross_entropy(logits, labels);
  auto loss_fn = [&] { return cross_entropy(logits, labels).loss; };
  EXPECT_LT(max_input_grad_error(logits, result.grad_logits, loss_fn), 1e-2);
}

TEST(Loss, SoftCrossEntropyMatchesHardOnOneHot) {
  util::Rng rng(29);
  Tensor logits = random_batch(4, 3, rng);
  std::vector<std::size_t> labels{0, 1, 2, 1};
  Tensor targets = Tensor::zeros(4, 3);
  for (std::size_t i = 0; i < 4; ++i) targets.at(i, labels[i]) = 1.0f;
  auto hard = cross_entropy(logits, labels);
  auto soft = soft_cross_entropy(logits, targets);
  EXPECT_NEAR(hard.loss, soft.loss, 1e-6);
  for (std::size_t i = 0; i < hard.grad_logits.size(); ++i) {
    EXPECT_NEAR(hard.grad_logits.data()[i], soft.grad_logits.data()[i], 1e-6);
  }
}

TEST(Loss, SoftCrossEntropyGradCheck) {
  util::Rng rng(31);
  Tensor logits = random_batch(3, 4, rng);
  Tensor targets = tensor::softmax(random_batch(3, 4, rng));
  auto result = soft_cross_entropy(logits, targets);
  auto loss_fn = [&] { return soft_cross_entropy(logits, targets).loss; };
  EXPECT_LT(max_input_grad_error(logits, result.grad_logits, loss_fn), 1e-2);
}

// cross_entropy and soft_cross_entropy as they were computed before
// they took the log-sum-exp from their one softmax pass: log_softmax for
// the loss, softmax for the gradient.
LossResult reference_cross_entropy(const Tensor& logits,
                                   const std::vector<std::size_t>& labels) {
  const Tensor log_probs = tensor::log_softmax(logits);
  Tensor grad = tensor::softmax(logits);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    loss -= log_probs.at(i, labels[i]);
    auto g = grad.row(i);
    g[labels[i]] -= 1.0f;
    for (float& x : g) x *= inv_n;
  }
  return LossResult{loss / static_cast<double>(logits.rows()),
                    std::move(grad)};
}

LossResult reference_soft_cross_entropy(const Tensor& logits,
                                        const Tensor& targets) {
  const Tensor log_probs = tensor::log_softmax(logits);
  Tensor grad = tensor::softmax(logits);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    auto lp = log_probs.row(i);
    auto t = targets.row(i);
    auto g = grad.row(i);
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      loss -= static_cast<double>(t[j]) * lp[j];
      g[j] = (g[j] - t[j]) * inv_n;
    }
  }
  return LossResult{loss / static_cast<double>(logits.rows()),
                    std::move(grad)};
}

void expect_same_loss_bits(const LossResult& got, const LossResult& want,
                           const std::string& what) {
  std::uint64_t lg = 0, lw = 0;
  std::memcpy(&lg, &got.loss, sizeof(lg));
  std::memcpy(&lw, &want.loss, sizeof(lw));
  EXPECT_EQ(lg, lw) << what << ": loss " << got.loss << " vs " << want.loss;
  ASSERT_TRUE(tensor::same_shape(got.grad_logits, want.grad_logits)) << what;
  for (std::size_t i = 0; i < got.grad_logits.size(); ++i) {
    std::uint32_t g = 0, w = 0;
    std::memcpy(&g, &got.grad_logits.data()[i], sizeof(g));
    std::memcpy(&w, &want.grad_logits.data()[i], sizeof(w));
    ASSERT_EQ(g, w) << what << ": gradient bit mismatch at index " << i;
  }
}

// Logit matrices the one-pass loss must agree on: random rows of several
// widths (the SIMD max reduction starts at 8 columns), tied maxima, rows
// whose max is +0 or -0 in either order, and large magnitudes.
std::vector<Tensor> loss_cases() {
  util::Rng rng(41);
  std::vector<Tensor> cases{random_batch(64, 10, rng), random_batch(7, 33, rng),
                            random_batch(5, 1, rng)};
  Tensor special = Tensor::zeros(8, 12);
  for (std::size_t j = 0; j < special.cols(); ++j) {
    special.at(0, j) = 2.5f;                                  // all tied
    special.at(1, j) = (j % 3 == 0) ? 4.0f : -1.0f;           // tied maxima
    special.at(2, j) = (j == 5) ? -0.0f : -3.0f - j;          // max -0
    special.at(3, j) = (j % 2 == 0) ? -0.0f : 0.0f;           // -0 then +0
    special.at(4, j) = (j % 2 == 0) ? 0.0f : -0.0f;           // +0 then -0
    special.at(5, j) = (j % 2 != 0) ? 80.0f : -80.0f;         // wide spread
    special.at(6, j) = 1e4f + static_cast<float>(j) * 0.5f;   // large
    special.at(7, j) = -3e4f - static_cast<float>(j) * 7.0f;  // large < 0
  }
  cases.push_back(special);
  Tensor big = random_batch(16, 9, rng);
  for (float& x : big.data()) x *= 1e3f;
  cases.push_back(big);
  return cases;
}

TEST(Loss, OnePassCrossEntropyBitwiseEqualsLogSoftmaxReference) {
  const tensor::backend::Kernels* prev =
      tensor::backend::exchange_active(nullptr);
  for (const std::string& name : tensor::backend::available()) {
    tensor::backend::exchange_active(tensor::backend::lookup(name));
    std::size_t case_index = 0;
    for (const Tensor& logits : loss_cases()) {
      util::Rng rng(43 + case_index);
      std::vector<std::size_t> labels(logits.rows());
      for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<std::size_t>(rng.uniform() * logits.cols()) %
                    logits.cols();
      }
      const Tensor targets = tensor::softmax(random_batch(
          logits.rows(), logits.cols(), rng));
      const std::string what = name + " case " + std::to_string(case_index++);
      expect_same_loss_bits(cross_entropy(logits, labels),
                            reference_cross_entropy(logits, labels), what);
      expect_same_loss_bits(soft_cross_entropy(logits, targets),
                            reference_soft_cross_entropy(logits, targets),
                            what + " (soft)");
    }
  }
  tensor::backend::exchange_active(prev);
}

TEST(Loss, MseGradCheck) {
  util::Rng rng(37);
  Tensor pred = random_batch(2, 3, rng);
  Tensor target = random_batch(2, 3, rng);
  auto result = mse(pred, target);
  auto loss_fn = [&] { return mse(pred, target).loss; };
  EXPECT_LT(max_input_grad_error(pred, result.grad_logits, loss_fn), 1e-2);
}

TEST(Loss, AccuracyCountsArgmaxMatches) {
  Tensor logits = Tensor::from_matrix(3, 2, {1, 0, 0, 1, 1, 0});
  std::vector<std::size_t> labels{0, 1, 1};
  EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-9);
}

TEST(Loss, LabelOutOfRangeThrows) {
  Tensor logits = Tensor::zeros(1, 2);
  std::vector<std::size_t> labels{5};
  EXPECT_THROW(cross_entropy(logits, labels), taglets::util::ContractViolation);
}

// ------------------------------------------------------------ optimizer

TEST(Sgd, PlainStepMatchesClosedForm) {
  Parameter p(Tensor::from_vector({1.0f}));
  Sgd::Config config;
  config.lr = 0.1;
  config.momentum = 0.0;
  Sgd opt({&p}, config);
  p.grad[0] = 2.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 2.0f, 1e-6);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);  // cleared
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p(Tensor::from_vector({0.0f}));
  Sgd::Config config;
  config.lr = 1.0;
  config.momentum = 0.5;
  Sgd opt({&p}, config);
  p.grad[0] = 1.0f;
  opt.step();  // v=1, x=-1
  p.grad[0] = 1.0f;
  opt.step();  // v=1.5, x=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  Parameter p(Tensor::from_vector({10.0f}));
  Sgd::Config config;
  config.lr = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 0.5;
  Sgd opt({&p}, config);
  p.grad[0] = 0.0f;
  opt.step();
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter p(Tensor::from_vector({5.0f}));
  Adam::Config config;
  config.lr = 0.3;
  Adam opt({&p}, config);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * p.value[0];  // d/dx x^2
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 0.0f, 1e-2);
}

// ------------------------------------------------------------ scheduler

TEST(Scheduler, StepDecayMilestones) {
  StepDecayLr schedule(1.0, {0.5, 0.75}, 0.1);
  EXPECT_DOUBLE_EQ(schedule.rate(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(schedule.rate(49, 100), 1.0);
  EXPECT_DOUBLE_EQ(schedule.rate(50, 100), 0.1);
  EXPECT_NEAR(schedule.rate(75, 100), 0.01, 1e-12);
  EXPECT_THROW(StepDecayLr(1.0, {0.8, 0.5}), std::invalid_argument);
}

TEST(Scheduler, FixMatchCosineMatchesFormula) {
  FixMatchCosineLr schedule(2.0);
  EXPECT_NEAR(schedule.rate(0, 100), 2.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 100), 2.0 * std::cos(7.0 * M_PI / 32.0), 1e-9);
  // At k = K the rate is still positive (7/16 < 1/2).
  EXPECT_GT(schedule.rate(100, 100), 0.0);
}

TEST(Scheduler, HalfCosineMatchesFormula) {
  HalfCosineLr schedule(2.0);
  EXPECT_NEAR(schedule.rate(0, 100), 2.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 100), 1.0, 1e-9);
  EXPECT_NEAR(schedule.rate(100, 100), 0.0, 1e-9);
}

TEST(Scheduler, WarmupRampsLinearlyThenDelegates) {
  auto after = std::make_unique<ConstantLr>(1.0);
  WarmupLr schedule(10, std::move(after));
  EXPECT_NEAR(schedule.rate(0, 110), 0.1, 1e-12);
  EXPECT_NEAR(schedule.rate(4, 110), 0.5, 1e-12);
  EXPECT_NEAR(schedule.rate(9, 110), 1.0, 1e-12);
  EXPECT_NEAR(schedule.rate(50, 110), 1.0, 1e-12);
  EXPECT_THROW(WarmupLr(5, nullptr), std::invalid_argument);
}

// ------------------------------------------------------------ classifier

TEST(Classifier, PredictProbaRowsSumToOne) {
  util::Rng rng(41);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  Tensor x = random_batch(4, 4, rng);
  Tensor p = model.predict_proba(x);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (float v : p.row(i)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Classifier, FrozenEncoderExcludesEncoderParams) {
  util::Rng rng(43);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  const std::size_t all = model.parameters().size();
  model.set_encoder_frozen(true);
  EXPECT_LT(model.parameters().size(), all);
  EXPECT_EQ(model.parameters().size(), 2u);  // head weight + bias
}

TEST(Classifier, ReplaceHeadValidatesWidth) {
  util::Rng rng(47);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  EXPECT_THROW(model.replace_head(Linear(Tensor::zeros(7, 3), Tensor::zeros(3))),
               std::invalid_argument);
  model.replace_head(Linear(Tensor::zeros(5, 8), Tensor::zeros(8)));
  EXPECT_EQ(model.num_classes(), 8u);
}

TEST(Classifier, SaveLoadPreservesPredictions) {
  util::Rng rng(53);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  std::stringstream buffer;
  model.save(buffer);
  util::Rng load_rng(0);
  Classifier loaded = Classifier::load(buffer, load_rng);
  Tensor x = random_batch(3, 4, rng);
  auto a = model.predict(x);
  auto b = loaded.predict(x);
  EXPECT_EQ(a, b);
}

TEST(Classifier, ParameterCountMatchesArchitecture) {
  util::Rng rng(59);
  Sequential encoder = make_mlp({4, 6, 5}, rng);
  Classifier model(encoder, 5, 3, rng);
  // (4*6 + 6) + (6*5 + 5) + (5*3 + 3)
  EXPECT_EQ(model.parameter_count(), 24u + 6u + 30u + 5u + 15u + 3u);
}

// -------------------------------------------------------------- trainer

TEST(Trainer, MakeBatchesCoversAllIndicesOnce) {
  util::Rng rng(61);
  auto batches = make_batches(10, 3, rng);
  ASSERT_EQ(batches.size(), 4u);  // 3+3+3+1
  std::set<std::size_t> seen;
  for (const auto& b : batches) {
    for (std::size_t i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_THROW(make_batches(5, 0, rng), std::invalid_argument);
}

TEST(Trainer, MinStepsRaisesEpochs) {
  util::Rng rng(67);
  Sequential encoder = make_mlp({2, 4, 3}, rng);
  Classifier model(encoder, 3, 2, rng);
  Tensor x = random_batch(4, 2, rng);
  std::vector<std::size_t> y{0, 1, 0, 1};
  FitConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  config.min_steps = 25;
  auto report = fit_hard(model, x, y, config, rng);
  EXPECT_GE(report.steps, 25u);
}

TEST(Trainer, FitHardLearnsSeparableData) {
  util::Rng rng(71);
  // Two well-separated Gaussian blobs.
  Tensor x = Tensor::zeros(60, 2);
  std::vector<std::size_t> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    const bool positive = i % 2 == 0;
    y[i] = positive ? 1 : 0;
    x.at(i, 0) = static_cast<float>(rng.normal(positive ? 2.0 : -2.0, 0.3));
    x.at(i, 1) = static_cast<float>(rng.normal(positive ? -1.0 : 1.0, 0.3));
  }
  Sequential encoder = make_mlp({2, 8, 4}, rng);
  Classifier model(encoder, 4, 2, rng);
  FitConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  config.sgd.lr = 0.05;
  auto report = fit_hard(model, x, y, config, rng);
  EXPECT_GT(evaluate_accuracy(model, x, y), 0.95);
  EXPECT_LT(report.final_loss(), report.epoch_loss.front());
}

TEST(Trainer, FitSoftLearnsOneHotTargets) {
  util::Rng rng(73);
  Tensor x = Tensor::zeros(40, 2);
  Tensor targets = Tensor::zeros(40, 2);
  std::vector<std::size_t> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    y[i] = positive ? 1 : 0;
    targets.at(i, y[i]) = 1.0f;
    x.at(i, 0) = static_cast<float>(rng.normal(positive ? 2.0 : -2.0, 0.3));
    x.at(i, 1) = static_cast<float>(rng.normal(0.0, 0.3));
  }
  Sequential encoder = make_mlp({2, 8, 4}, rng);
  Classifier model(encoder, 4, 2, rng);
  FitConfig config;
  config.epochs = 40;
  config.batch_size = 16;
  config.sgd.lr = 0.05;
  fit_soft(model, x, targets, config, rng);
  EXPECT_GT(evaluate_accuracy(model, x, y), 0.9);
}

TEST(Trainer, FrozenFitBitwiseEqualsPerStepEncoderLoop) {
  // A frozen fit computes the encoder's features once and runs only the
  // head per step. It must match, bit for bit, the loop that ran the
  // encoder on every batch and the head's full backward. 300 rows of
  // 64 -> 160 make the one-off feature GEMM fan out over the pool, while
  // each 16-row batch GEMM runs inline.
  util::Rng init(71);
  Sequential encoder = make_mlp({64, 160, 32}, init);
  encoder.add(std::make_unique<ReLU>());
  Classifier fast(encoder, 32, 5, init);
  Classifier slow = fast;
  util::Rng data_rng(72);
  const std::size_t n = 300;
  Tensor x = random_batch(n, 64, data_rng);
  std::vector<std::size_t> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = (i * 7) % 5;

  FitConfig config;
  config.epochs = 3;
  config.batch_size = 16;
  config.freeze_encoder = true;
  config.sgd.lr = 0.05;
  config.sgd.momentum = 0.9;
  config.schedule =
      std::make_shared<StepDecayLr>(0.05, std::vector<double>{0.5});
  util::Rng fast_rng(5);
  const FitReport report = fit_hard(fast, x, y, config, fast_rng);

  util::Rng slow_rng(5);
  slow.set_encoder_frozen(true);
  auto params = slow.parameters();
  auto optimizer = make_optimizer(config, params);
  const std::size_t total_steps = 3 * ((n + 15) / 16);
  std::size_t step = 0;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& batch : make_batches(n, config.batch_size, slow_rng)) {
      Tensor logits = slow.logits(x.gather_rows(batch), /*training=*/true);
      std::vector<std::size_t> yb(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) yb[i] = y[batch[i]];
      LossResult loss = cross_entropy(logits, yb);
      slow.zero_grad();
      slow.head().backward(loss.grad_logits);
      optimizer->set_learning_rate(config.schedule->rate(step, total_steps));
      optimizer->step();
      ++step;
    }
  }
  slow.set_encoder_frozen(false);

  EXPECT_EQ(report.steps, total_steps);
  EXPECT_TRUE(params_bitwise_equal(fast.parameters(), slow.parameters(),
                                   /*values=*/true));
  EXPECT_TRUE(params_bitwise_equal(fast.encoder().parameters(),
                                   encoder.parameters(), /*values=*/true))
      << "a frozen fit changed the encoder";
}

TEST(Trainer, FrozenEncoderWithDropoutThrowsNamingLayer) {
  // Dropout draws a new mask on every training forward, so its features
  // cannot be computed once; the fit refuses instead of changing them.
  util::Rng rng(73);
  Classifier model(make_mlp({4, 6, 5}, rng, /*dropout=*/0.2f), 5, 2, rng);
  Tensor x = random_batch(8, 4, rng);
  std::vector<std::size_t> y{0, 1, 0, 1, 0, 1, 0, 1};
  FitConfig config;
  config.epochs = 1;
  config.freeze_encoder = true;
  try {
    fit_hard(model, x, y, config, rng);
    FAIL() << "a frozen encoder with Dropout trained";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("layer 2 (Dropout)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(model.encoder_frozen());
  config.freeze_encoder = false;  // an unfrozen fit may use Dropout
  EXPECT_NO_THROW(fit_hard(model, x, y, config, rng));
}

TEST(Trainer, ClipGradNormBoundsGlobalNorm) {
  Parameter a(Tensor::from_vector({3.0f}));
  Parameter b(Tensor::from_vector({4.0f}));
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;  // global norm 5
  std::vector<Parameter*> params{&a, &b};
  clip_grad_norm(params, 1.0);
  const double norm = std::sqrt(a.grad[0] * a.grad[0] + b.grad[0] * b.grad[0]);
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(Trainer, ShapeValidation) {
  util::Rng rng(79);
  Sequential encoder = make_mlp({2, 3, 2}, rng);
  Classifier model(encoder, 2, 2, rng);
  Tensor x = random_batch(3, 2, rng);
  std::vector<std::size_t> y{0, 1};  // mismatched
  FitConfig config;
  EXPECT_THROW(fit_hard(model, x, y, config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace taglets::nn
