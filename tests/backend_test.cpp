// Tests for the runtime-dispatched tensor backends (tensor/backend.hpp)
// and the int8 serving path (tensor/quant.hpp):
//  * registry / TAGLETS_TENSOR_BACKEND selection behaviour,
//  * the bitwise-determinism contract across backends, pinned over
//    adversarial shapes (k = 0, 1xN, odd tails, signed zeros,
//    denormals) and over the NaN zero-skip policy,
//  * property checks of every backend against a naive triple loop,
//  * quantization round-trip bounds, matmul_quant, the eval accuracy
//    gate, and TAGLETS_SERVE_INT8 at ServableModel::load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ensemble/servable.hpp"
#include "eval/harness.hpp"
#include "nn/sequential.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "test_support.hpp"

namespace taglets::tensor {
namespace {

// RAII override of the active backend (mirrors the pattern the benches
// use for the thread pool).
class BackendOverride {
 public:
  explicit BackendOverride(const backend::Kernels* kernels)
      : prev_(backend::exchange_active(kernels)) {}
  ~BackendOverride() { backend::exchange_active(prev_); }
  BackendOverride(const BackendOverride&) = delete;
  BackendOverride& operator=(const BackendOverride&) = delete;

 private:
  const backend::Kernels* prev_;
};

std::vector<const backend::Kernels*> all_backends() {
  std::vector<const backend::Kernels*> out;
  for (const std::string& name : backend::available()) {
    out.push_back(backend::lookup(name));
  }
  return out;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::zeros(rows, cols);
  for (float& x : t.data()) x = static_cast<float>(rng.normal());
  return t;
}

// Sprinkle the adversarial values the zero-skip / determinism contract
// cares about: exact zeros of both signs and denormals.
void poison(Tensor& t, util::Rng& rng) {
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double u = rng.uniform();
    if (u < 0.15) {
      d[i] = 0.0f;
    } else if (u < 0.25) {
      d[i] = -0.0f;
    } else if (u < 0.32) {
      d[i] = std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + (i % 7));
    }
  }
}

void expect_same_bits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(same_shape(a, b)) << what;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    std::uint32_t ua = 0, ub = 0;
    std::memcpy(&ua, &ad[i], sizeof(ua));
    std::memcpy(&ub, &bd[i], sizeof(ub));
    ASSERT_EQ(ua, ub) << what << ": bit mismatch at index " << i << " ("
                      << ad[i] << " vs " << bd[i] << ")";
  }
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::zeros(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(k, j);
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(same_shape(a, b))
      << a.shape_string() << " vs " << b.shape_string();
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    ASSERT_NEAR(ad[i], bd[i], tol) << "at index " << i;
  }
}

// ---------------------------------------------------------- registry

TEST(BackendRegistry, ScalarAlwaysAvailable) {
  const auto names = backend::available();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_NE(backend::lookup("scalar"), nullptr);
  EXPECT_EQ(backend::lookup("scalar"), &backend::detail::scalar_kernels());
}

TEST(BackendRegistry, LookupUnknownReturnsNull) {
  EXPECT_EQ(backend::lookup("bogus"), nullptr);
  EXPECT_EQ(backend::lookup(""), nullptr);
}

TEST(BackendRegistry, ActiveNameIsListed) {
  const std::string name = backend::active_name();
  const auto names = backend::available();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
}

TEST(BackendRegistry, ExchangeActiveOverridesAndRestores) {
  const backend::Kernels* scalar = backend::lookup("scalar");
  const backend::Kernels* prev = backend::exchange_active(scalar);
  EXPECT_EQ(backend::active_name(), "scalar");
  backend::exchange_active(prev);
}

TEST(BackendRegistry, EveryListedBackendHasCompleteKernelTable) {
  for (const backend::Kernels* k : all_backends()) {
    ASSERT_NE(k, nullptr);
    EXPECT_NE(k->name, nullptr);
    EXPECT_NE(k->gemm_rowblock, nullptr);
    EXPECT_NE(k->gemm_rowblock2, nullptr);
    EXPECT_NE(k->gemm_nt_row, nullptr);
    EXPECT_NE(k->axpy, nullptr);
    EXPECT_NE(k->axpy_q8, nullptr);
    EXPECT_NE(k->ew_add, nullptr);
    EXPECT_NE(k->ew_sub, nullptr);
    EXPECT_NE(k->ew_mul, nullptr);
    EXPECT_NE(k->ew_scale, nullptr);
    EXPECT_NE(k->softmax_row, nullptr);
    // gemm_nt_row reads B^T: crow = arow * [[1, 2, 3], [4, 5, 6]].
    const float arow[2] = {1.0f, -2.0f};
    const float bt[6] = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
    float crow[3] = {};
    k->gemm_nt_row(arow, bt, 3, 3, 2, crow);
    EXPECT_EQ(crow[0], -7.0f) << k->name;
    EXPECT_EQ(crow[1], -8.0f) << k->name;
    EXPECT_EQ(crow[2], -9.0f) << k->name;
    // softmax_row reports the max it subtracted and the sum of exps.
    const float in[3] = {0.0f, 1.0f, 1.0f};
    float out[3] = {};
    const backend::SoftmaxRowStats st = k->softmax_row(in, 3, out);
    EXPECT_EQ(st.max, 1.0f) << k->name;
    EXPECT_EQ(st.sum, 2.0 + static_cast<double>(std::exp(-1.0f))) << k->name;
  }
}

// ------------------------------------------- cross-backend determinism

struct Shape {
  std::size_t m, k, n;
};

// Odd tails, k = 0, 1xN, and widths straddling the 8/16-lane strips.
const Shape kAdversarialShapes[] = {
    {1, 1, 1},  {1, 0, 5},  {3, 0, 0},  {1, 7, 13},  {3, 17, 33},
    {5, 64, 31}, {2, 65, 16}, {4, 128, 40}, {7, 13, 17}, {2, 3, 129},
};

TEST(BackendDeterminism, MatmulBitwiseIdenticalAcrossBackends) {
  for (const Shape& s : kAdversarialShapes) {
    util::Rng rng(s.m * 131 + s.k * 17 + s.n);
    Tensor a = random_tensor(s.m, s.k, rng);
    Tensor b = random_tensor(s.k, s.n, rng);
    poison(a, rng);
    poison(b, rng);
    BackendOverride scalar(backend::lookup("scalar"));
    const Tensor ref = matmul(a, b);
    const Tensor ref_tn = matmul_tn(transpose(a), b);
    const Tensor ref_nt = matmul_nt(a, transpose(b));
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride other(k);
      expect_same_bits(matmul(a, b), ref, k->name);
      expect_same_bits(matmul_tn(transpose(a), b), ref_tn, k->name);
      expect_same_bits(matmul_nt(a, transpose(b)), ref_nt, k->name);
    }
  }
}

TEST(BackendDeterminism, SoftmaxBitwiseIdenticalAcrossBackends) {
  util::Rng rng(99);
  Tensor logits = random_tensor(9, 33, rng);
  poison(logits, rng);
  // A row of equal values and a row with huge spread.
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    logits.at(1, j) = 2.5f;
    logits.at(2, j) = (j % 2 != 0) ? 80.0f : -80.0f;
  }
  BackendOverride scalar(backend::lookup("scalar"));
  const Tensor ref = softmax(logits);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride other(k);
    expect_same_bits(softmax(logits), ref, k->name);
  }
}

TEST(BackendDeterminism, ElementwiseBitwiseIdenticalAcrossBackends) {
  util::Rng rng(7);
  Tensor a = random_tensor(5, 37, rng);
  Tensor b = random_tensor(5, 37, rng);
  poison(a, rng);
  poison(b, rng);
  BackendOverride scalar(backend::lookup("scalar"));
  const Tensor ref_add = add(a, b);
  const Tensor ref_sub = sub(a, b);
  const Tensor ref_mul = hadamard(a, b);
  const Tensor ref_scale = scale(a, 0.37f);
  Tensor ref_axpy = a;
  add_scaled_inplace(ref_axpy, b, -1.25f);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride other(k);
    expect_same_bits(add(a, b), ref_add, k->name);
    expect_same_bits(sub(a, b), ref_sub, k->name);
    expect_same_bits(hadamard(a, b), ref_mul, k->name);
    expect_same_bits(scale(a, 0.37f), ref_scale, k->name);
    Tensor axpy = a;
    add_scaled_inplace(axpy, b, -1.25f);
    expect_same_bits(axpy, ref_axpy, k->name);
  }
}

// The row-block kernels called directly over a k range longer than one
// k-block and not starting at zero, so kernels that walk the range in
// chunks cross chunk boundaries. Paired rows with zeros at different
// p, at the same p, and none; C starts nonzero, since the kernels
// accumulate into it.
TEST(BackendDeterminism, RowblockKernelsMatchScalarOverLongRanges) {
  const backend::Kernels& scalar = *backend::lookup("scalar");
  const std::size_t k0 = 3, k1 = 150;
  for (const std::size_t n : {1u, 13u, 32u, 45u, 70u, 160u}) {
    util::Rng rng(n);
    const Tensor b = random_tensor(k1, n, rng);
    const Tensor c = random_tensor(2, n, rng);
    Tensor mixed = random_tensor(2, k1, rng);
    poison(mixed, rng);
    Tensor aligned = mixed;
    for (std::size_t p = 0; p < k1; ++p) {
      if (aligned.at(0, p) == 0.0f) {
        aligned.at(1, p) = 0.0f;
      } else if (aligned.at(1, p) == 0.0f) {
        aligned.at(1, p) = 0.5f;
      }
    }
    Tensor dense = random_tensor(2, k1, rng);
    for (const Tensor* a : {&mixed, &aligned, &dense}) {
      auto run = [&](const backend::Kernels& k) {
        Tensor pair = c;
        Tensor single = c;
        k.gemm_rowblock2(a->row(0).data(), a->row(1).data(), k0, k1,
                         b.data().data(), n, n, pair.row(0).data(),
                         pair.row(1).data());
        k.gemm_rowblock(a->row(1).data(), k0, k1, b.data().data(), n, n,
                        single.row(1).data());
        return std::make_pair(pair, single);
      };
      const auto ref = run(scalar);
      for (const backend::Kernels* k : all_backends()) {
        const auto got = run(*k);
        expect_same_bits(got.first, ref.first, k->name);
        expect_same_bits(got.second, ref.second, k->name);
      }
    }
  }
}

// The zero-skip decision must be identical in every backend: with the
// finiteness guard off, a zero in A must drop a NaN/Inf column of B
// (or propagate it) the same way everywhere. Pinned so a future
// backend can't make NaN propagation backend-dependent.
TEST(BackendDeterminism, ZeroSkipDropsNanIdenticallyAcrossBackends) {
  const bool prev_checks = set_finite_checks(false);
  {
    Tensor a = Tensor::zeros(2, 3);
    a.at(0, 0) = 0.0f;   // skips the NaN row of B
    a.at(0, 1) = 1.0f;
    a.at(0, 2) = -0.0f;  // -0.0 must skip exactly like +0.0
    a.at(1, 0) = 2.0f;   // hits the NaN row of B
    a.at(1, 1) = 1.0f;
    a.at(1, 2) = 0.5f;
    Tensor b = Tensor::full(3, 19, 1.0f);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      b.at(0, j) = std::numeric_limits<float>::quiet_NaN();
      b.at(2, j) = std::numeric_limits<float>::infinity();
    }
    BackendOverride scalar(backend::lookup("scalar"));
    const Tensor ref = matmul(a, b);
    // Row 0 skipped both poisoned rows of B: finite everywhere.
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(ref.at(0, j)));
      ASSERT_TRUE(std::isnan(ref.at(1, j)));
    }
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride other(k);
      expect_same_bits(matmul(a, b), ref, k->name);
    }
  }
  set_finite_checks(prev_checks);
}

// A short training loop (forward, backward, SGD) must produce bitwise
// identical parameters on every backend — the ISSUE's training-path
// determinism requirement, end to end through nn::.
TEST(BackendDeterminism, TrainingLoopBitwiseIdenticalAcrossBackends) {
  auto run_training = [](const backend::Kernels* kernels) {
    BackendOverride ov(kernels);
    util::Rng rng(21);
    nn::Sequential encoder = nn::make_mlp({6, 8, 4}, rng);
    nn::Classifier clf(encoder, 4, 3, rng);
    util::Rng data_rng(5);
    Tensor x = random_tensor(12, 6, data_rng);
    std::vector<std::size_t> y(12);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] = i % 3;
    for (int step = 0; step < 5; ++step) {
      Tensor logits = clf.logits(x, /*training=*/true);
      Tensor grad = softmax(logits);
      for (std::size_t i = 0; i < grad.rows(); ++i) {
        grad.at(i, y[i]) -= 1.0f;
      }
      clf.zero_grad();
      clf.backward(grad);
      for (nn::Parameter* p : clf.parameters()) {
        add_scaled_inplace(p->value, p->grad, -0.05f);
      }
    }
    std::vector<Tensor> out;
    for (nn::Parameter* p : clf.parameters()) out.push_back(p->value);
    out.push_back(clf.logits(x, /*training=*/false));
    return out;
  };
  const auto ref = run_training(backend::lookup("scalar"));
  for (const backend::Kernels* k : all_backends()) {
    const auto got = run_training(k);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_same_bits(got[i], ref[i], k->name);
    }
  }
}

// --------------------------------- transposed backward GEMMs vs before

// matmul_tn and matmul_nt as they were computed before each transposed
// one operand once per call, kept as the reference the current versions
// must match bit for bit. (This file builds with -ffp-contract=off, so
// the float mul-then-add here is not fused.)
Tensor reference_matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::zeros(a.cols(), b.cols());
  for (std::size_t p = 0; p < a.rows(); ++p) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = a.at(p, i);
      if (av == 0.0f) continue;  // the zero-skip rule on a[p][i]
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += av * b.at(p, j);
      }
    }
  }
  return c;
}

Tensor reference_matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::zeros(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        s += static_cast<double>(a.at(i, p)) * b.at(j, p);
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

// {m, k, n}: matmul_nt(m x k, n x k) and matmul_tn(k x m, k x n). The
// first two are the training step's backward shapes (dx = g W^T, dW =
// x^T g); the rest cover n off the 4- and 16-column tiles, k = 1, k = 0
// and single rows.
const Shape kBackwardShapes[] = {
    {128, 300, 32}, {128, 32, 160}, {7, 13, 17}, {5, 1, 21},  {3, 9, 18},
    {2, 0, 19},     {1, 40, 35},    {9, 64, 3},  {4, 33, 16}, {6, 5, 1},
};

TEST(BackwardGemm, TransposedMatmulsMatchPreviousFormulationBitwise) {
  for (const Shape& s : kBackwardShapes) {
    util::Rng rng(s.m * 7 + s.k * 131 + s.n);
    Tensor a = random_tensor(s.m, s.k, rng);   // matmul_nt's A
    Tensor bn = random_tensor(s.n, s.k, rng);  // matmul_nt's B
    Tensor at = random_tensor(s.k, s.m, rng);  // matmul_tn's A
    Tensor bt = random_tensor(s.k, s.n, rng);  // matmul_tn's B
    poison(a, rng);
    poison(bn, rng);
    poison(at, rng);
    poison(bt, rng);
    const Tensor ref_nt = reference_matmul_nt(a, bn);
    const Tensor ref_tn = reference_matmul_tn(at, bt);
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride ov(k);
      for (std::size_t lanes : {1u, 4u}) {
        util::Parallel pool(lanes);
        taglets::testing::GlobalParallelOverride guard(&pool);
        const std::string what = std::string(k->name) + ", " +
                                 std::to_string(lanes) + " lanes, " +
                                 std::to_string(s.m) + "x" +
                                 std::to_string(s.k) + "x" +
                                 std::to_string(s.n);
        expect_same_bits(matmul_nt(a, bn), ref_nt, what.c_str());
        expect_same_bits(matmul_tn(at, bt), ref_tn, what.c_str());
      }
    }
  }
}

// NaN/Inf propagate as before: matmul_nt has no zero-skip, so a zero in
// A still meets a NaN in B; matmul_tn skips every p where a[p][i] == 0,
// dropping B's poisoned row for that output row only.
TEST(BackwardGemm, NanAndInfPropagateAsBefore) {
  const bool prev_checks = set_finite_checks(false);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  {
    util::Rng rng(17);
    Tensor a = random_tensor(3, 5, rng);
    a.at(0, 2) = 0.0f;
    a.at(1, 2) = -0.0f;
    Tensor b = random_tensor(19, 5, rng);
    for (std::size_t j = 0; j < 10; ++j) b.at(j, 2) = nan;
    b.at(12, 3) = inf;
    const Tensor ref = reference_matmul_nt(a, b);
    for (std::size_t i = 0; i < ref.rows(); ++i) {
      for (std::size_t j = 0; j < ref.cols(); ++j) {
        if (j < 10) {
          ASSERT_TRUE(std::isnan(ref.at(i, j)));  // 0 * NaN is not skipped
        } else if (j == 12) {
          ASSERT_TRUE(std::isinf(ref.at(i, j)));
        } else {
          ASSERT_TRUE(std::isfinite(ref.at(i, j)));
        }
      }
    }
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride ov(k);
      expect_same_bits(matmul_nt(a, b), ref, k->name);
    }
  }
  {
    Tensor a = Tensor::full(3, 4, 1.5f);  // k x m
    a.at(0, 0) = 0.0f;                    // skips B's NaN row for C row 0
    a.at(0, 1) = -0.0f;                   // -0.0 skips like +0.0
    a.at(2, 2) = 0.0f;                    // skips B's Inf row for C row 2
    Tensor b = Tensor::full(3, 21, 0.25f);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      b.at(0, j) = nan;
      b.at(2, j) = inf;
    }
    const Tensor ref = reference_matmul_tn(a, b);
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      ASSERT_TRUE(std::isinf(ref.at(0, j)));
      ASSERT_TRUE(std::isinf(ref.at(1, j)));
      ASSERT_TRUE(std::isnan(ref.at(2, j)));
      ASSERT_TRUE(std::isnan(ref.at(3, j)));
    }
    for (const backend::Kernels* k : all_backends()) {
      BackendOverride ov(k);
      expect_same_bits(matmul_tn(a, b), ref, k->name);
    }
  }
  set_finite_checks(prev_checks);
}

// ------------------------------------------------ property vs naive

TEST(BackendProperty, GemmMatchesNaiveTripleLoopOnRandomOddShapes) {
  util::Rng rng(123);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride ov(k);
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      const std::size_t kk = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 34);
      Tensor a = random_tensor(m, kk, rng);
      Tensor b = random_tensor(kk, n, rng);
      const Tensor ref = naive_matmul(a, b);
      expect_close(matmul(a, b), ref, 1e-3f);
      expect_close(matmul_tn(transpose(a), b), ref, 1e-3f);
      expect_close(matmul_nt(a, transpose(b)), ref, 1e-3f);
    }
  }
}

TEST(BackendProperty, SoftmaxRowsSumToOneOnEveryBackend) {
  util::Rng rng(321);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride ov(k);
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t rows = 1 + static_cast<std::size_t>(rng.uniform() * 9);
      const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform() * 40);
      Tensor logits = random_tensor(rows, cols, rng);
      const Tensor probs = softmax(logits);
      for (std::size_t i = 0; i < probs.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < probs.cols(); ++j) {
          const float p = probs.at(i, j);
          ASSERT_GE(p, 0.0f);
          ASSERT_LE(p, 1.0f);
          sum += p;
        }
        ASSERT_NEAR(sum, 1.0, 1e-5) << k->name;
      }
    }
  }
}

// -------------------------------------------------------- quantization

TEST(Quantization, RoundTripErrorBoundedByScale) {
  util::Rng rng(77);
  Tensor w = random_tensor(9, 23, rng);
  poison(w, rng);
  const QuantizedMatrix q = quantize_rows(w);
  ASSERT_EQ(q.rows, w.rows());
  ASSERT_EQ(q.cols, w.cols());
  const Tensor back = dequantize(q);
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      EXPECT_NEAR(back.at(r, c), w.at(r, c), q.scales[r] * 1.01f)
          << "row " << r << " col " << c;
    }
  }
}

TEST(Quantization, ZeroWeightsStayExactlyZero) {
  Tensor w = Tensor::zeros(4, 11);
  w.at(1, 3) = 2.0f;  // rows 0, 2, 3 stay constant-zero
  const QuantizedMatrix q = quantize_rows(w);
  const Tensor back = dequantize(q);
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      if (w.at(r, c) == 0.0f) {
        EXPECT_EQ(back.at(r, c), 0.0f) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(Quantization, MatmulQuantMatchesFloatMatmulOnDequantizedWeights) {
  util::Rng rng(88);
  Tensor x = random_tensor(7, 19, rng);
  Tensor w = random_tensor(19, 13, rng);
  poison(x, rng);
  const QuantizedMatrix q = quantize_rows(w);
  const Tensor ref = matmul(x, dequantize(q));
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride ov(k);
    // Same math up to the order of the two scale multiplies, so only
    // ulp-level differences are acceptable.
    expect_close(matmul_quant(x, q), ref, 1e-3f);
  }
}

TEST(Quantization, MatmulQuantBitwiseIdenticalAcrossBackends) {
  util::Rng rng(91);
  Tensor x = random_tensor(5, 33, rng);
  Tensor w = random_tensor(33, 17, rng);
  poison(x, rng);
  const QuantizedMatrix q = quantize_rows(w);
  BackendOverride scalar(backend::lookup("scalar"));
  const Tensor ref = matmul_quant(x, q);
  for (const backend::Kernels* k : all_backends()) {
    BackendOverride other(k);
    expect_same_bits(matmul_quant(x, q), ref, k->name);
  }
}

// ------------------------------------------------- int8 serving path

// Hand-crafted, perfectly separable 2-class model: an identity-free
// encoder and a head whose columns point at +/- the class direction.
ensemble::ServableModel separable_model() {
  const std::size_t dim = 8;
  Tensor w = Tensor::zeros(dim, 2);
  for (std::size_t i = 0; i < dim; ++i) {
    w.at(i, 0) = 1.0f;
    w.at(i, 1) = -1.0f;
  }
  nn::Linear head(w, Tensor::zeros(2));
  nn::Sequential encoder;  // empty = identity
  nn::Classifier clf(encoder, std::move(head));
  return ensemble::ServableModel(std::move(clf), {"pos", "neg"});
}

// Points clustered at +/- 2 per coordinate with small noise.
void separable_data(Tensor& inputs, std::vector<std::size_t>& labels) {
  util::Rng rng(13);
  const std::size_t count = 40, dim = 8;
  inputs = Tensor::zeros(count, dim);
  labels.assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const bool neg = (i % 2 != 0);
    labels[i] = neg ? 1 : 0;
    for (std::size_t j = 0; j < dim; ++j) {
      inputs.at(i, j) = (neg ? -2.0f : 2.0f) +
                        0.1f * static_cast<float>(rng.normal());
    }
  }
}

TEST(Int8Serving, PrecisionSwitchAndPredictionsAgree) {
  ensemble::ServableModel model = separable_model();
  EXPECT_EQ(model.precision(), ensemble::Precision::kFloat32);
  Tensor inputs;
  std::vector<std::size_t> labels;
  separable_data(inputs, labels);
  const auto float_labels = model.predict_batch(inputs);
  model.set_precision(ensemble::Precision::kInt8);
  EXPECT_EQ(model.precision(), ensemble::Precision::kInt8);
  const auto int8_labels = model.predict_batch(inputs);
  EXPECT_EQ(float_labels, int8_labels);
  const Tensor proba = model.predict_proba(inputs);
  ASSERT_EQ(proba.rows(), inputs.rows());
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    EXPECT_NEAR(proba.at(i, 0) + proba.at(i, 1), 1.0f, 1e-5f);
  }
  model.set_precision(ensemble::Precision::kFloat32);
  EXPECT_EQ(model.predict_batch(inputs), float_labels);
}

TEST(Int8Serving, AccuracyGatePassesOnSeparableData) {
  ensemble::ServableModel model = separable_model();
  Tensor inputs;
  std::vector<std::size_t> labels;
  separable_data(inputs, labels);
  const eval::Int8GateResult gate =
      eval::int8_accuracy_gate(model, inputs, labels, 1.0);
  EXPECT_EQ(gate.float32_accuracy, 100.0);
  EXPECT_EQ(gate.int8_accuracy, 100.0);
  EXPECT_EQ(gate.delta_pp, 0.0);
  EXPECT_TRUE(gate.pass);
  // The gate must restore the precision it found.
  EXPECT_EQ(model.precision(), ensemble::Precision::kFloat32);
}

TEST(Int8Serving, LoadHonoursServeInt8Env) {
  ensemble::ServableModel model = separable_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / "taglets_servable_int8.bin")
          .string();
  model.save(path);
  Tensor inputs;
  std::vector<std::size_t> labels;
  separable_data(inputs, labels);
  const auto float_labels = model.predict_batch(inputs);

  ASSERT_EQ(::setenv("TAGLETS_SERVE_INT8", "1", 1), 0);
  ensemble::ServableModel quantized = ensemble::ServableModel::load(path);
  ASSERT_EQ(::unsetenv("TAGLETS_SERVE_INT8"), 0);
  EXPECT_EQ(quantized.precision(), ensemble::Precision::kInt8);
  EXPECT_EQ(quantized.predict_batch(inputs), float_labels);

  ensemble::ServableModel plain = ensemble::ServableModel::load(path);
  EXPECT_EQ(plain.precision(), ensemble::Precision::kFloat32);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace taglets::tensor
