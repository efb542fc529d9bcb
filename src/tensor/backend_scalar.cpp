// Scalar reference backend: per output element, the operations ops.cpp
// performed before backends existed. Every other backend is tested
// against this one for bitwise equality (tests/backend_test.cpp), so
// these loops are the semantics of record — do not "optimize" them
// into a different per-element order. This TU is compiled
// with -ffp-contract=off so the mul-then-add accumulations can never be
// fused into FMAs with different rounding than the SIMD backends.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/backend.hpp"

namespace taglets::tensor::backend {

namespace {

void gemm_rowblock(const float* arow, std::size_t k0, std::size_t k1,
                   const float* b, std::size_t ldb, std::size_t n,
                   float* crow) {
  for (std::size_t p = k0; p < k1; ++p) {
    const float av = arow[p];
    if (av == 0.0f) continue;  // zero-skip contract: see backend.hpp
    const float* brow = b + p * ldb;
    for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
  }
}

void gemm_rowblock2(const float* arow0, const float* arow1, std::size_t k0,
                    std::size_t k1, const float* b, std::size_t ldb,
                    std::size_t n, float* crow0, float* crow1) {
  gemm_rowblock(arow0, k0, k1, b, ldb, n, crow0);
  gemm_rowblock(arow1, k0, k1, b, ldb, n, crow1);
}

void gemm_nt_row(const float* arow, const float* bt, std::size_t ldbt,
                 std::size_t n, std::size_t k, float* crow) {
  // Column tiles of double accumulators, so each row of B^T is read
  // contiguously; per element the sum still runs in ascending p.
  constexpr std::size_t kTile = 64;
  for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
    const std::size_t w = std::min(kTile, n - j0);
    double s[kTile] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      const float* brow = bt + p * ldbt + j0;
      for (std::size_t j = 0; j < w; ++j) s[j] += av * brow[j];
    }
    for (std::size_t j = 0; j < w; ++j) crow[j0 + j] = static_cast<float>(s[j]);
  }
}

void axpy(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void axpy_q8(std::size_t n, float a, const std::int8_t* q,
             std::int32_t zero_point, float* y) {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] += a * static_cast<float>(static_cast<std::int32_t>(q[j]) -
                                   zero_point);
  }
}

void ew_add(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void ew_sub(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void ew_mul(std::size_t n, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
}

void ew_scale(std::size_t n, float a, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= a;
}

SoftmaxRowStats softmax_row(const float* in, std::size_t n, float* out) {
  if (n == 0) return {0.0f, 0.0};  // *max_element on an empty range is UB
  const float mx = *std::max_element(in, in + n);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = std::exp(in[j] - mx);
    sum += out[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  return {mx, sum};
}

}  // namespace

namespace detail {

const Kernels& scalar_kernels() {
  static const Kernels k{
      "scalar", gemm_rowblock, gemm_rowblock2, gemm_nt_row, axpy,
      axpy_q8,  ew_add,        ew_sub,         ew_mul,      ew_scale,
      softmax_row,
  };
  return k;
}

}  // namespace detail

}  // namespace taglets::tensor::backend
