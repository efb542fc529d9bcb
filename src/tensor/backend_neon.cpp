// NEON backend (compile-time selected on ARM — every AArch64 core has
// NEON, so there is no runtime probe). Float kernels use explicit
// vmulq + vaddq, never vmlaq/vfmaq (which fuse on AArch64 and would
// round differently than the scalar backend). Kernels that would not
// gain from hand-written 128-bit lanes here reuse the scalar backend's
// entries, so the determinism contract holds trivially for them:
// gemm_nt_row (its contiguous B^T rows and double accumulators already
// auto-vectorize to two-lane float64 mul + add) and softmax_row (scalar
// exp/sum by contract).
#include <cstddef>
#include <cstdint>

#include "tensor/backend.hpp"

#if defined(__ARM_NEON)

#include <arm_neon.h>

namespace taglets::tensor::backend {

namespace {

void gemm_rowblock(const float* arow, std::size_t k0, std::size_t k1,
                   const float* b, std::size_t ldb, std::size_t n,
                   float* crow) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    float32x4_t c0 = vld1q_f32(crow + j);
    float32x4_t c1 = vld1q_f32(crow + j + 4);
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // zero-skip contract: see backend.hpp
      const float32x4_t va = vdupq_n_f32(av);
      const float* brow = b + p * ldb + j;
      c0 = vaddq_f32(c0, vmulq_f32(va, vld1q_f32(brow)));
      c1 = vaddq_f32(c1, vmulq_f32(va, vld1q_f32(brow + 4)));
    }
    vst1q_f32(crow + j, c0);
    vst1q_f32(crow + j + 4, c1);
  }
  if (j < n) {
    for (std::size_t p = k0; p < k1; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (std::size_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

void gemm_rowblock2(const float* arow0, const float* arow1, std::size_t k0,
                    std::size_t k1, const float* b, std::size_t ldb,
                    std::size_t n, float* crow0, float* crow1) {
  gemm_rowblock(arow0, k0, k1, b, ldb, n, crow0);
  gemm_rowblock(arow1, k0, k1, b, ldb, n, crow1);
}

void axpy(std::size_t n, float a, const float* x, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i,
              vaddq_f32(vld1q_f32(y + i), vmulq_f32(va, vld1q_f32(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void ew_add(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void ew_sub(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vsubq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ew_mul(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ew_scale(std::size_t n, float a, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

void axpy_q8(std::size_t n, float a, const std::int8_t* q,
             std::int32_t zero_point, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  const int32x4_t vzp = vdupq_n_s32(zero_point);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const int16x8_t w = vmovl_s8(vld1_s8(q + j));
    const int32x4_t lo = vsubq_s32(vmovl_s16(vget_low_s16(w)), vzp);
    const int32x4_t hi = vsubq_s32(vmovl_s16(vget_high_s16(w)), vzp);
    vst1q_f32(y + j, vaddq_f32(vld1q_f32(y + j),
                               vmulq_f32(va, vcvtq_f32_s32(lo))));
    vst1q_f32(y + j + 4, vaddq_f32(vld1q_f32(y + j + 4),
                                   vmulq_f32(va, vcvtq_f32_s32(hi))));
  }
  for (; j < n; ++j) {
    y[j] += a * static_cast<float>(static_cast<std::int32_t>(q[j]) -
                                   zero_point);
  }
}

}  // namespace

namespace detail {

const Kernels* neon_kernels() {
  const Kernels& s = scalar_kernels();
  static const Kernels k{
      "neon",  gemm_rowblock, gemm_rowblock2, s.gemm_nt_row, axpy,
      axpy_q8, ew_add,        ew_sub,         ew_mul,        ew_scale,
      s.softmax_row,
  };
  return &k;
}

}  // namespace detail

}  // namespace taglets::tensor::backend

#else  // no NEON on this architecture

namespace taglets::tensor::backend::detail {

const Kernels* neon_kernels() { return nullptr; }

}  // namespace taglets::tensor::backend::detail

#endif
