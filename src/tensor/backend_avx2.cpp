// AVX2+FMA backend. Compiled with -mavx2 -mfma on x86 only (see
// src/tensor/CMakeLists.txt) and selected at runtime via
// __builtin_cpu_supports, so the binary stays runnable on pre-AVX2
// machines.
//
// Bitwise equality with the scalar backend (the determinism contract in
// backend.hpp) shapes every kernel here:
//  * float kernels vectorize across OUTPUT elements (the j axis) and
//    use explicit _mm256_mul_ps + _mm256_add_ps — never float FMA —
//    so each lane performs exactly the scalar op sequence;
//  * the zero-skip decision in gemm_rowblock/gemm_rowblock2 is made on
//    the scalar arow[p], as in the scalar backend; the kernels list the
//    kept p first and then walk the list, so there is no branch per p;
//  * gemm_nt_row reads rows of B^T with contiguous loads and may use
//    double FMA: the product of two floats is exact in double
//    (48 < 53 significand bits), so fmadd rounds once exactly like the
//    scalar mul-then-add;
//  * softmax_row vectorizes only the max reduction and the final scale
//    (max is order-insensitive for finite floats up to the sign of
//    zero, and exp(+0.0f) == exp(-0.0f) == 1.0f makes that harmless);
//    std::exp and the double sum stay scalar. The max it returns may
//    differ from the scalar one in the sign of a zero; the log-sum-exp
//    max + (float)log(sum) does not, since (float)log(sum) >= +0.
//
// The speedup over the (auto-vectorized, -march=native) scalar backend
// comes from register tiling: gemm_rowblock holds a strip of C in ymm
// accumulators across the whole k-block instead of storing and
// reloading C for every p, and skipped p cost nothing.
#include <cstddef>
#include <cstdint>

#include "tensor/backend.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace taglets::tensor::backend {

namespace {

// The zero-skip contract drops every p with arow[p] == 0. Instead of
// testing each p inside the strip loops, a branch that mispredicts on
// ReLU activations where zeros fall at random, the kernels first list
// the p they keep, in ascending order, and then walk that list. Each
// element sees exactly the scalar op sequence, and a skipped p costs
// nothing. Lists cover at most kStepChunk p at a time.
constexpr std::size_t kStepChunk = 64;

/// Writes the p in [k0, k1) with arow[p] != 0 to `steps`, ascending,
/// and returns how many there are. Branch-free: every p is written and
/// the count advances only past kept ones.
std::size_t kept_steps(const float* arow, std::size_t k0, std::size_t k1,
                       std::size_t* steps) {
  std::size_t count = 0;
  for (std::size_t p = k0; p < k1; ++p) {
    steps[count] = p;
    count += arow[p] != 0.0f ? 1 : 0;
  }
  return count;
}

/// crow[j] += arow[p] * b[p*ldb + j] for each listed p, in list order.
void rowblock_steps(const float* arow, const std::size_t* steps,
                    std::size_t count, const float* b, std::size_t ldb,
                    std::size_t n, float* crow) {
  std::size_t j = 0;
  // 64-wide strips: eight independent accumulator chains keep the FP
  // add ports saturated (one chain's add latency would otherwise gate
  // every p step), and C stays in registers across the whole list.
  for (; j + 64 <= n; j += 64) {
    float* cj = crow + j;
    __m256 c0 = _mm256_loadu_ps(cj);
    __m256 c1 = _mm256_loadu_ps(cj + 8);
    __m256 c2 = _mm256_loadu_ps(cj + 16);
    __m256 c3 = _mm256_loadu_ps(cj + 24);
    __m256 c4 = _mm256_loadu_ps(cj + 32);
    __m256 c5 = _mm256_loadu_ps(cj + 40);
    __m256 c6 = _mm256_loadu_ps(cj + 48);
    __m256 c7 = _mm256_loadu_ps(cj + 56);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t p = steps[t];
      const __m256 va = _mm256_set1_ps(arow[p]);
      const float* brow = b + p * ldb + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 24)));
      c4 = _mm256_add_ps(c4, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 32)));
      c5 = _mm256_add_ps(c5, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 40)));
      c6 = _mm256_add_ps(c6, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 48)));
      c7 = _mm256_add_ps(c7, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 56)));
    }
    _mm256_storeu_ps(cj, c0);
    _mm256_storeu_ps(cj + 8, c1);
    _mm256_storeu_ps(cj + 16, c2);
    _mm256_storeu_ps(cj + 24, c3);
    _mm256_storeu_ps(cj + 32, c4);
    _mm256_storeu_ps(cj + 40, c5);
    _mm256_storeu_ps(cj + 48, c6);
    _mm256_storeu_ps(cj + 56, c7);
  }
  for (; j + 16 <= n; j += 16) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    __m256 c1 = _mm256_loadu_ps(crow + j + 8);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t p = steps[t];
      const __m256 va = _mm256_set1_ps(arow[p]);
      const float* brow = b + p * ldb + j;
      c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(brow)));
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8)));
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t p = steps[t];
      c0 = _mm256_add_ps(
          c0, _mm256_mul_ps(_mm256_set1_ps(arow[p]),
                            _mm256_loadu_ps(b + p * ldb + j)));
    }
    _mm256_storeu_ps(crow + j, c0);
  }
  if (j < n) {
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t p = steps[t];
      const float av = arow[p];
      const float* brow = b + p * ldb;
      for (std::size_t jj = j; jj < n; ++jj) crow[jj] += av * brow[jj];
    }
  }
}

void gemm_rowblock(const float* arow, std::size_t k0, std::size_t k1,
                   const float* b, std::size_t ldb, std::size_t n,
                   float* crow) {
  std::size_t steps[kStepChunk];
  for (std::size_t p0 = k0; p0 < k1; p0 += kStepChunk) {
    const std::size_t count =
        kept_steps(arow, p0, std::min(k1, p0 + kStepChunk), steps);
    rowblock_steps(arow, steps, count, b, ldb, n, crow);
  }
}

/// Two C rows over one shared step list (their A rows have zeros in the
/// same places, or none): 32-wide strips in which each loaded B strip
/// feeds both rows, halving B traffic against two single-row passes,
/// with eight independent accumulator chains.
void rowblock2_shared(const float* arow0, const float* arow1,
                      const std::size_t* steps, std::size_t count,
                      const float* b, std::size_t ldb, std::size_t n,
                      float* crow0, float* crow1) {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    float* c0j = crow0 + j;
    float* c1j = crow1 + j;
    __m256 a0 = _mm256_loadu_ps(c0j);
    __m256 a1 = _mm256_loadu_ps(c0j + 8);
    __m256 a2 = _mm256_loadu_ps(c0j + 16);
    __m256 a3 = _mm256_loadu_ps(c0j + 24);
    __m256 d0 = _mm256_loadu_ps(c1j);
    __m256 d1 = _mm256_loadu_ps(c1j + 8);
    __m256 d2 = _mm256_loadu_ps(c1j + 16);
    __m256 d3 = _mm256_loadu_ps(c1j + 24);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t p = steps[t];
      const float* brow = b + p * ldb + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const __m256 b2 = _mm256_loadu_ps(brow + 16);
      const __m256 b3 = _mm256_loadu_ps(brow + 24);
      const __m256 va = _mm256_set1_ps(arow0[p]);
      const __m256 vd = _mm256_set1_ps(arow1[p]);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, b0));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, b1));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, b2));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, b3));
      d0 = _mm256_add_ps(d0, _mm256_mul_ps(vd, b0));
      d1 = _mm256_add_ps(d1, _mm256_mul_ps(vd, b1));
      d2 = _mm256_add_ps(d2, _mm256_mul_ps(vd, b2));
      d3 = _mm256_add_ps(d3, _mm256_mul_ps(vd, b3));
    }
    _mm256_storeu_ps(c0j, a0);
    _mm256_storeu_ps(c0j + 8, a1);
    _mm256_storeu_ps(c0j + 16, a2);
    _mm256_storeu_ps(c0j + 24, a3);
    _mm256_storeu_ps(c1j, d0);
    _mm256_storeu_ps(c1j + 8, d1);
    _mm256_storeu_ps(c1j + 16, d2);
    _mm256_storeu_ps(c1j + 24, d3);
  }
  if (j < n) {
    rowblock_steps(arow0, steps, count, b + j, ldb, n - j, crow0 + j);
    rowblock_steps(arow1, steps, count, b + j, ldb, n - j, crow1 + j);
  }
}

/// Two C rows, each over its own step list: the same 32-wide strips and
/// eight chains while both rows have steps left, then the longer list
/// finishes alone. Each row still sees exactly its single-row op
/// sequence.
void rowblock2_steps(const float* arow0, const std::size_t* steps0,
                     std::size_t count0, const float* arow1,
                     const std::size_t* steps1, std::size_t count1,
                     const float* b, std::size_t ldb, std::size_t n,
                     float* crow0, float* crow1) {
  const std::size_t both = std::min(count0, count1);
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    float* c0j = crow0 + j;
    float* c1j = crow1 + j;
    __m256 a0 = _mm256_loadu_ps(c0j);
    __m256 a1 = _mm256_loadu_ps(c0j + 8);
    __m256 a2 = _mm256_loadu_ps(c0j + 16);
    __m256 a3 = _mm256_loadu_ps(c0j + 24);
    __m256 d0 = _mm256_loadu_ps(c1j);
    __m256 d1 = _mm256_loadu_ps(c1j + 8);
    __m256 d2 = _mm256_loadu_ps(c1j + 16);
    __m256 d3 = _mm256_loadu_ps(c1j + 24);
    for (std::size_t t = 0; t < both; ++t) {
      const std::size_t p = steps0[t];
      const std::size_t q = steps1[t];
      const __m256 va = _mm256_set1_ps(arow0[p]);
      const __m256 vd = _mm256_set1_ps(arow1[q]);
      const float* bp = b + p * ldb + j;
      const float* bq = b + q * ldb + j;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 16)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 24)));
      d0 = _mm256_add_ps(d0, _mm256_mul_ps(vd, _mm256_loadu_ps(bq)));
      d1 = _mm256_add_ps(d1, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 8)));
      d2 = _mm256_add_ps(d2, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 16)));
      d3 = _mm256_add_ps(d3, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 24)));
    }
    for (std::size_t t = both; t < count0; ++t) {
      const std::size_t p = steps0[t];
      const __m256 va = _mm256_set1_ps(arow0[p]);
      const float* bp = b + p * ldb + j;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 16)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 24)));
    }
    for (std::size_t t = both; t < count1; ++t) {
      const std::size_t q = steps1[t];
      const __m256 vd = _mm256_set1_ps(arow1[q]);
      const float* bq = b + q * ldb + j;
      d0 = _mm256_add_ps(d0, _mm256_mul_ps(vd, _mm256_loadu_ps(bq)));
      d1 = _mm256_add_ps(d1, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 8)));
      d2 = _mm256_add_ps(d2, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 16)));
      d3 = _mm256_add_ps(d3, _mm256_mul_ps(vd, _mm256_loadu_ps(bq + 24)));
    }
    _mm256_storeu_ps(c0j, a0);
    _mm256_storeu_ps(c0j + 8, a1);
    _mm256_storeu_ps(c0j + 16, a2);
    _mm256_storeu_ps(c0j + 24, a3);
    _mm256_storeu_ps(c1j, d0);
    _mm256_storeu_ps(c1j + 8, d1);
    _mm256_storeu_ps(c1j + 16, d2);
    _mm256_storeu_ps(c1j + 24, d3);
  }
  if (j < n) {
    rowblock_steps(arow0, steps0, count0, b + j, ldb, n - j, crow0 + j);
    rowblock_steps(arow1, steps1, count1, b + j, ldb, n - j, crow1 + j);
  }
}

void gemm_rowblock2(const float* arow0, const float* arow1, std::size_t k0,
                    std::size_t k1, const float* b, std::size_t ldb,
                    std::size_t n, float* crow0, float* crow1) {
  std::size_t steps0[kStepChunk];
  std::size_t steps1[kStepChunk];
  for (std::size_t p0 = k0; p0 < k1; p0 += kStepChunk) {
    const std::size_t p1 = std::min(k1, p0 + kStepChunk);
    const std::size_t count0 = kept_steps(arow0, p0, p1, steps0);
    const std::size_t count1 = kept_steps(arow1, p0, p1, steps1);
    if (count0 == count1 && std::equal(steps0, steps0 + count0, steps1)) {
      rowblock2_shared(arow0, arow1, steps0, count0, b, ldb, n, crow0,
                       crow1);
    } else {
      rowblock2_steps(arow0, steps0, count0, arow1, steps1, count1, b, ldb,
                      n, crow0, crow1);
    }
  }
}

void gemm_nt_row(const float* arow, const float* bt, std::size_t ldbt,
                 std::size_t n, std::size_t k, float* crow) {
  std::size_t j = 0;
  // 16 output columns per pass in four double accumulators, fed by
  // contiguous loads from one row of B^T per p. Lanes are distinct
  // output columns and each walks p serially, so per-element order
  // matches the scalar backend.
  for (; j + 16 <= n; j += 16) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      const __m256d ap = _mm256_set1_pd(static_cast<double>(arow[p]));
      const float* brow = bt + p * ldbt + j;
      // Exact-product double FMA == scalar mul-then-add (see header).
      s0 = _mm256_fmadd_pd(ap, _mm256_cvtps_pd(_mm_loadu_ps(brow)), s0);
      s1 = _mm256_fmadd_pd(ap, _mm256_cvtps_pd(_mm_loadu_ps(brow + 4)), s1);
      s2 = _mm256_fmadd_pd(ap, _mm256_cvtps_pd(_mm_loadu_ps(brow + 8)), s2);
      s3 = _mm256_fmadd_pd(ap, _mm256_cvtps_pd(_mm_loadu_ps(brow + 12)), s3);
    }
    _mm_storeu_ps(crow + j, _mm256_cvtpd_ps(s0));
    _mm_storeu_ps(crow + j + 4, _mm256_cvtpd_ps(s1));
    _mm_storeu_ps(crow + j + 8, _mm256_cvtpd_ps(s2));
    _mm_storeu_ps(crow + j + 12, _mm256_cvtpd_ps(s3));
  }
  for (; j + 4 <= n; j += 4) {
    __m256d s0 = _mm256_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      s0 = _mm256_fmadd_pd(_mm256_set1_pd(static_cast<double>(arow[p])),
                           _mm256_cvtps_pd(_mm_loadu_ps(bt + p * ldbt + j)),
                           s0);
    }
    _mm_storeu_ps(crow + j, _mm256_cvtpd_ps(s0));
  }
  for (; j < n; ++j) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      s += static_cast<double>(arow[p]) * bt[p * ldbt + j];
    }
    crow[j] = static_cast<float>(s);
  }
}

void axpy(std::size_t n, float a, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                             _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void axpy_q8(std::size_t n, float a, const std::int8_t* q,
             std::int32_t zero_point, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  const __m256i vzp = _mm256_set1_epi32(zero_point);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j));
    // (q - zp) is exact in int32 and |q - zp| <= 255 converts exactly
    // to float, so lanes match the scalar backend bit-for-bit.
    const __m256i qi = _mm256_sub_epi32(_mm256_cvtepi8_epi32(raw), vzp);
    const __m256 qf = _mm256_cvtepi32_ps(qi);
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(y + j),
                                          _mm256_mul_ps(va, qf)));
  }
  for (; j < n; ++j) {
    y[j] += a * static_cast<float>(static_cast<std::int32_t>(q[j]) -
                                   zero_point);
  }
}

void ew_add(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void ew_sub(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_sub_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ew_mul(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ew_scale(std::size_t n, float a, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

SoftmaxRowStats softmax_row(const float* in, std::size_t n, float* out) {
  if (n == 0) return {0.0f, 0.0};
  float mx;
  std::size_t j;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(in);
    for (j = 8; j + 8 <= n; j += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(in + j));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vm);
    mx = lanes[0];
    for (int l = 1; l < 8; ++l) mx = mx < lanes[l] ? lanes[l] : mx;
  } else {
    mx = in[0];
    j = 1;
  }
  for (; j < n; ++j) mx = mx < in[j] ? in[j] : mx;
  double sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = std::exp(in[t] - mx);
    sum += out[t];
  }
  const float inv = static_cast<float>(1.0 / sum);
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    _mm256_storeu_ps(out + t, _mm256_mul_ps(_mm256_loadu_ps(out + t), vinv));
  }
  for (; t < n; ++t) out[t] *= inv;
  return {mx, sum};
}

}  // namespace

namespace detail {

const Kernels* avx2_kernels() {
  // gemm_nt_row uses fmadd_pd, so require FMA alongside AVX2.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const Kernels k{
      "avx2",  gemm_rowblock, gemm_rowblock2, gemm_nt_row, axpy,
      axpy_q8, ew_add,        ew_sub,         ew_mul,      ew_scale,
      softmax_row,
  };
  return &k;
}

}  // namespace detail

}  // namespace taglets::tensor::backend

#else  // non-x86: the avx2 backend does not exist on this architecture

namespace taglets::tensor::backend::detail {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace taglets::tensor::backend::detail

#endif
