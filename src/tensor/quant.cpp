#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace taglets::tensor {

namespace {

constexpr std::size_t kBlock = 64;  // matches ops.cpp's matmul blocking

}  // namespace

QuantizedMatrix quantize_rows(const Tensor& w) {
  TAGLETS_CHECK(w.is_matrix(), "quantize_rows: rank-2 required");
  TAGLETS_CHECK_FINITE(w, "quantize_rows",
                       ": cannot quantize non-finite weights");
  QuantizedMatrix q;
  q.rows = w.rows();
  q.cols = w.cols();
  q.values.resize(w.rows() * w.cols());
  q.scales.resize(w.rows());
  q.zero_points.resize(w.rows());
  for (std::size_t r = 0; r < w.rows(); ++r) {
    auto row = w.row(r);
    float lo = 0.0f, hi = 0.0f;  // range always covers 0.0
    for (float x : row) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (hi == lo) {
      // Constant-zero row: represent exactly with q = 0 everywhere.
      q.scales[r] = 1.0f;
      q.zero_points[r] = 0;
      std::fill_n(q.values.begin() + static_cast<std::ptrdiff_t>(r * q.cols),
                  q.cols, std::int8_t{0});
      continue;
    }
    const float scale = (hi - lo) / 255.0f;
    // Map lo -> -128; since lo <= 0 <= hi the zero point lands in
    // [-128, 127], so 0.0f is exactly representable.
    const std::int32_t zp = static_cast<std::int32_t>(
        std::lround(-128.0 - static_cast<double>(lo) / scale));
    q.scales[r] = scale;
    q.zero_points[r] = zp;
    std::int8_t* out =
        q.values.data() + static_cast<std::ptrdiff_t>(r * q.cols);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const long v = std::lround(static_cast<double>(row[j]) / scale) + zp;
      out[j] = static_cast<std::int8_t>(std::clamp(v, -128L, 127L));
    }
  }
  return q;
}

Tensor dequantize(const QuantizedMatrix& q) {
  Tensor w = Tensor::zeros(q.rows, q.cols);
  for (std::size_t r = 0; r < q.rows; ++r) {
    const std::int8_t* qrow =
        q.values.data() + static_cast<std::ptrdiff_t>(r * q.cols);
    float* out = w.row(r).data();
    for (std::size_t j = 0; j < q.cols; ++j) {
      out[j] = q.scales[r] *
               static_cast<float>(static_cast<std::int32_t>(qrow[j]) -
                                  q.zero_points[r]);
    }
  }
  return w;
}

Tensor matmul_quant(const Tensor& x, const QuantizedMatrix& q) {
  TAGLETS_CHECK(x.is_matrix(), "matmul_quant: rank-2 required");
  TAGLETS_CHECK(x.cols() == q.rows, "matmul_quant: inner dim mismatch");
  if (finite_checks_enabled()) {
    // Same rationale as matmul: the zero-skip below would silently drop
    // 0 * NaN, so reject poisoned activations when the guard is on.
    TAGLETS_CHECK_FINITE(x, "matmul_quant",
                         ": non-finite operand (zero-skip fast path would "
                         "drop NaN/Inf propagation)");
  }
  const std::size_t m = x.rows(), k = x.cols(), n = q.cols;
  Tensor c = Tensor::zeros(m, n);
  const backend::Kernels& kern = backend::active();
  auto row_block = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t kk = 0; kk < k; kk += kBlock) {
      const std::size_t kend = std::min(k, kk + kBlock);
      for (std::size_t i = r0; i < r1; ++i) {
        const float* xrow = x.row(i).data();
        float* crow = c.row(i).data();
        for (std::size_t p = kk; p < kend; ++p) {
          const float av = xrow[p];
          if (av == 0.0f) continue;  // same skip policy as matmul
          // Fold the per-row weight scale into the activation so the
          // kernel dequantizes with one multiply per element.
          kern.axpy_q8(
              n, av * q.scales[p],
              q.values.data() + static_cast<std::ptrdiff_t>(p * n),
              q.zero_points[p], crow);
        }
      }
    }
  };
  util::parallel_for_ranges(m, row_block, k * n);
  return c;
}

}  // namespace taglets::tensor
