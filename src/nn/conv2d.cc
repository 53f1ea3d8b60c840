#include "nn/conv2d.h"

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/parallel.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/simd.h"

namespace deepcsi::nn {
namespace {

// Valid output-row/col span of a tap offset (dh, dw) under 'same' padding:
// output index h reads input h + dh, so h must satisfy 0 <= h + dh < size.
struct TapSpan {
  std::size_t lo, hi;
};

TapSpan tap_span(std::ptrdiff_t d, std::size_t size) {
  TapSpan s{0, size};
  if (d < 0) s.lo = std::min(static_cast<std::size_t>(-d), size);
  if (d > 0)
    s.hi = size > static_cast<std::size_t>(d)
               ? size - static_cast<std::size_t>(d)
               : 0;
  return s;
}

// im2col: column row (ci, i, j) holds x[ci] shifted by the tap offset,
// `pad` outside the image (0.0f for fp32, byte 128 — the u8 encoding of
// 0.0f — for the quantized path). Rows are independent, so the
// (sample, tap) space parallelizes directly.
template <typename T>
void im2col_impl(const T* x, T pad, std::size_t n_batch, std::size_t hh,
                 std::size_t ww, std::size_t in_channels, std::size_t kh,
                 std::size_t kw, std::size_t pad_h, std::size_t pad_w,
                 T* cols) {
  const std::size_t hw = hh * ww;
  const std::size_t ckk = in_channels * kh * kw;
  common::parallel_for(
      0, n_batch * ckk, common::grain_for(hw),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t n = r / ckk, q = r % ckk;
          const std::size_t ci = q / (kh * kw);
          const std::size_t i = (q / kw) % kh, j = q % kw;
          const std::ptrdiff_t dh = static_cast<std::ptrdiff_t>(i) -
                                    static_cast<std::ptrdiff_t>(pad_h);
          const std::ptrdiff_t dw = static_cast<std::ptrdiff_t>(j) -
                                    static_cast<std::ptrdiff_t>(pad_w);
          const TapSpan hs = tap_span(dh, hh), ws = tap_span(dw, ww);
          const T* __restrict x_plane = x + (n * in_channels + ci) * hw;
          T* __restrict col_row = cols + r * hw;
          // Fill only the padding border (rows outside the tap's valid
          // h span, plus the short w margins) instead of pre-filling the
          // whole row and overwriting its interior — for 'same' padding
          // the border is a few columns wide, so this roughly halves
          // im2col's store traffic. Identical output bytes.
          std::fill(col_row, col_row + hs.lo * ww, pad);
          std::fill(col_row + hs.hi * ww, col_row + hw, pad);
          for (std::size_t h = hs.lo; h < hs.hi; ++h) {
            const std::size_t h_in =
                static_cast<std::size_t>(static_cast<std::ptrdiff_t>(h) + dh);
            // Index with the signed tap offset — never form a pointer
            // before the plane (w + dw >= 0 for w >= ws.lo).
            const T* __restrict src = x_plane + h_in * ww;
            T* __restrict dst = col_row + h * ww;
            std::fill(dst, dst + ws.lo, pad);
            std::fill(dst + ws.hi, dst + ww, pad);
            for (std::size_t w = ws.lo; w < ws.hi; ++w)
              dst[w] = src[static_cast<std::ptrdiff_t>(w) + dw];
          }
        }
      });
}

// rows[n] = cols[n]^T: each sample's [ckk][hw] im2col matrix turned into
// the [hw][ckk] B operand of the weight-gradient GEMM, whose reduction
// index (the pixel p) must be the row index. 4x4 SSE register transposes
// over the interior, scalar loops over the ragged edges; pure data
// movement, parallel over samples.
void transpose_cols(const float* cols, std::size_t n_batch, std::size_t ckk,
                    std::size_t hw, float* rows) {
  common::parallel_for(
      0, n_batch, common::grain_for(ckk * hw),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
          const float* __restrict src = cols + n * ckk * hw;
          float* __restrict dst = rows + n * ckk * hw;
          std::size_t q = 0;
#ifdef __SSE2__
          for (; q + 4 <= ckk; q += 4) {
            const float* s0 = src + q * hw;
            std::size_t p = 0;
            for (; p + 4 <= hw; p += 4) {
              __m128 r0 = _mm_loadu_ps(s0 + p);
              __m128 r1 = _mm_loadu_ps(s0 + hw + p);
              __m128 r2 = _mm_loadu_ps(s0 + 2 * hw + p);
              __m128 r3 = _mm_loadu_ps(s0 + 3 * hw + p);
              _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
              _mm_storeu_ps(dst + p * ckk + q, r0);
              _mm_storeu_ps(dst + (p + 1) * ckk + q, r1);
              _mm_storeu_ps(dst + (p + 2) * ckk + q, r2);
              _mm_storeu_ps(dst + (p + 3) * ckk + q, r3);
            }
            for (; p < hw; ++p)
              for (std::size_t t = 0; t < 4; ++t)
                dst[p * ckk + q + t] = s0[t * hw + p];
          }
#endif
          for (; q < ckk; ++q)
            for (std::size_t p = 0; p < hw; ++p)
              dst[p * ckk + q] = src[q * hw + p];
        }
      });
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kh, std::size_t kw, std::mt19937_64& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kh_(kh),
      kw_(kw),
      pad_h_((kh - 1) / 2),
      pad_w_((kw - 1) / 2),
      weight_(Tensor({out_channels, in_channels, kh, kw})),
      bias_(Tensor({out_channels})) {
  DEEPCSI_CHECK_MSG(kh % 2 == 1 && kw % 2 == 1,
                    "'same' padding requires odd kernels");
  lecun_normal(weight_.value, in_channels * kh * kw, rng);
  bias_.value.zero();
}

void Conv2d::im2col_into(const float* x, std::size_t n_batch, std::size_t hh,
                         std::size_t ww, float* cols) const {
  im2col_impl(x, 0.0f, n_batch, hh, ww, in_channels_, kh_, kw_, pad_h_, pad_w_,
              cols);
}

void Conv2d::im2col_u8_into(const std::uint8_t* x, std::size_t n_batch,
                            std::size_t hh, std::size_t ww,
                            std::uint8_t* cols) const {
  im2col_impl(x, std::uint8_t{128}, n_batch, hh, ww, in_channels_, kh_, kw_,
              pad_h_, pad_w_, cols);
}

void Conv2d::prepare_int8(float input_absmax) {
  qw_ = quantize_weights(weight_.value.data(), out_channels_,
                         in_channels_ * kh_ * kw_, input_absmax);
}

void Conv2d::im2col(const Tensor& x, std::vector<float>& cols) const {
  const std::size_t n_batch = x.dim(0), hh = x.dim(2), ww = x.dim(3);
  cols.resize(n_batch * in_channels_ * kh_ * kw_ * hh * ww);
  im2col_into(x.data(), n_batch, hh, ww, cols.data());
}

// out[n] = bias + W * cols[n]; optionally SELU-activated in the GEMM's
// per-row epilogue (the fused serve path — the activation runs while each
// output row is still hot in the chunk that produced it). The bias is
// folded into the GEMM's row init — output row i of every sample starts
// at bias[i] inside the chunk that accumulates it, the exact values and
// order of the old prefill-then-accumulate form without the extra
// whole-tensor write pass.
void Conv2d::compute_forward(const float* cols, std::size_t n_batch,
                             std::size_t hh, std::size_t ww, float* out,
                             bool fuse_selu) const {
  const std::size_t hw = hh * ww;
  const std::size_t ckk = in_channels_ * kh_ * kw_;
  gemm_nn_batched(n_batch, out_channels_, hw, ckk, weight_.value.data(), cols,
                  ckk * hw, out, out_channels_ * hw,
                  /*accumulate=*/false, fuse_selu ? simd::ops().selu : nullptr,
                  bias_.value.data());
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  DEEPCSI_CHECK(x.rank() == 4);
  DEEPCSI_CHECK_MSG(x.dim(1) == in_channels_, "conv2d channel mismatch");
  const std::size_t n_batch = x.dim(0), hh = x.dim(2), ww = x.dim(3);
  const std::size_t hw = hh * ww;
  const std::size_t ckk = in_channels_ * kh_ * kw_;
  cached_x_ = x;

  // One shared column buffer for both modes keeps steady-state serving
  // allocation-free; grossly oversized capacity (training leftovers, or a
  // much larger earlier serving batch) is dropped so the layer doesn't pin
  // kh*kw-times-the-largest-input scratch forever. The 4x slack keeps
  // mixed batch-1 / batch-N traffic from thrashing the allocator.
  if (!training) {
    if (cached_cols_.capacity() > 4 * n_batch * ckk * hw)
      std::vector<float>().swap(cached_cols_);
    if (!col_grad_scratch_.empty())
      std::vector<float>().swap(col_grad_scratch_);
  }
  im2col(x, cached_cols_);

  Tensor out({n_batch, out_channels_, hh, ww});
  compute_forward(cached_cols_.data(), n_batch, hh, ww, out.data());
  return out;
}

void Conv2d::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4 &&
                plan.in_shape.dim(1) == in_channels_);
  const std::size_t hh = plan.in_shape.dim(2), ww = plan.in_shape.dim(3);
  plan.out_shape = {plan.in_shape.dim(0), out_channels_, hh, ww};
  const std::size_t hw = hh * ww;
  const std::size_t ckk = in_channels_ * kh_ * kw_;
  // Slice [0]: the fp32 im2col columns [Cin*kh*kw][H*W].
  plan.scratch_numel = {ckk * hw};
  if (qw_.valid()) {
    // Calibrated layer: stage the quantized path's byte buffers in the
    // arena too (sizes in floats, each sample's rounded up), so int8
    // steady state is as allocation-free as fp32. [1] u8 input planes,
    // [2] u8 columns, [3] the oct-packed GEMM panel (k zero-padded to
    // 8 * ko, columns padded to a multiple of 8 — see conv_s8u8_batched).
    auto bytes_as_floats = [](std::size_t b) { return (b + 3) / 4; };
    const std::size_t hw_padded = (hw + 7) & ~std::size_t{7};
    plan.scratch_numel.push_back(bytes_as_floats(in_channels_ * hw));
    // Width convs (kh == 1 over height-1 inputs — every conv in the
    // paper model) pack the panel straight from the input planes
    // (conv_s8u8_batched_w), so the u8 im2col slice is not needed.
    const bool width_conv = kh_ == 1 && hh == 1;
    plan.scratch_numel.push_back(width_conv ? 0 : bytes_as_floats(ckk * hw));
    plan.scratch_numel.push_back(bytes_as_floats(8 * qw_.ko * hw_padded));
  }
}

void Conv2d::forward_into(const InferArgs& args) const {
  const std::size_t n = args.x.dim(0), hh = args.x.dim(2),
                    ww = args.x.dim(3);
  if (qw_.valid() && simd::active() == simd::Backend::kAvx2Int8) {
    // A context planned before calibration lacks the int8 slices; that
    // means the owner skipped the pool rebuild — fail loudly rather
    // than silently serving fp32 from an "int8" configuration.
    DEEPCSI_CHECK_MSG(args.plan.scratch.size() == 4,
                      "conv2d int8: context planned before calibration");
    const std::size_t hw = hh * ww;
    auto* xq = reinterpret_cast<std::uint8_t*>(args.scratch(1));
    auto* panel = reinterpret_cast<std::uint8_t*>(args.scratch(3));
    simd::ops().quantize_u8(args.x.data(), n * in_channels_ * hw,
                            qw_.act_inv_scale, xq);
    const RowEpilogue epi =
        args.plan.fuse_selu ? simd::ops().selu : nullptr;
    if (kh_ == 1 && hh == 1) {
      // Width conv: skip the materialized u8 im2col entirely and pack
      // the GEMM panel straight from the quantized planes — identical
      // bytes, one full-size intermediate fewer.
      conv_s8u8_batched_w(n, in_channels_, ww, kw_, pad_w_, qw_, xq, panel,
                          bias_.value.data(), args.y.data(),
                          out_channels_ * hw, epi);
    } else {
      auto* cols_u8 = reinterpret_cast<std::uint8_t*>(args.scratch(2));
      im2col_u8_into(xq, n, hh, ww, cols_u8);
      conv_s8u8_batched(n, hw, qw_, cols_u8, panel, bias_.value.data(),
                        args.y.data(), out_channels_ * hw, epi);
    }
    return;
  }
  float* cols = args.scratch(0);
  im2col_into(args.x.data(), n, hh, ww, cols);
  compute_forward(cols, n, hh, ww, args.y.data(), args.plan.fuse_selu);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_x_;
  DEEPCSI_CHECK(!x.empty());
  DEEPCSI_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == out_channels_);
  const std::size_t n_batch = x.dim(0), hh = x.dim(2), ww = x.dim(3);
  DEEPCSI_CHECK(grad_out.dim(0) == n_batch && grad_out.dim(2) == hh &&
                grad_out.dim(3) == ww);
  const std::size_t hw = hh * ww;
  const std::size_t ckk = in_channels_ * kh_ * kw_;
  // Backward after an inference-mode forward (gradcheck does this):
  // rebuild the columns from the cached input.
  if (cached_cols_.size() != n_batch * ckk * hw) im2col(x, cached_cols_);

  // grad_b += per-plane sums (n ascending, double accumulator per plane).
  float* __restrict gb = bias_.grad.data();
  common::parallel_for(
      0, out_channels_, common::grain_for(n_batch * hw),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t co = lo; co < hi; ++co) {
          for (std::size_t n = 0; n < n_batch; ++n) {
            const float* __restrict g_plane =
                grad_out.data() + (n * out_channels_ + co) * hw;
            double acc = 0.0;
            for (std::size_t idx = 0; idx < hw; ++idx) acc += g_plane[idx];
            gb[co] += static_cast<float>(acc);
          }
        }
      });

  // grad_W += sum_n grad_out[n] * cols[n]^T, the transposed columns staged
  // in the column-gradient scratch (same n * ckk * hw floats; the
  // column-gradient GEMM overwrites them right after).
  col_grad_scratch_.resize(n_batch * ckk * hw);
  transpose_cols(cached_cols_.data(), n_batch, ckk, hw,
                 col_grad_scratch_.data());
  gemm_nn_batch_reduce(n_batch, out_channels_, ckk, hw, grad_out.data(),
                       out_channels_ * hw, col_grad_scratch_.data(), hw * ckk,
                       weight_.grad.data());

  // Column gradients: colgrad[n] = W^T * grad_out[n].
  gemm_tn_batched(n_batch, ckk, hw, out_channels_, weight_.value.data(),
                  grad_out.data(), out_channels_ * hw, col_grad_scratch_.data(),
                  ckk * hw, /*accumulate=*/false);

  // col2im: scatter column gradients back onto input planes. Taps of
  // channel ci only touch plane (n, ci), so that pair is the parallel
  // unit and the tap/row order inside it is fixed.
  Tensor grad_in({n_batch, in_channels_, hh, ww});
  common::parallel_for(
      0, n_batch * in_channels_, common::grain_for(kh_ * kw_ * hw),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t n = r / in_channels_, ci = r % in_channels_;
          float* __restrict gi_plane = grad_in.data() + r * hw;
          for (std::size_t i = 0; i < kh_; ++i) {
            for (std::size_t j = 0; j < kw_; ++j) {
              const std::size_t q = (ci * kh_ + i) * kw_ + j;
              const float* __restrict cg_row =
                  col_grad_scratch_.data() + (n * ckk + q) * hw;
              const std::ptrdiff_t dh = static_cast<std::ptrdiff_t>(i) -
                                        static_cast<std::ptrdiff_t>(pad_h_);
              const std::ptrdiff_t dw = static_cast<std::ptrdiff_t>(j) -
                                        static_cast<std::ptrdiff_t>(pad_w_);
              const TapSpan hs = tap_span(dh, hh), ws = tap_span(dw, ww);
              for (std::size_t h = hs.lo; h < hs.hi; ++h) {
                const std::size_t h_in = static_cast<std::size_t>(
                    static_cast<std::ptrdiff_t>(h) + dh);
                float* __restrict dst = gi_plane + h_in * ww;
                const float* __restrict src = cg_row + h * ww;
                for (std::size_t w = ws.lo; w < ws.hi; ++w)
                  dst[static_cast<std::ptrdiff_t>(w) + dw] += src[w];
              }
            }
          }
        }
      });
  return grad_in;
}

}  // namespace deepcsi::nn
