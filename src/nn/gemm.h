// Row-parallel single-precision GEMM kernels for the NN hot paths.
//
// All matrices are contiguous row-major. Every variant parallelizes over
// rows of C (the batch-reducing variant: over column blocks) through
// common::parallel_for; each output element is computed wholly inside one
// chunk with a fixed ascending-k accumulation order, so within a SIMD
// backend results are bit-identical for any thread count or chunking.
// The batched variants share one A across the batch (the weight matrix)
// and fold the batch axis into the parallel index space, which is what
// gives single-sample inference (batch = 1, rows = M) and mini-batch
// training (rows = batch * M) the same kernel and the same full
// parallelism.
//
// The conv and TN variants run a register-blocked micro-kernel: a block
// of C rows shares each streamed B row (multiplying arithmetic
// intensity), the k axis is tiled, and the active B tile is packed once
// per chunk into aligned per-thread scratch (the conv variant packs it
// from the input planes) and reused across the chunk's row blocks.
// The inner register tiles are supplied by the runtime-dispatched SIMD
// backend (nn/simd.h: 8-wide AVX2 FMA tiles, or the scalar loops).
// Blocking, tiling and packing only move data — every C element still
// accumulates exactly one multiply-add per k index, in ascending k — so
// the per-backend determinism contract survives the optimization
// untouched.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/quantize.h"

namespace deepcsi::nn {

// Optional fused epilogue for the conv variant: runs once over every
// finished C row (x = y = the row, n elements) while it is still hot in
// the producing chunk's cache. Must be elementwise and in-place-safe —
// nn/simd.h's selu kernel is the canonical instance.
using RowEpilogue = void (*)(const float* x, float* y, std::size_t n);

// One sample's input planes and kernel of a stride-1 'same' convolution
// (pad = (kernel - 1) / 2 for the odd kernels Conv2d allows). Its im2col
// matrix has K = in_channels * kh * kw rows: row (ci, i, j), at index
// (ci * kh + i) * kw + j, holds plane ci shifted by the tap offset
// (i - pad_h, j - pad_w), zero outside the image, over N = hh * ww
// columns.
struct ConvShape {
  std::size_t in_channels, hh, ww;
  std::size_t kh, kw, pad_h, pad_w;
  std::size_t k() const { return in_channels * kh * kw; }
  std::size_t n() const { return hh * ww; }
};

// The fp32 conv forward: C_s[M, N] = A[M, K] * im2col(x_s) for s in
// [0, batch), where x_s is the sample's [in_channels][hh][ww] planes
// (samples in_channels * N floats apart) and C_s sits M * N floats
// apart. No im2col matrix is built: each B k-tile is packed straight
// from the planes into the per-thread panel, one k-row at a time, with
// the tap advanced by counters (no divisions) and the padding zeros
// written into the margins. Output row i starts at row_init[i] (the bias
// fold; nullptr = 0.0f) inside the producing chunk, so every element
// sums bias-then-ascending-k, exactly as over materialized columns.
// `epilogue`, when set, runs on each finished row.
void conv_f32_batched(std::size_t batch, std::size_t m, const ConvShape& g,
                      const float* a, const float* x, float* c,
                      RowEpilogue epilogue = nullptr,
                      const float* row_init = nullptr);

// The materialized u8 im2col matrices ([K][N] per sample) of the
// quantized non-width conv, padding byte 128 (the u8 encoding of 0.0f,
// see nn/quantize.h).
void im2col(const ConvShape& g, std::size_t batch, const std::uint8_t* x,
            std::uint8_t* cols);

// The transposed fp32 im2col matrices ([N][K] per sample: each pixel's
// receptive field as one row, zero outside the image) — the B operand of
// the conv weight gradient, whose reduction index is the pixel.
void im2row(const ConvShape& g, std::size_t batch, const float* x,
            float* rows);

// col2im: grad_x_s += the column gradients cols_s ([K][N]) scattered back
// onto the input planes — the adjoint of im2col.
void col2im_add(const ConvShape& g, std::size_t batch, const float* cols,
                float* grad_x);

// C_s[M,N] (+)= A[K,M]^T * B_s[K,N] for s in [0, batch).
void gemm_tn_batched(std::size_t batch, std::size_t m, std::size_t n,
                     std::size_t k, const float* a, const float* b,
                     std::size_t b_stride, float* c, std::size_t c_stride,
                     bool accumulate);

// C[M,N] (+)= A[K,M]^T * B[K,N].
inline void gemm_tn(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c,
                    bool accumulate) {
  gemm_tn_batched(1, m, n, k, a, b, 0, c, 0, accumulate);
}

// C[M,N] (+)= A[M,K] * B[N,K]^T (row-by-row dot products).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate);

// C[M,N] += sum_s A_s[M,K] * B_s[K,N] — the batch reduces into C (the
// conv weight gradient, with B_s the transposed im2col columns; at batch
// 1, the dense input gradient). Runs the same register tiles as
// conv_f32_batched, parallel over fixed blocks of C columns: each chunk
// walks s, then k-tiles, then k in ascending order, so
// every element accumulates one multiply-add per (s, k) in an order that
// depends only on the shape — bit-identical for any DEEPCSI_THREADS.
void gemm_nn_batch_reduce(std::size_t batch, std::size_t m, std::size_t n,
                          std::size_t k, const float* a, std::size_t a_stride,
                          const float* b, std::size_t b_stride, float* c);

// ------------------------------------------------------ INT8 drivers
//
// Quantized counterparts of the conv/dense forward GEMMs
// (nn/quantize.h documents the number format). All integer arithmetic
// is exact and the dequantize is a fixed per-element fma, so these are
// bit-identical across backends, thread counts, and batch chunkings —
// a STRONGER contract than the fp32 kernels' per-backend determinism.

// Quantized conv forward: C_s[rows, n] = dequant(qw.wq * panel_s) for s
// in [0, batch). `cols` holds the batch's u8 im2col matrices ([k][n]
// per sample, contiguous); `panel` is caller-provided scratch of
// batch * 8 * qw.ko * ((n + 7) & ~7) bytes that this driver oct-packs
// (eight consecutive k rows interleaved per column, zero beyond k and
// in the pad columns) so one 64-bit panel unit feeds one broadcast
// weight oct — the layout gemm_s8u8 documents in nn/simd.h. `epilogue`
// fuses the activation into the producing chunk exactly like
// conv_f32_batched.
void conv_s8u8_batched(std::size_t batch, std::size_t n,
                       const QuantizedWeights& qw, const std::uint8_t* cols,
                       std::uint8_t* panel, const float* bias, float* c,
                       std::size_t c_stride, RowEpilogue epilogue);

// Width-conv fast path of conv_s8u8_batched for the DeepCSI geometry
// (input height 1, kernel height 1, 'same' padding, stride 1): the oct
// panel is packed STRAIGHT from the quantized input planes `xq`
// ([batch][in_channels][ww] bytes) instead of a materialized u8 im2col
// buffer — k-row ci*kw + dj of output column j reads xq byte
// (ci, j + dj - pad_w), 128 (the u8 zero) outside the image. Panel and
// output are bit-identical to quantize -> im2col_u8 ->
// conv_s8u8_batched (pinned by tests/quantize_test.cc); what it saves
// is the full-size intermediate: one kw-times-the-input store pass plus
// its re-read, the bulk of the quantized conv's non-GEMM time.
void conv_s8u8_batched_w(std::size_t batch, std::size_t in_channels,
                         std::size_t ww, std::size_t kw, std::size_t pad_w,
                         const QuantizedWeights& qw, const std::uint8_t* xq,
                         std::uint8_t* panel, const float* bias, float* c,
                         std::size_t c_stride, RowEpilogue epilogue);

// Quantized dense forward: out[s] = dequant(qw.wq * quantize(x[s])) for
// s in [0, n_batch) rows of k features. `xq` is caller-provided scratch
// of n_batch * 8 * qw.ko bytes for the quantized (and zero-padded)
// input rows.
void dense_s8u8(std::size_t n_batch, std::size_t k,
                const QuantizedWeights& qw, const float* x, std::uint8_t* xq,
                const float* bias, float* out);

// Number of int8 driver dispatches since process start. Benches assert
// this moves while measuring the avx2_int8 backend — an "int8" row that
// silently ran the fp32 path would invalidate the comparison.
std::uint64_t int8_kernel_dispatches();

}  // namespace deepcsi::nn
