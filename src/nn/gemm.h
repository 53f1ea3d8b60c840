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

// One sample's geometry for the one conv shape Conv2d runs: a (1, kw)
// kernel over height-1 input planes, stride 1, 'same' padding along W
// (pad_w = (kw - 1) / 2 for the odd kernels Conv2d allows). Its im2col
// matrix has K = in_channels * kw rows: row (ci, j), at index ci * kw + j,
// holds plane ci shifted by the tap offset j - pad_w, zero outside the
// image, over N = ww columns.
struct ConvShape {
  std::size_t in_channels, ww, kw, pad_w;
  std::size_t k() const { return in_channels * kw; }
  std::size_t n() const { return ww; }
};

// The fp32 conv forward: C_s[M, N] = A[M, K] * im2col(x_s) for s in
// [0, batch), where x_s is the sample's [in_channels][ww] planes
// (samples in_channels * N floats apart) and C_s sits M * N floats
// apart. No im2col matrix is built: each B k-tile is packed straight
// from the planes into the per-thread panel, one k-row at a time, with
// the tap advanced by a counter (no divisions) and the padding zeros
// written into the margins. Output row i starts at row_init[i] (the bias
// fold; nullptr = 0.0f) inside the producing chunk, so every element
// sums bias-then-ascending-k, exactly as over materialized columns.
// `epilogue`, when set, runs on each finished row.
void conv_f32_batched(std::size_t batch, std::size_t m, const ConvShape& g,
                      const float* a, const float* x, float* c,
                      RowEpilogue epilogue = nullptr,
                      const float* row_init = nullptr);

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

// Quantized conv forward: C_s[qw.rows, N] = dequant(qw.wq * panel_s) for
// s in [0, batch), where panel_s is im2col(xq_s) oct-packed and xq holds
// the batch's quantized input planes ([batch][in_channels][ww] bytes).
// `panel` is caller-provided scratch of batch * 8 * qw.ko * ((N + 7) & ~7)
// bytes. The panel is packed straight from the planes: unit (o, j) holds,
// in lane t, im2col k-row kk = 8o + t (channel kk / kw, tap kk % kw) at
// column j, i.e. xq byte (ci, j + kk % kw - pad_w) — 128, the u8 zero,
// outside the image — and 0 for kk >= K and in the pad columns j >= N.
// So one 64-bit panel unit feeds one broadcast weight oct, the layout
// gemm_s8u8 documents in nn/simd.h. `epilogue` fuses the activation into
// the producing chunk exactly like conv_f32_batched.
void conv_s8u8_batched(std::size_t batch, const ConvShape& g,
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

// Number of int8 driver dispatches since process start. Tests assert
// this moves under the avx2_int8 backend — an "int8" result that
// silently ran the fp32 path would pass for the wrong reason.
std::uint64_t int8_kernel_dispatches();

}  // namespace deepcsi::nn
