// Post-training INT8 quantization for the inference path.
//
// Scheme (fixed; the kernels in nn/simd*.cc and the layer code in
// nn/conv2d.cc / nn/dense.cc all assume it):
//
//   * Weights: per-output-row SYMMETRIC int8, clamped to [-31, 31]:
//       w_scale[r] = absmax(w[r]) / 31
//       wq[r][k]   = clamp(rne(w[r][k] / w_scale[r]), -31, 31)
//     The 31 bound (not 127) lets the AVX2 kernel add TWO
//     _mm256_maddubs_epi16 results in plain i16 before widening: one
//     maddubs pair sum is <= 2 * 255 * 31 = 15810, so the running i16
//     total stays <= 31620 < 32767 — no saturation anywhere, every
//     integer op exact, hence bit-identical to the scalar reference.
//     (Accumulating two maddubs per _mm256_madd_epi16 halves the
//     widening work, which is what pushes the kernel past 2x the fp32
//     FMA peak.) An all-zero weight row quantizes to all-zero wq with
//     dequant[r] = 0, so its output is exactly bias[r].
//
//   * Activations: per-tensor u8 with zero point 128:
//       act_scale = input_absmax / 127        (1.0 when absmax <= 0)
//       x_u8      = clamp(rne(x / act_scale), -127, 127) + 128
//     0.0f always maps to 128, which doubles as the conv zero-padding
//     byte. input_absmax comes from a calibration pass over training
//     samples (calibrate_input_ranges below) and is persisted in a
//     sidecar next to the weights (nn/serialize.h, save_calibration).
//
//   * Dequantize: with corr[r] = 128 * sum_k wq[r][k] (the zero-point
//     correction) and dequant[r] = act_scale * w_scale[r],
//       y[r][j] = fma(float(acc - corr[r]), dequant[r], bias[r])
//     All integer math is exact, so quantized outputs are bit-identical
//     across backends, thread counts, and batch chunkings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "tensor/tensor.h"

namespace deepcsi::nn {

// Quantized weights for one Dense/Conv2d layer, laid out for the
// gemm_s8u8 kernel: row-major s8, each row zero-padded to lda = 8 * ko
// (k rounded up to whole OCTS — 8-value groups, the granularity of the
// kernel's two-maddubs i16 accumulation) so the oct walk never reads
// past real weights.
struct QuantizedWeights {
  std::size_t rows = 0;  // output channels / features
  std::size_t k = 0;     // reduction length (Cin*kw or in_features)
  std::size_t ko = 0;    // (k + 7) / 8 octs per row
  std::vector<std::int8_t> wq;      // [rows][8 * ko]
  std::vector<float> dequant;       // [rows]  act_scale * w_scale[r]
  std::vector<std::int32_t> corr;   // [rows]  128 * sum_k wq[r][k]
  float act_inv_scale = 1.0f;       // 1 / act_scale, for quantize_u8

  bool valid() const { return rows != 0; }
};

// Quantize a rows x k fp32 weight matrix (row-major) against a
// calibrated input absmax. input_absmax <= 0 degrades to act_scale = 1.
QuantizedWeights quantize_weights(const float* w, std::size_t rows,
                                  std::size_t k, float input_absmax);

// One calibrated layer: the absmax of the activations feeding the
// layer at `layer_index` in the Sequential graph (top level only — the
// conv nested inside SpatialAttention stays fp32).
struct CalibrationEntry {
  std::uint32_t layer_index = 0;
  float input_absmax = 0.0f;
};

// Run up to max_samples rows of `samples` (strided subsample) through
// the model in inference mode, recording the input absmax of every
// top-level Conv2d/Dense layer. Does NOT modify the model.
std::vector<CalibrationEntry> calibrate_input_ranges(
    Sequential& model, const tensor::Tensor& samples,
    std::size_t max_samples = 512);

// Attach int8 weights to the layers named by `entries` (prepare_int8).
// Throws std::runtime_error when an entry does not point at a
// Conv2d/Dense layer — that means the sidecar belongs to a different
// architecture.
void apply_calibration(Sequential& model,
                       const std::vector<CalibrationEntry>& entries);

}  // namespace deepcsi::nn
