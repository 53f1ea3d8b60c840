// The INT8 quantized inference path (nn/quantize.h + the int8 SimdOps
// kernels + the arena-staged layer paths):
//
//   1. Per-channel weight quantization honors its analytic bounds —
//      round-trip error within half a scale step, saturating casts pin
//      the ±31 / ±127 edges, all-zero rows degrade to exact bias.
//   2. The calibration sidecar round-trips through save/load and
//      REFUSES corrupt bytes (CRC), truncation, and foreign magic —
//      missing stays a soft nullopt.
//   3. int8 GEMM vs fp32 agreement within the calibrated tolerance on
//      randomized shapes.
//   4. The avx2_int8 kernels are BIT-IDENTICAL to the int8ref scalar
//      reference (all integer math exact; same rounding sequence) — a
//      stronger contract than the fp32 kernels' tolerance agreement.
//   5. A calibrated model under DEEPCSI_SIMD=avx2_int8 actually runs
//      the int8 drivers (honesty counter moves), stays bit-identical
//      across thread counts, and an UNCALIBRATED model under avx2_int8
//      is bit-identical to plain avx2 (graceful degradation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "core/model.h"
#include "dataset/features.h"
#include "nn/gemm.h"
#include "nn/infer.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "nn/simd.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using simd::Backend;
using tests::BackendGuard;
using tests::ThreadGuard;

bool avx2_available() {
  return simd::compiled_with_avx2() && simd::cpu_supports_avx2();
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              float scale = 1.0f) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// --------------------------------------------------- weight quantization

TEST(QuantizeWeightsTest, RoundTripErrorWithinHalfAScaleStep) {
  for (const auto& [rows, k] : {std::pair<std::size_t, std::size_t>{1, 1},
                                {3, 7},
                                {32, 63},
                                {17, 449},
                                {128, 896}}) {
    const std::vector<float> w = random_vec(rows * k, 7 * rows + k);
    const nn::QuantizedWeights q = nn::quantize_weights(w.data(), rows, k, 2.5f);
    ASSERT_TRUE(q.valid());
    EXPECT_EQ(q.ko, (k + 7) / 8);
    for (std::size_t r = 0; r < rows; ++r) {
      float absmax = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        absmax = std::max(absmax, std::fabs(w[r * k + kk]));
      const float w_scale = absmax / 31.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float back = static_cast<float>(q.wq[r * 8 * q.ko + kk]) * w_scale;
        EXPECT_LE(std::fabs(back - w[r * k + kk]),
                  w_scale * 0.5f * (1.0f + 1e-5f))
            << "rows=" << rows << " k=" << k << " r=" << r << " kk=" << kk;
      }
      // Padding beyond k must be exactly zero (the kernels reduce over
      // the padded octs).
      for (std::size_t kk = k; kk < 8 * q.ko; ++kk)
        EXPECT_EQ(q.wq[r * 8 * q.ko + kk], 0);
    }
  }
}

TEST(QuantizeWeightsTest, SaturatingCastEdges) {
  // The row absmax itself must land exactly on ±31, and the zero-point
  // correction must be 128 * sum(wq).
  const float w[] = {1.0f, -1.0f, 0.5f, 0.0f};
  const nn::QuantizedWeights q = nn::quantize_weights(w, 1, 4, 1.0f);
  EXPECT_EQ(q.wq[0], 31);
  EXPECT_EQ(q.wq[1], -31);
  EXPECT_EQ(q.wq[2], 16);  // rne(0.5 * 31) = rne(15.5) = 16
  EXPECT_EQ(q.wq[3], 0);
  EXPECT_EQ(q.corr[0], 128 * (31 - 31 + 16 + 0));

  // u8 activation quantization: clamp at ±127, zero maps to the 128
  // zero-point byte (== the conv padding byte).
  const float x[] = {0.0f, 10.0f, -10.0f, 1.0f, -1.0f, 0.9999f};
  std::uint8_t out[6];
  simd::int8ref::quantize_u8(x, 6, 127.0f, out);  // act_scale = 1/127
  EXPECT_EQ(out[0], 128);
  EXPECT_EQ(out[1], 255);  // clamped +127
  EXPECT_EQ(out[2], 1);    // clamped -127
  EXPECT_EQ(out[3], 255);
  EXPECT_EQ(out[4], 1);
  EXPECT_EQ(out[5], 255);  // rne(126.99) = 127
}

TEST(QuantizeWeightsTest, ZeroRowYieldsExactBias) {
  // An all-zero weight row must produce output == bias exactly, not
  // bias + 0-times-garbage.
  std::vector<float> w(2 * 8, 0.0f);
  for (std::size_t kk = 0; kk < 8; ++kk) w[8 + kk] = 0.25f * (kk + 1);
  const nn::QuantizedWeights q = nn::quantize_weights(w.data(), 2, 8, 3.0f);
  EXPECT_EQ(q.dequant[0], 0.0f);
  EXPECT_EQ(q.corr[0], 0);

  const std::vector<float> x = random_vec(3 * 8, 99, 2.0f);
  std::vector<std::uint8_t> xq(3 * 8 * q.ko);
  const float bias[] = {1.5f, -0.75f};
  std::vector<float> out(3 * 2);
  nn::dense_s8u8(3, 8, q, x.data(), xq.data(), bias, out.data());
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(out[s * 2], 1.5f);
}

// ----------------------------------------------------- sidecar round-trip

class TempCalibFile {
 public:
  TempCalibFile() {
    std::snprintf(path_, sizeof(path_), "/tmp/deepcsi_quantize_test_%d.bin",
                  static_cast<int>(::getpid()));
  }
  ~TempCalibFile() {
    std::remove(path_);
    std::remove((std::string(path_) + ".calib").c_str());
  }
  const char* weights_path() const { return path_; }
  std::string calib_path() const { return std::string(path_) + ".calib"; }

 private:
  char path_[128];
};

TEST(CalibrationSidecarTest, SaveLoadRoundTrip) {
  TempCalibFile tmp;
  const std::vector<nn::CalibrationEntry> entries = {
      {0, 1.5f}, {3, 0.25f}, {7, 1234.5f}};
  nn::save_calibration(tmp.weights_path(), entries);
  const auto loaded = nn::load_calibration(tmp.weights_path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*loaded)[i].layer_index, entries[i].layer_index);
    EXPECT_EQ((*loaded)[i].input_absmax, entries[i].input_absmax);
  }
}

TEST(CalibrationSidecarTest, MissingSidecarIsSoftNullopt) {
  TempCalibFile tmp;
  EXPECT_FALSE(nn::load_calibration(tmp.weights_path()).has_value());
}

TEST(CalibrationSidecarTest, RefusesCorruptTruncatedAndForeignFiles) {
  TempCalibFile tmp;
  nn::save_calibration(tmp.weights_path(), {{0, 1.0f}, {2, 2.0f}});
  const std::string path = tmp.calib_path();

  // Flip one payload byte: CRC must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 13, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 13, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
    EXPECT_THROW(nn::load_calibration(tmp.weights_path()), std::runtime_error);
  }
  // Truncate: parse must refuse, not read garbage.
  nn::save_calibration(tmp.weights_path(), {{0, 1.0f}, {2, 2.0f}});
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<unsigned char> bytes(64);
    const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    std::fwrite(bytes.data(), 1, n - 5, f);
    std::fclose(f);
    EXPECT_THROW(nn::load_calibration(tmp.weights_path()), std::runtime_error);
  }
  // Foreign magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite("DCSWxxxxxxxxxxxx", 1, 16, f);
    std::fclose(f);
    EXPECT_THROW(nn::load_calibration(tmp.weights_path()), std::runtime_error);
  }
}

// ------------------------------------------------ int8 vs fp32 tolerance

TEST(Int8GemmTest, DenseAgreesWithFp32WithinCalibratedTolerance) {
  std::mt19937_64 rng(42);
  for (const auto& [n_batch, rows, k] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 4},
        {2, 5, 31},
        {7, 32, 64},
        {3, 17, 449}}) {
    const std::vector<float> w = random_vec(rows * k, 100 + k);
    const std::vector<float> x = random_vec(n_batch * k, 200 + k, 2.0f);
    const std::vector<float> bias = random_vec(rows, 300 + k);
    float xmax = 0.0f;
    for (float v : x) xmax = std::max(xmax, std::fabs(v));
    const nn::QuantizedWeights q =
        nn::quantize_weights(w.data(), rows, k, xmax);
    const float act_scale = xmax / 127.0f;

    std::vector<std::uint8_t> xq(n_batch * 8 * q.ko);
    std::vector<float> got(n_batch * rows);
    nn::dense_s8u8(n_batch, k, q, x.data(), xq.data(), bias.data(),
                   got.data());

    for (std::size_t s = 0; s < n_batch; ++s) {
      for (std::size_t r = 0; r < rows; ++r) {
        double want = bias[r];
        float absmax = 0.0f, wmax = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          want += static_cast<double>(w[r * k + kk]) * x[s * k + kk];
          absmax = std::max(absmax, std::fabs(w[r * k + kk]));
          wmax = std::max(wmax, std::fabs(w[r * k + kk]));
        }
        const float w_scale = absmax / 31.0f;
        // Each term errs by at most |w|*dx + |x|*dw + dw*dx with
        // dx = act_scale/2, dw = w_scale/2; sum over k with slack.
        const double tol =
            k * (wmax * act_scale / 2.0 + xmax * w_scale / 2.0 +
                 act_scale * w_scale / 4.0) *
                1.05 +
            1e-4;
        EXPECT_NEAR(got[s * rows + r], want, tol)
            << "n_batch=" << n_batch << " rows=" << rows << " k=" << k;
      }
    }
  }
}

// --------------------------------------- avx2_int8 kernel bit-identity

TEST(Int8KernelTest, Avx2KernelsBitIdenticalToScalarReference) {
  if (!avx2_available()) GTEST_SKIP() << "avx2_int8 backend unavailable";
  BackendGuard guard;
  ASSERT_TRUE(simd::set_active(Backend::kAvx2Int8));
  const simd::SimdOps& ops = simd::ops();
  ASSERT_EQ(ops.id, Backend::kAvx2Int8);

  // quantize_u8: sizes straddling the 32-wide vector steps, including
  // values at and beyond the clamp edges.
  for (const std::size_t n : {std::size_t{1}, std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{200}}) {
    std::vector<float> x = random_vec(n, 1000 + n, 3.0f);
    if (n > 2) {
      x[0] = 1e9f;
      x[1] = -1e9f;
      x[2] = 0.0f;
    }
    std::vector<std::uint8_t> ref(n), got(n);
    simd::int8ref::quantize_u8(x.data(), n, 37.5f, ref.data());
    ops.quantize_u8(x.data(), n, 37.5f, got.data());
    EXPECT_EQ(std::memcmp(ref.data(), got.data(), n), 0) << "n=" << n;
  }

  // dot_s8u8: k multiples of 4 straddling the 32/64-byte steps. Weights
  // stay in the contract's [-31, 31] band — that is what makes the
  // kernels' i16 folding saturation-free and the comparison meaningful.
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<int> wd(-31, 31), xd(1, 255);
  for (const std::size_t k :
       {std::size_t{4}, std::size_t{28}, std::size_t{32}, std::size_t{36},
        std::size_t{64}, std::size_t{68}, std::size_t{448}}) {
    std::vector<std::int8_t> w(k);
    std::vector<std::uint8_t> x(k);
    for (auto& v : w) v = static_cast<std::int8_t>(wd(rng));
    for (auto& v : x) v = static_cast<std::uint8_t>(xd(rng));
    EXPECT_EQ(simd::int8ref::dot_s8u8(w.data(), x.data(), k),
              ops.dot_s8u8(w.data(), x.data(), k))
        << "k=" << k;
  }

  // gemm_s8u8: EVERY kernel this host can run, not only the table's
  // pick, over shapes straddling the 8-wide maddubs tiles (full, masked
  // remainder, single column), the VNNI kernel's 16-column step and its
  // 8-column half tile, the 4-row blocks, the 1-row attention conv, and
  // odd/even oct counts up to the paper model's 112. The panel follows
  // the oct-packed contract (np column units per oct, pad columns zero)
  // and every buffer is sized exactly, so the ASan leg catches a read
  // past the panel or a write past C. Outputs must be byte-identical.
  using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::vector<Shape> shapes = {
      {1, 1, 1}, {4, 16, 3}, {5, 17, 7}, {2, 14, 5}, {3, 40, 16}, {9, 100, 29}};
  constexpr std::size_t kRows[] = {1, 4, 5, 128};
  constexpr std::size_t kCols[] = {8, 9, 15, 16, 24, 117, 234};
  constexpr std::size_t kOcts[] = {1, 2, 5, 112};
  for (const std::size_t nrows : kRows)
    for (const std::size_t n : kCols)
      for (const std::size_t ko : kOcts) shapes.emplace_back(nrows, n, ko);
  const std::vector<simd::Int8GemmKernel> kernels = simd::int8_gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back().fn, ops.gemm_s8u8)
      << "the avx2_int8 table runs the last listed kernel";
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const auto [nrows, n, ko] = shapes[si];
    // Every other shape runs without a bias, as the attention conv does.
    const bool with_bias = si % 2 == 0;
    const std::size_t lda = 8 * ko;
    const std::size_t np = (n + 7) & ~std::size_t{7};
    std::vector<std::int8_t> a(nrows * lda);
    std::vector<std::uint8_t> bq(ko * np * 8, 0);
    for (auto& v : a) v = static_cast<std::int8_t>(wd(rng));
    for (std::size_t o = 0; o < ko; ++o)
      for (std::size_t j = 0; j < n; ++j)  // pad columns j >= n stay 0
        for (std::size_t t = 0; t < 8; ++t)
          bq[(o * np + j) * 8 + t] = static_cast<std::uint8_t>(xd(rng));
    std::vector<std::int32_t> corr(nrows);
    std::vector<float> dequant(nrows), bias(nrows);
    for (std::size_t r = 0; r < nrows; ++r) {
      std::int32_t sum = 0;
      for (std::size_t kk = 0; kk < lda; ++kk) sum += a[r * lda + kk];
      corr[r] = 128 * sum;
      dequant[r] = 0.001f * static_cast<float>(r + 1);
      bias[r] = 0.1f * static_cast<float>(r) - 0.2f;
    }
    std::vector<float> ref(nrows * n);
    const float* b = with_bias ? bias.data() : nullptr;
    simd::int8ref::gemm_s8u8(nrows, n, ko, a.data(), lda, bq.data(),
                             corr.data(), dequant.data(), b, ref.data(), n);
    for (const simd::Int8GemmKernel& kernel : kernels) {
      std::vector<float> got(nrows * n);
      kernel.fn(nrows, n, ko, a.data(), lda, bq.data(), corr.data(),
                dequant.data(), b, got.data(), n);
      EXPECT_EQ(
          std::memcmp(ref.data(), got.data(), nrows * n * sizeof(float)), 0)
          << kernel.name << " nrows=" << nrows << " n=" << n << " ko=" << ko;
    }
  }
}

// ------------------------------------- direct width-conv pack equality

// conv_s8u8_batched packs its oct panel straight from the quantized
// input planes. Pin it, byte for byte, to the layout's definition in
// nn/gemm.h: materialized u8 im2col columns (pad byte 128), oct-packed as
// panel[(o * np + j) * 8 + t] = cols[8o + t][j] (0 beyond k and in the pad
// columns), then the int8ref GEMM and the epilogue. Shapes exercise
// every code path: widths below the 16-column SIMD chunk (all-scalar
// pack), the paper model's 117-wide / kw=7 geometry, k not a multiple of
// 8 (partial final oct), and kw=1 (no padding taps at all).
TEST(Int8ConvTest, WidthConvPackBitIdenticalToIm2colRoute) {
  std::mt19937_64 rng(555);
  std::uniform_int_distribution<int> xd(1, 255);
  for (const auto& [batch, cin, ww, kw, rows] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                   std::size_t>{2, 3, 12, 5, 4},
        {3, 4, 117, 7, 16},
        {1, 5, 33, 3, 2},
        {2, 2, 64, 1, 3},
        {1, 1, 16, 9, 1}}) {
    const std::size_t k = cin * kw;
    const std::size_t pad_w = (kw - 1) / 2;
    const std::vector<float> w = random_vec(rows * k, 17 * ww + kw);
    const nn::QuantizedWeights q = nn::quantize_weights(w.data(), rows, k, 2.0f);
    const std::vector<float> bias = random_vec(rows, ww + 41);

    // Random quantized input planes [batch][cin][ww].
    std::vector<std::uint8_t> xq(batch * cin * ww);
    for (auto& v : xq) v = static_cast<std::uint8_t>(xd(rng));

    // Reference route: materialized u8 im2col (pad byte 128) ...
    std::vector<std::uint8_t> cols(batch * k * ww);
    for (std::size_t s = 0; s < batch; ++s)
      for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < ww; ++j) {
          const std::ptrdiff_t x = static_cast<std::ptrdiff_t>(j + kk % kw) -
                                   static_cast<std::ptrdiff_t>(pad_w);
          cols[(s * k + kk) * ww + j] =
              (x >= 0 && x < static_cast<std::ptrdiff_t>(ww))
                  ? xq[(s * cin + kk / kw) * ww + static_cast<std::size_t>(x)]
                  : std::uint8_t{128};
        }
    // ... oct-packed by the formula ...
    const std::size_t np = (ww + 7) & ~std::size_t{7};
    const std::size_t panel_stride = 8 * q.ko * np;
    const std::size_t panel_bytes = batch * panel_stride;
    std::vector<std::uint8_t> panel_ref(panel_bytes, 0);
    for (std::size_t s = 0; s < batch; ++s)
      for (std::size_t o = 0; o < q.ko; ++o)
        for (std::size_t j = 0; j < ww; ++j)
          for (std::size_t t = 0; t < 8 && 8 * o + t < k; ++t)
            panel_ref[s * panel_stride + (o * np + j) * 8 + t] =
                cols[(s * k + 8 * o + t) * ww + j];
    // ... then the reference GEMM and the fused epilogue.
    std::vector<float> c_ref(batch * rows * ww), c_got(batch * rows * ww);
    for (std::size_t s = 0; s < batch; ++s)
      simd::int8ref::gemm_s8u8(rows, ww, q.ko, q.wq.data(), 8 * q.ko,
                               panel_ref.data() + s * panel_stride,
                               q.corr.data(), q.dequant.data(), bias.data(),
                               c_ref.data() + s * rows * ww, ww);
    simd::ops().selu(c_ref.data(), c_ref.data(), c_ref.size());

    std::vector<std::uint8_t> panel_got(panel_bytes, 0x55);
    nn::conv_s8u8_batched(batch, {cin, ww, kw, pad_w}, q, xq.data(),
                          panel_got.data(), bias.data(), c_got.data(),
                          rows * ww, simd::ops().selu);
    EXPECT_EQ(std::memcmp(panel_ref.data(), panel_got.data(), panel_bytes), 0)
        << "cin=" << cin << " ww=" << ww << " kw=" << kw;
    EXPECT_EQ(std::memcmp(c_ref.data(), c_got.data(),
                          c_ref.size() * sizeof(float)),
              0)
        << "cin=" << cin << " ww=" << ww << " kw=" << kw;
  }
}

// --------------------------------------------- whole-model int8 serving

dataset::InputSpec test_spec() {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  return spec;
}

nn::Sequential build_test_model(const dataset::InputSpec& spec) {
  return core::build_deepcsi_model(
      dataset::num_input_channels(spec),
      static_cast<int>(dataset::num_input_columns(spec)), 10,
      core::quick_model_config());
}

nn::Tensor random_input(const dataset::InputSpec& spec, std::size_t n,
                        std::uint64_t seed) {
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::Tensor x({n, c, 1, w});
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = dist(rng);
  return x;
}

TEST(Int8ModelTest, CalibratedContextRunsInt8AndIsThreadCountInvariant) {
  if (!avx2_available()) GTEST_SKIP() << "avx2_int8 backend unavailable";
  BackendGuard backend_guard;
  ThreadGuard thread_guard;
  const dataset::InputSpec spec = test_spec();
  nn::Sequential graph = build_test_model(spec);
  const nn::Tensor calib_x = random_input(spec, 32, 5);
  const auto entries = nn::calibrate_input_ranges(graph, calib_x);
  ASSERT_FALSE(entries.empty());
  nn::apply_calibration(graph, entries);

  nn::SharedModel model(std::move(graph));
  const nn::Tensor x = random_input(spec, 6, 6);
  const std::size_t c = x.dim(1), w = x.dim(3);

  ASSERT_TRUE(simd::set_active(Backend::kAvx2Int8));
  std::vector<float> first;
  for (const int threads : {1, 3, 8}) {
    common::set_num_threads(threads);
    nn::InferenceContext ctx(model, {c, 1, w}, 8);
    std::memcpy(ctx.input(), x.data(), x.numel() * sizeof(float));
    const std::uint64_t before = nn::int8_kernel_dispatches();
    const tensor::ConstTensorView logits = ctx.run(6);
    // The honesty counter must move: the conv/dense layers really ran
    // the quantized drivers, not silently the fp32 path.
    EXPECT_GT(nn::int8_kernel_dispatches(), before);
    const std::vector<float> out(logits.data(),
                                 logits.data() + logits.numel());
    if (first.empty()) {
      first = out;
    } else {
      EXPECT_EQ(std::memcmp(first.data(), out.data(),
                            first.size() * sizeof(float)),
                0)
          << "threads=" << threads;
    }
  }
}

TEST(Int8ModelTest, CalibrationLeavesTheAttentionOnItsTwoFp32Slices) {
  // Calibration reaches only top-level Conv2d/Dense layers, so the conv
  // nested in the attention stays fp32 and the attention plans exactly
  // its max/mean maps and its gate weights, while the convs around it
  // gain their int8 slices.
  const dataset::InputSpec spec = test_spec();
  core::Authenticator auth = tests::quick_authenticator(spec);
  const std::vector<nn::CalibrationEntry> entries =
      auth.calibrate_int8(random_input(spec, 8, 4));
  ASSERT_FALSE(entries.empty());
  const nn::Sequential& graph = auth.model();
  tensor::StaticShape shape = {
      1, static_cast<std::size_t>(dataset::num_input_channels(spec)), 1,
      dataset::num_input_columns(spec)};
  int attentions = 0, int8_convs = 0;
  for (std::size_t i = 0; i < graph.num_layers(); ++i) {
    nn::InferencePlan plan;
    plan.in_shape = shape;
    graph.layer(i).plan_inference(plan);
    const std::string name = graph.layer(i).name();
    if (name == "conv2d" && plan.scratch_numel.size() == 2) ++int8_convs;
    if (name == "spatial_attention") {
      ++attentions;
      const std::size_t ww = shape.dim(3);
      EXPECT_EQ(plan.scratch_numel, (std::vector<std::size_t>{2 * ww, ww}));
      for (const nn::CalibrationEntry& e : entries)
        EXPECT_NE(e.layer_index, i) << "the attention was calibrated";
    }
    shape = plan.out_shape;
  }
  EXPECT_EQ(attentions, 1);
  EXPECT_EQ(int8_convs, 3);
}

TEST(Int8ModelTest, UncalibratedModelDegradesToBitIdenticalAvx2) {
  if (!avx2_available()) GTEST_SKIP() << "avx2_int8 backend unavailable";
  BackendGuard guard;
  const dataset::InputSpec spec = test_spec();
  nn::SharedModel model(build_test_model(spec));
  const nn::Tensor x = random_input(spec, 4, 9);
  const std::size_t c = x.dim(1), w = x.dim(3);

  std::vector<float> out_avx2, out_int8;
  for (const Backend backend : {Backend::kAvx2, Backend::kAvx2Int8}) {
    ASSERT_TRUE(simd::set_active(backend));
    nn::InferenceContext ctx(model, {c, 1, w}, 4);
    std::memcpy(ctx.input(), x.data(), x.numel() * sizeof(float));
    const std::uint64_t before = nn::int8_kernel_dispatches();
    const tensor::ConstTensorView logits = ctx.run(4);
    // No calibrated layers -> the int8 drivers must NOT fire.
    EXPECT_EQ(nn::int8_kernel_dispatches(), before);
    auto& dst = backend == Backend::kAvx2 ? out_avx2 : out_int8;
    dst.assign(logits.data(), logits.data() + logits.numel());
  }
  ASSERT_EQ(out_avx2.size(), out_int8.size());
  EXPECT_EQ(std::memcmp(out_avx2.data(), out_int8.data(),
                        out_avx2.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace deepcsi
