// Runtime-dispatched SIMD kernel backend for every scalar hot loop in the
// pipeline: the GEMM micro-kernel tiles (nn/gemm.cc), the SELU activation
// and its gradient (nn/activations.cc), the max pool (nn/pool.cc), and the
// complex-double rotation kernels behind the feedback codec
// (linalg/cmat.cc).
//
// Three backends exist:
//
//   * kScalar   — the pre-SIMD C++ loops, bit-for-bit identical to the
//     code they were lifted from. Always available.
//   * kAvx2     — 8-wide FMA register tiles (float) and 2-complex-wide
//     __m256d kernels (double), compiled into ONE translation unit
//     (nn/simd_avx2.cc) with -mavx2 -mfma so the rest of the binary keeps
//     the baseline ISA and still runs on non-AVX2 hosts. Present only
//     when CMake's DEEPCSI_ENABLE_AVX2 is ON and the target is x86.
//   * kAvx2Int8 — the avx2 table plus active INT8 inference kernels
//     (nn/simd_avx2_int8.cc, same -mavx2 -mfma single-TU rule):
//     per-output-row symmetric int8 weights x per-tensor u8 activations
//     via _mm256_maddubs_epi16/_mm256_madd_epi16 dot products accumulated
//     in int32. On a CPU with AVX-512 VNNI the conv GEMM entry is a
//     512-bit vpdpbusd kernel instead (see int8_gemm_kernels); the bits
//     are the same. Conv2d/Dense run quantized ONLY when this backend
//     is active AND the layer holds calibrated int8 weights (see
//     nn/quantize.h); uncalibrated models degrade gracefully to the
//     fp32 avx2 kernels. Same availability condition as kAvx2.
//
// Selection happens once, at first use: the DEEPCSI_SIMD environment
// variable ("avx2", "avx2_int8" or "scalar") overrides; otherwise CPUID
// picks avx2 when the host supports AVX2+FMA and the backend was compiled
// in (int8 stays opt-in). An unknown DEEPCSI_SIMD value, or an explicit
// avx2/avx2_int8 request the host cannot honor, is a usage error: the
// process exits with code 2 instead of silently falling back (a
// silently-wrong backend would invalidate every benchmark row that claims
// to measure it). Tests and benches switch backends at runtime with
// set_active().
//
// Determinism contract (mirrors the parallel_for contract in
// common/parallel.h): WITHIN a backend every kernel accumulates each
// output element in a fixed order that depends only on the problem shape
// — never on thread count, chunk boundaries, row-block grouping, or batch
// packing — so whole-pipeline outputs are bit-identical across
// DEEPCSI_THREADS, batch chunking, and consumer counts. ACROSS backends
// results differ by FMA/vector-polynomial rounding; classify verdicts
// must still agree, and activations agree within the tolerances pinned by
// tests/simd_kernel_test.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepcsi::simd {

enum class Backend { kScalar = 0, kAvx2 = 1, kAvx2Int8 = 2 };

// The kernel table one backend exports. All pointers are non-null.
struct SimdOps {
  Backend id;

  // One k-tile of a GEMM row block:
  //   C[r][j] += sum_{kk=k0}^{k1-1} A(r, kk) * B[kk - k0][j]
  // for r in [0, nrows), j in [0, n), where A(r, kk) =
  // a[r * a_row_step + kk * a_k_stride] (covers both the NN layout,
  // row_step = K / k_stride = 1, and the TN layout, row_step = 1 /
  // k_stride = M), B tile row kk at bt + (kk - k0) * ldb, and C row r at
  // c + r * ldc. Every element must accumulate exactly one (fused or
  // separate) multiply-add per kk, in ascending kk, with a per-element
  // instruction sequence that depends only on (n, k0, k1) — that is what
  // keeps results independent of how callers group rows into tiles.
  void (*gemm_tile)(std::size_t nrows, std::size_t n, std::size_t k0,
                    std::size_t k1, const float* a, std::size_t a_row_step,
                    std::size_t a_k_stride, const float* bt, std::size_t ldb,
                    float* c, std::size_t ldc);

  // Dot product over k with a fixed lane-reduction order (reassociates
  // relative to a naive loop, but deterministically for a given k).
  float (*dot)(const float* a, const float* b, std::size_t k);

  // Elementwise SELU, y[i] = selu(x[i]); in-place (y == x) is allowed.
  // Pure per-element function of the input value — lane position, vector
  // width and masked tails must not change any element's result, so the
  // fused conv epilogue, the standalone layer, and any parallel_for
  // chunking all produce bitwise-equal activations.
  void (*selu)(const float* x, float* y, std::size_t n);

  // SELU backward from the forward OUTPUT y (not the input):
  //   dx[i] = g[i] * (y[i] > 0 ? lambda : y[i] + lambda * alpha)
  // For x <= 0, lambda*alpha*exp(x) == y + lambda*alpha in real
  // arithmetic, so no exp is evaluated; in float the factor differs from
  // lambda*alpha*exp(x) by the forward's rounding of y plus one rounding
  // of the add (at most about one ulp of lambda*alpha, ~1.2e-7). Every
  // backend evaluates the same add, select and multiply with one
  // rounding each, so results are bit-identical ACROSS backends (not
  // merely within one), for full vectors and masked tails alike.
  // In-place (dx == g) is allowed.
  void (*selu_grad)(const float* y, const float* g, float* dx, std::size_t n);

  // The (1, 2) max pool (nn/pool.h) over one row: out[j] =
  // max(x[2j], x[2j+1]) for j in [0, ow), comparing strictly-greater
  // against a -3.4e38f floor. The avx2 form agrees with the scalar loop
  // on every finite input short of a (-0.0, +0.0) tie — unreachable
  // here, pools only ever see SELU outputs, which never produce -0.0.
  void (*max_pool_1x2)(const float* x, float* out, std::size_t ow);

  // Complex-double row kernels for the feedback codec's V-matrix
  // reconstruction (reconstruct_v_into / reconstruct_v_codes). Rows are
  // interleaved re/im storage (std::complex<double> layout), `cols`
  // complex elements long.
  //
  // Plane rotation from the left: ra' = c*ra + s*rb, rb' = -s*ra + c*rb.
  void (*givens_left)(double* ra, double* rb, std::size_t cols, double c,
                      double s);
  // row[j] *= (fre + i*fim) for j in [0, cols).
  void (*scale_row_polar)(double* row, std::size_t cols, double fre,
                          double fim);

  // ------------------------------------------------ INT8 inference kernels
  //
  // Active implementations live on the kAvx2Int8 table; the scalar and
  // avx2 tables carry the int8ref reference loops below so every pointer
  // stays non-null and tests can pin the SIMD kernels against them. All
  // integer arithmetic is exact, and the dequantize step is one fixed
  // fma(float(acc - corr), dequant, bias) per element, so — unlike the
  // fp32 kernels — int8 results are required to be BIT-IDENTICAL across
  // every implementation, not merely within one backend.

  // out[i] = clamp(round_to_nearest_even(x[i] * inv_scale), -127, 127)
  //          + 128, i.e. u8 with zero point 128 (0.0f always maps to 128,
  //          which is also the conv zero-padding byte).
  void (*quantize_u8)(const float* x, std::size_t n, float inv_scale,
                      std::uint8_t* out);

  // i32 dot of an s8 weight row and a u8 activation row over k (k % 4 ==
  // 0; callers pad). Weights must satisfy |w| <= 31 (nn/quantize.h) so
  // the avx2 kernel can fold TWO _mm256_maddubs_epi16 results (each i16
  // lane <= 2 * 255 * 31 = 15810) into a plain i16 add without
  // saturating — every integer op stays exact and the result identical
  // to the plain integer loop.
  std::int32_t (*dot_s8u8)(const std::int8_t* w, const std::uint8_t* x,
                           std::size_t k);

  // `nrows` C rows of the quantized conv GEMM over an OCT-packed u8
  // panel. With np = (n + 7) & ~7 (panel columns padded to a multiple of
  // 8; pad columns hold zero bytes and are never stored) and ko octs of
  // 8 k-values (zero byte beyond k), for r in [0, nrows), j in [0, n):
  //   acc = sum_{o < ko} sum_{t < 8} a[r*lda + 8o+t] * bq[(o*np + j)*8 + t]
  //   c[r*ldc + j] = fma(float(acc - corr[r]), dequant[r],
  //                      bias ? bias[r] : 0.0f)
  // The panel interleaves eight consecutive k rows per column so one
  // 64-bit unit is one column's oct: the avx2 kernel's two-maddubs i16
  // accumulation consumes it, and eight columns make the one 64-byte
  // line the AVX-512 VNNI kernel loads. Weight rows are plain row-major
  // s8, zero-padded to lda = 8 * ko. Same |w| <= 31 no-saturation
  // contract as dot_s8u8 — that is what makes the maddubs kernel's i16
  // folding exact and its output bit-identical to int8ref. The VNNI
  // kernel (vpdpbusd, i32 sums, no saturation) is exact without the
  // band and keeps the same format.
  void (*gemm_s8u8)(std::size_t nrows, std::size_t n, std::size_t ko,
                    const std::int8_t* a, std::size_t lda,
                    const std::uint8_t* bq, const std::int32_t* corr,
                    const float* dequant, const float* bias, float* c,
                    std::size_t ldc);
};

// Scalar reference implementations of the int8 kernels (plain integer
// loops at the baseline ISA). They define the required bit pattern: the
// avx2_int8 kernels must agree exactly, and tests/quantize_test.cc pins
// that. These back the int8 entries of the scalar and avx2 tables.
namespace int8ref {
void quantize_u8(const float* x, std::size_t n, float inv_scale,
                 std::uint8_t* out);
std::int32_t dot_s8u8(const std::int8_t* w, const std::uint8_t* x,
                      std::size_t k);
void gemm_s8u8(std::size_t nrows, std::size_t n, std::size_t ko,
               const std::int8_t* a, std::size_t lda, const std::uint8_t* bq,
               const std::int32_t* corr, const float* dequant,
               const float* bias, float* c, std::size_t ldc);
}  // namespace int8ref

// One optimized gemm_s8u8 implementation and its name.
struct Int8GemmKernel {
  const char* name;  // "avx2_maddubs" or "avx512_vnni"
  decltype(SimdOps::gemm_s8u8) fn;
};

// Every optimized gemm_s8u8 this build and host can run: the avx2
// maddubs kernel when the avx2 backend is available, then the AVX-512
// VNNI kernel when the CPU also reports AVX-512 VNNI and BW. The
// avx2_int8 table uses the last entry. Tests pin each one against
// int8ref, not only the table's pick; empty on hosts without AVX2.
std::vector<Int8GemmKernel> int8_gemm_kernels();

// True when the running CPU reports AVX2 and FMA.
bool cpu_supports_avx2();

// True when the avx2 backend was compiled into this binary
// (DEEPCSI_ENABLE_AVX2 on an x86 target).
bool compiled_with_avx2();

// Parses a DEEPCSI_SIMD override. nullptr or "" selects the default
// (avx2 when compiled in and the CPU supports it, else scalar). Any name
// from backend_names() selects explicitly. Anything else — including
// "avx2"/"avx2_int8" when the backend is compiled out or the CPU lacks
// the ISA — prints a usage message and exits with code 2. Exposed so the
// death tests can exercise the error paths directly.
Backend resolve_backend(const char* env_value);

// The active backend. First call resolves DEEPCSI_SIMD (see above).
Backend active();

// Switch backends at runtime (tests and benches). Returns false — and
// leaves the active backend unchanged — when the requested backend is
// unavailable on this host/build. Not safe to call while kernels are
// running on other threads; callers quiesce first, exactly like
// common::set_num_threads.
bool set_active(Backend b);

// Human-readable backend name ("scalar" / "avx2" / "avx2_int8").
const char* name(Backend b);

// Every backend name this build knows — available on this host or not —
// in canonical order. One table in nn/simd.cc drives this list, name(),
// resolve_backend()'s matching AND its error text, so adding a backend
// cannot desync the usage message from the parser.
std::vector<const char*> backend_names();

// Every backend this host can actually run: scalar always, the avx2
// variants when the backend was compiled in and the CPU reports the ISA.
// Benches and tests loop over this so their coverage tracks the
// build/host automatically. Scalar is always first (bench sweeps print
// speedups relative to it).
std::vector<Backend> available_backends();

// The active backend's kernel table. Callers that dispatch many times in
// a loop should hoist the reference out of the loop.
const SimdOps& ops();

}  // namespace deepcsi::simd
