// The avx2_int8 kernel table: INT8 quantized-inference micro-kernels on
// top of the fp32 avx2 table. Like nn/simd_avx2.cc this is one of the two
// translation units compiled with -mavx2 -mfma (see DEEPCSI_ENABLE_AVX2
// in CMakeLists.txt); everything reaches it through the function-pointer
// table in nn/simd.h.
//
// The arithmetic: activations are u8 with zero point 128, weights are s8
// clamped to [-31, 31] (nn/quantize.h). _mm256_maddubs_epi16 multiplies
// u8 x s8 byte pairs into saturating i16 sums; the 31 bound keeps one
// pair sum at <= 2 * 255 * 31 = 15810, so TWO maddubs results still fit
// i16 (<= 31620 < 32767) and the kernel folds a pair of octs with one
// plain _mm256_add_epi16 before widening through _mm256_madd_epi16 —
// halving the widening traffic on the multiply ports, which is what
// pushes the GEMM past 2x the fp32 FMA peak. No saturation ever fires,
// so every integer op is EXACT. Because the dequantize step is the same
// fma / round-to-nearest-even sequence as the scalar reference
// (simd::int8ref), these kernels are BIT-IDENTICAL to the reference
// loops — pinned by tests/quantize_test.cc — which also makes them
// trivially deterministic across thread counts and chunkings.
//
// On a CPU with AVX-512 VNNI the table's conv GEMM is a second kernel
// over the same panel (see "GEMM, AVX-512 VNNI" below): vpdpbusd sums
// byte products straight into i32 without saturating, so it is exact
// without the [-31, 31] band — only the maddubs folding needs it — and
// its outputs are the same bits. The weight format stays as it is.
//
// GEMM data layout (see nn/simd.h): the activation panel is OCT-packed —
// column j of oct o holds the eight k-values 8o..8o+7 as one contiguous
// 64-bit unit at bq + (o * np + j) * 8, with np = (n + 7) & ~7 so every
// 8-column tile loads whole vectors; weight octs broadcast with a single
// vpbroadcastq. One maddubs+madd pass over a 64-bit unit leaves TWO i32
// partials per column; the epilogue folds them with one hadd+permute per
// 8 columns. Column remainders use masked stores — there is no scalar
// tail, which matters at the narrow widths the pooled conv stack reaches
// (H*W down to 14).
#include "nn/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "nn/simd_avx2_int8.cc must be compiled with -mavx2 -mfma (DEEPCSI_ENABLE_AVX2)"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace deepcsi::simd {
namespace {

// ------------------------------------------------------------ quantize

// One vector of the quantize step: clamp x * inv to [-127, 127] in the
// FLOAT domain, then convert. The float-side clamp commutes with the
// round (clamp(rne(v)) == rne(clamp(v)) for these bounds), and — unlike
// clamping the converted integers — survives |v| > 2^31, where
// cvtps_epi32 overflows to INT_MIN regardless of sign and an integer
// clamp would pin a huge POSITIVE input to -127. cvtps_epi32 rounds to
// nearest-even under the default MXCSR, the same rule as the reference
// loop's lrintf.
inline __m256i quant8(const float* p, __m256 vinv, __m256 flo, __m256 fhi,
                      __m256i zp) {
  __m256 v = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
  v = _mm256_min_ps(_mm256_max_ps(v, flo), fhi);
  return _mm256_add_epi32(_mm256_cvtps_epi32(v), zp);
}

void quantize_u8_avx2(const float* x, std::size_t n, float inv_scale,
                      std::uint8_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f), hi = _mm256_set1_ps(127.0f);
  const __m256i zp = _mm256_set1_epi32(128);
  // packus interleaves the source vectors' 128-bit lanes; this dword
  // permutation restores source order for the 32-byte store.
  const __m256i lane_fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i q0 = quant8(x + i, vinv, lo, hi, zp);
    const __m256i q1 = quant8(x + i + 8, vinv, lo, hi, zp);
    const __m256i q2 = quant8(x + i + 16, vinv, lo, hi, zp);
    const __m256i q3 = quant8(x + i + 24, vinv, lo, hi, zp);
    const __m256i p = _mm256_packus_epi16(_mm256_packus_epi32(q0, q1),
                                          _mm256_packus_epi32(q2, q3));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_permutevar8x32_epi32(p, lane_fix));
  }
  for (; i < n; ++i) {
    long q = std::lrintf(x[i] * inv_scale);
    if (q < -127) q = -127;
    if (q > 127) q = 127;
    out[i] = static_cast<std::uint8_t>(q + 128);
  }
}

// ----------------------------------------------------------------- dot

// maddubs wants the UNSIGNED operand first: maddubs(x_u8, w_s8).
inline __m256i mad32(__m256i x_u8, __m256i w_s8, __m256i ones) {
  return _mm256_madd_epi16(_mm256_maddubs_epi16(x_u8, w_s8), ones);
}

std::int32_t dot_s8u8_avx2(const std::int8_t* w, const std::uint8_t* x,
                           std::size_t k) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t kk = 0;
  for (; kk + 64 <= k; kk += 64) {
    // Two 32-byte blocks folded in i16 (exact under the |w| <= 31
    // bound) before one widening madd.
    const __m256i m = _mm256_add_epi16(
        _mm256_maddubs_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + kk)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + kk))),
        _mm256_maddubs_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + kk + 32)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + kk + 32))));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(m, ones));
  }
  for (; kk + 32 <= k; kk += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + kk));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + kk));
    acc = _mm256_add_epi32(acc, mad32(xv, wv, ones));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  std::int32_t total = _mm_cvtsi128_si32(s);
  for (; kk < k; kk += 4)  // k % 4 == 0 by contract
    total += static_cast<std::int32_t>(w[kk]) * x[kk] +
             static_cast<std::int32_t>(w[kk + 1]) * x[kk + 1] +
             static_cast<std::int32_t>(w[kk + 2]) * x[kk + 2] +
             static_cast<std::int32_t>(w[kk + 3]) * x[kk + 3];
  return total;
}

// ---------------------------------------------------------------- GEMM

// Broadcast one weight oct (8 consecutive s8 bytes) to every 64-bit
// unit. memcpy keeps the unaligned 8-byte read strict-aliasing clean;
// compiles to a single vpbroadcastq from memory.
inline __m256i bcast8(const std::int8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return _mm256_set1_epi64x(v);
}

// An oct-packed accumulator holds TWO i32 partials per column:
// acc0 = [c0a c0b c1a c1b | c2a c2b c3a c3b] for columns j..j+3 and
// acc1 likewise for j+4..j+7. hadd pairs them per 128-bit lane into
// [c0 c1 c4 c5 | c2 c3 c6 c7]; the qword permute restores column order.
inline __m256i fold_cols8(__m256i acc0, __m256i acc1) {
  return _mm256_permute4x64_epi64(_mm256_hadd_epi32(acc0, acc1), 0xD8);
}

// Dequantize-and-store one row's 8-column tile: the exact float
// sequence of the reference (int -> float is RNE, fmadd == fmaf).
// rem < 8 stores only the first rem lanes (column remainder) — the
// dead-lane values come from the panel's zero pad columns and are
// discarded here.
inline void store_deq_cols(float* c, __m256i acc0, __m256i acc1,
                           std::int32_t corr, float dq, float b,
                           std::size_t rem) {
  const __m256i sums = fold_cols8(acc0, acc1);
  const __m256 f =
      _mm256_cvtepi32_ps(_mm256_sub_epi32(sums, _mm256_set1_epi32(corr)));
  const __m256 y =
      _mm256_fmadd_ps(f, _mm256_set1_ps(dq), _mm256_set1_ps(b));
  if (rem >= 8) {
    _mm256_storeu_ps(c, y);
    return;
  }
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  _mm256_maskstore_ps(c, mask, y);
}

// Four C rows x 8 columns, two octs (16 k-values) per inner step: four
// panel vectors are shared by all four rows' maddubs pairs — 8
// accumulators + 4 panel vectors + 2 weight broadcasts + ones stay in
// registers with room to spare. noinline is load-bearing: inlined into
// the caller's row loop, gcc keeps the outer induction state live and
// spills accumulators to the stack inside the oct loop (measured ~25%
// slower at the paper conv shapes).
__attribute__((noinline)) void rows4_s8(std::size_t n, std::size_t np,
                                        std::size_t ko,
                     const std::int8_t* a0, const std::int8_t* a1,
                     const std::int8_t* a2, const std::int8_t* a3,
                     const std::uint8_t* bq, const std::int32_t* corr,
                     const float* dq, const float* bias, float* c0, float* c1,
                     float* c2, float* c3) {
  const __m256i ones = _mm256_set1_epi16(1);
  const float b0 = bias != nullptr ? bias[0] : 0.0f;
  const float b1 = bias != nullptr ? bias[1] : 0.0f;
  const float b2 = bias != nullptr ? bias[2] : 0.0f;
  const float b3 = bias != nullptr ? bias[3] : 0.0f;
  for (std::size_t j = 0; j < n; j += 8) {
    __m256i p00 = _mm256_setzero_si256(), p01 = _mm256_setzero_si256();
    __m256i p10 = _mm256_setzero_si256(), p11 = _mm256_setzero_si256();
    __m256i p20 = _mm256_setzero_si256(), p21 = _mm256_setzero_si256();
    __m256i p30 = _mm256_setzero_si256(), p31 = _mm256_setzero_si256();
    std::size_t o = 0;
    for (; o + 2 <= ko; o += 2) {
      const std::uint8_t* bp0 = bq + (o * np + j) * 8;
      const std::uint8_t* bp1 = bq + ((o + 1) * np + j) * 8;
      const __m256i v00 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0));
      const __m256i v01 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0 + 32));
      const __m256i v10 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp1));
      const __m256i v11 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp1 + 32));
      __m256i w0 = bcast8(a0 + o * 8), w1 = bcast8(a0 + o * 8 + 8);
      __m256i m0 = _mm256_add_epi16(_mm256_maddubs_epi16(v00, w0),
                                    _mm256_maddubs_epi16(v10, w1));
      __m256i m1 = _mm256_add_epi16(_mm256_maddubs_epi16(v01, w0),
                                    _mm256_maddubs_epi16(v11, w1));
      p00 = _mm256_add_epi32(p00, _mm256_madd_epi16(m0, ones));
      p01 = _mm256_add_epi32(p01, _mm256_madd_epi16(m1, ones));
      w0 = bcast8(a1 + o * 8), w1 = bcast8(a1 + o * 8 + 8);
      m0 = _mm256_add_epi16(_mm256_maddubs_epi16(v00, w0),
                            _mm256_maddubs_epi16(v10, w1));
      m1 = _mm256_add_epi16(_mm256_maddubs_epi16(v01, w0),
                            _mm256_maddubs_epi16(v11, w1));
      p10 = _mm256_add_epi32(p10, _mm256_madd_epi16(m0, ones));
      p11 = _mm256_add_epi32(p11, _mm256_madd_epi16(m1, ones));
      w0 = bcast8(a2 + o * 8), w1 = bcast8(a2 + o * 8 + 8);
      m0 = _mm256_add_epi16(_mm256_maddubs_epi16(v00, w0),
                            _mm256_maddubs_epi16(v10, w1));
      m1 = _mm256_add_epi16(_mm256_maddubs_epi16(v01, w0),
                            _mm256_maddubs_epi16(v11, w1));
      p20 = _mm256_add_epi32(p20, _mm256_madd_epi16(m0, ones));
      p21 = _mm256_add_epi32(p21, _mm256_madd_epi16(m1, ones));
      w0 = bcast8(a3 + o * 8), w1 = bcast8(a3 + o * 8 + 8);
      m0 = _mm256_add_epi16(_mm256_maddubs_epi16(v00, w0),
                            _mm256_maddubs_epi16(v10, w1));
      m1 = _mm256_add_epi16(_mm256_maddubs_epi16(v01, w0),
                            _mm256_maddubs_epi16(v11, w1));
      p30 = _mm256_add_epi32(p30, _mm256_madd_epi16(m0, ones));
      p31 = _mm256_add_epi32(p31, _mm256_madd_epi16(m1, ones));
    }
    if (o < ko) {  // odd final oct
      const std::uint8_t* bp0 = bq + (o * np + j) * 8;
      const __m256i v00 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0));
      const __m256i v01 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0 + 32));
      __m256i w0 = bcast8(a0 + o * 8);
      p00 = _mm256_add_epi32(p00, mad32(v00, w0, ones));
      p01 = _mm256_add_epi32(p01, mad32(v01, w0, ones));
      w0 = bcast8(a1 + o * 8);
      p10 = _mm256_add_epi32(p10, mad32(v00, w0, ones));
      p11 = _mm256_add_epi32(p11, mad32(v01, w0, ones));
      w0 = bcast8(a2 + o * 8);
      p20 = _mm256_add_epi32(p20, mad32(v00, w0, ones));
      p21 = _mm256_add_epi32(p21, mad32(v01, w0, ones));
      w0 = bcast8(a3 + o * 8);
      p30 = _mm256_add_epi32(p30, mad32(v00, w0, ones));
      p31 = _mm256_add_epi32(p31, mad32(v01, w0, ones));
    }
    const std::size_t rem = n - j;
    store_deq_cols(c0 + j, p00, p01, corr[0], dq[0], b0, rem);
    store_deq_cols(c1 + j, p10, p11, corr[1], dq[1], b1, rem);
    store_deq_cols(c2 + j, p20, p21, corr[2], dq[2], b2, rem);
    store_deq_cols(c3 + j, p30, p31, corr[3], dq[3], b3, rem);
  }
}

__attribute__((noinline)) void rows1_s8(std::size_t n, std::size_t np,
                                        std::size_t ko,
                     const std::int8_t* a0, const std::uint8_t* bq,
                     std::int32_t corr, float dq, float b0, float* c0) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t j = 0; j < n; j += 8) {
    __m256i p0 = _mm256_setzero_si256(), p1 = _mm256_setzero_si256();
    std::size_t o = 0;
    for (; o + 2 <= ko; o += 2) {
      const std::uint8_t* bp0 = bq + (o * np + j) * 8;
      const std::uint8_t* bp1 = bq + ((o + 1) * np + j) * 8;
      const __m256i w0 = bcast8(a0 + o * 8), w1 = bcast8(a0 + o * 8 + 8);
      const __m256i m0 = _mm256_add_epi16(
          _mm256_maddubs_epi16(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0)), w0),
          _mm256_maddubs_epi16(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp1)), w1));
      const __m256i m1 = _mm256_add_epi16(
          _mm256_maddubs_epi16(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0 + 32)),
              w0),
          _mm256_maddubs_epi16(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp1 + 32)),
              w1));
      p0 = _mm256_add_epi32(p0, _mm256_madd_epi16(m0, ones));
      p1 = _mm256_add_epi32(p1, _mm256_madd_epi16(m1, ones));
    }
    if (o < ko) {
      const std::uint8_t* bp0 = bq + (o * np + j) * 8;
      const __m256i w0 = bcast8(a0 + o * 8);
      p0 = _mm256_add_epi32(
          p0,
          mad32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0)), w0,
                ones));
      p1 = _mm256_add_epi32(
          p1,
          mad32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp0 + 32)),
                w0, ones));
    }
    store_deq_cols(c0 + j, p0, p1, corr, dq, b0, n - j);
  }
}

void gemm_s8u8_avx2(std::size_t nrows, std::size_t n, std::size_t ko,
                    const std::int8_t* a, std::size_t lda,
                    const std::uint8_t* bq, const std::int32_t* corr,
                    const float* dequant, const float* bias, float* c,
                    std::size_t ldc) {
  const std::size_t np = (n + 7) & ~std::size_t{7};
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4)
    rows4_s8(n, np, ko, a + r * lda, a + (r + 1) * lda, a + (r + 2) * lda,
             a + (r + 3) * lda, bq, corr + r, dequant + r,
             bias != nullptr ? bias + r : nullptr, c + r * ldc,
             c + (r + 1) * ldc, c + (r + 2) * ldc, c + (r + 3) * ldc);
  for (; r < nrows; ++r)
    rows1_s8(n, np, ko, a + r * lda, bq, corr[r], dequant[r],
             bias != nullptr ? bias[r] : 0.0f, c + r * ldc);
}

// ------------------------------------------------ GEMM, AVX-512 VNNI
//
// The same oct panel read 512 bits at a time: one 64-byte load is
// exactly eight columns x one oct, and vpdpbusd sums each column's u8 x
// s8 byte quads straight into i32 lanes (no i16 stage, so no weight
// band). Each column lands as two i32 partials (k 0-3 and 4-7 of every
// oct), folded once per tile in the epilogue. Compiled for AVX-512 by
// the target pragma below, not by a per-file flag (so every build that
// compiles this TU with -mavx2 -mfma gets it), and reached only when
// the CPU reports the ISA (cpu_supports_avx512_vnni; libgcc also checks
// that the OS saves zmm state). The _mm512_maskz_* conversion with a
// full mask stands in for the unmasked form, whose _mm512_undefined_*
// operand trips gcc 12's -Wuninitialized inside a target region at -O2.

bool cpu_supports_avx512_vnni() {
  return __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512bw");
}

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vnni")

// acc += per-lane sums of four u8 (x) x s8 (w) byte products, i32 and
// wrapping, i.e. _mm512_dpbusd_epi32. Written as asm because gcc 12
// copies the intrinsic's accumulator through a spare register on every
// call, putting a move on each loop-carried chain (measured about 35%
// slower at the paper conv shapes); the tied "+v" operand keeps each
// accumulator in one register across the oct loop.
inline __m512i dpbusd(__m512i acc, __m512i x, __m512i w) {
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(x), "v"(w));
  return acc;
}

inline __m512i bcast8_512(const std::int8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return _mm512_set1_epi64(v);
}

// Dequantize-and-store one row's 16-column tile: acc0 holds columns
// j..j+7 and acc1 columns j+8..j+15, two i32 partials per column. The
// two-source permutes gather the first and the second partials into
// column order; then the reference's float sequence, as in
// store_deq_cols. rem < 16 stores only the first rem lanes.
inline void store_deq_cols16(float* c, __m512i acc0, __m512i acc1,
                             std::int32_t corr, float dq, float b,
                             std::size_t rem) {
  const __m512i first = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                          20, 22, 24, 26, 28, 30);
  const __m512i second = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17,
                                           19, 21, 23, 25, 27, 29, 31);
  const __m512i sums =
      _mm512_add_epi32(_mm512_permutex2var_epi32(acc0, first, acc1),
                       _mm512_permutex2var_epi32(acc0, second, acc1));
  const __m512 f = _mm512_maskz_cvtepi32_ps(
      0xFFFF, _mm512_sub_epi32(sums, _mm512_set1_epi32(corr)));
  const __m512 y = _mm512_fmadd_ps(f, _mm512_set1_ps(dq), _mm512_set1_ps(b));
  const __mmask16 mask =
      rem >= 16 ? __mmask16{0xFFFF}
                : static_cast<__mmask16>((1u << rem) - 1);
  _mm512_mask_storeu_ps(c, mask, y);
}

// kRows C rows x 16 columns (kWide) or 8 columns from column j: per
// oct, one or two panel lines shared by every row and one weight-oct
// broadcast per row. The 4-row wide tile keeps eight accumulators. The
// 8-column form is the tail when np is not a multiple of 16; its acc1
// stays zero and its lanes are never stored.
template <std::size_t kRows, bool kWide>
__attribute__((always_inline)) inline void tile_vnni(
    std::size_t n, std::size_t j, std::size_t np, std::size_t ko,
    const std::int8_t* a, std::size_t lda, const std::uint8_t* bq,
    const std::int32_t* corr, const float* dq, const float* bias, float* c,
    std::size_t ldc) {
  __m512i acc0[kRows], acc1[kRows];
  for (std::size_t r = 0; r < kRows; ++r)
    acc0[r] = acc1[r] = _mm512_setzero_si512();
  for (std::size_t o = 0; o < ko; ++o) {
    const std::uint8_t* bp = bq + (o * np + j) * 8;
    const __m512i v0 = _mm512_loadu_si512(bp);
    __m512i v1 = _mm512_setzero_si512();
    if constexpr (kWide) v1 = _mm512_loadu_si512(bp + 64);
    for (std::size_t r = 0; r < kRows; ++r) {
      const __m512i w = bcast8_512(a + r * lda + o * 8);
      acc0[r] = dpbusd(acc0[r], v0, w);
      if constexpr (kWide) acc1[r] = dpbusd(acc1[r], v1, w);
    }
  }
  for (std::size_t r = 0; r < kRows; ++r)
    store_deq_cols16(c + r * ldc + j, acc0[r], acc1[r], corr[r], dq[r],
                     bias != nullptr ? bias[r] : 0.0f, n - j);
}

// kRows (4, or 1 for the rows a 4-row block leaves over and the
// attention conv's single filter) C rows across all n columns:
// 16-column tiles while they fit in the np-wide panel, then at most one
// 8-column tail. noinline for the reason rows4_s8 gives.
template <std::size_t kRows>
__attribute__((noinline)) void rows_vnni(
    std::size_t n, std::size_t np, std::size_t ko, const std::int8_t* a,
    std::size_t lda, const std::uint8_t* bq, const std::int32_t* corr,
    const float* dq, const float* bias, float* c, std::size_t ldc) {
  std::size_t j = 0;
  for (; j + 16 <= np; j += 16)
    tile_vnni<kRows, true>(n, j, np, ko, a, lda, bq, corr, dq, bias, c, ldc);
  if (j < n)
    tile_vnni<kRows, false>(n, j, np, ko, a, lda, bq, corr, dq, bias, c, ldc);
}

void gemm_s8u8_avx512_vnni(std::size_t nrows, std::size_t n, std::size_t ko,
                           const std::int8_t* a, std::size_t lda,
                           const std::uint8_t* bq, const std::int32_t* corr,
                           const float* dequant, const float* bias, float* c,
                           std::size_t ldc) {
  const std::size_t np = (n + 7) & ~std::size_t{7};
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4)
    rows_vnni<4>(n, np, ko, a + r * lda, lda, bq, corr + r, dequant + r,
                 bias != nullptr ? bias + r : nullptr, c + r * ldc, ldc);
  for (; r < nrows; ++r)
    rows_vnni<1>(n, np, ko, a + r * lda, lda, bq, corr + r, dequant + r,
                 bias != nullptr ? bias + r : nullptr, c + r * ldc, ldc);
}

#pragma GCC pop_options

}  // namespace

// Defined in nn/simd_avx2.cc; both TUs are -mavx2 -mfma.
const SimdOps* avx2_ops();

// The kAvx2Int8 table: the fp32 avx2 kernels (SELU epilogues, the
// non-quantized layers, the feedback codec) with the live int8 kernels
// swapped in — the conv GEMM being the AVX-512 VNNI kernel on a CPU
// that has it. Looked up by the dispatcher in nn/simd.cc (only under
// DEEPCSI_HAVE_AVX2).
const SimdOps* avx2_int8_ops() {
  static const SimdOps table = [] {
    SimdOps t = *avx2_ops();
    t.id = Backend::kAvx2Int8;
    t.quantize_u8 = quantize_u8_avx2;
    t.dot_s8u8 = dot_s8u8_avx2;
    t.gemm_s8u8 = cpu_supports_avx512_vnni() ? gemm_s8u8_avx512_vnni
                                             : gemm_s8u8_avx2;
    return t;
  }();
  return &table;
}

// The entries of simd::int8_gemm_kernels() (nn/simd.cc) on an AVX2
// host, the avx2_int8 table's pick last.
void append_avx2_int8_gemm_kernels(std::vector<Int8GemmKernel>& out) {
  out.push_back({"avx2_maddubs", gemm_s8u8_avx2});
  if (cpu_supports_avx512_vnni())
    out.push_back({"avx512_vnni", gemm_s8u8_avx512_vnni});
}

}  // namespace deepcsi::simd
