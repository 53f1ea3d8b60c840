// The avx2 kernel table: 8-wide FMA register tiles for the float GEMM /
// SELU / SELU-gradient hot loops and 2-complex-wide __m256d kernels for
// the feedback rotation math. This is the ONLY translation unit compiled
// with -mavx2 -mfma (see DEEPCSI_ENABLE_AVX2 in CMakeLists.txt);
// everything reaches it through the function-pointer table in nn/simd.h,
// so the binary keeps the baseline ISA everywhere else and still runs on
// non-AVX2 hosts.
//
// Determinism inside this backend: every output element is accumulated
// with exactly one FMA per k index, ascending k, and every elementwise
// function applies a lane-position-independent instruction sequence
// (masked tails run the SAME vector ops as full lanes), so outputs do not
// depend on thread count, chunk boundaries, row grouping, or where an
// element lands relative to a vector boundary.
#include "nn/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "nn/simd_avx2.cc must be compiled with -mavx2 -mfma (DEEPCSI_ENABLE_AVX2)"
#endif

#include <immintrin.h>

#include <cmath>

#include "nn/activations.h"

namespace deepcsi::simd {
namespace {

// Lane mask for the final partial vector: lanes [0, rem) active.
inline __m256i tail_mask8(std::size_t rem) {
  alignas(32) static constexpr int kIdx[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(rem)),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kIdx)));
}

// ------------------------------------------------------------ GEMM tiles

// Four C rows x 24/16/8 columns of FMA accumulators per step: each B
// load feeds four row chains and each A broadcast feeds up to three
// column vectors (the 4x24 tile uses 12 accumulators + 3 B vectors —
// exactly the 16 ymm registers — and is FMA-port-bound rather than
// load-bound), and each C element receives one vfmadd per kk, ascending.
inline void rows4_avx2(std::size_t n, std::size_t k0, std::size_t k1,
                       const float* a0, const float* a1, const float* a2,
                       const float* a3, std::size_t a_k, const float* bt,
                       std::size_t ldb, float* c0, float* c1, float* c2,
                       float* c3) {
  std::size_t j = 0;
  for (; j + 24 <= n; j += 24) {
    __m256 c00 = _mm256_loadu_ps(c0 + j);
    __m256 c01 = _mm256_loadu_ps(c0 + j + 8);
    __m256 c02 = _mm256_loadu_ps(c0 + j + 16);
    __m256 c10 = _mm256_loadu_ps(c1 + j);
    __m256 c11 = _mm256_loadu_ps(c1 + j + 8);
    __m256 c12 = _mm256_loadu_ps(c1 + j + 16);
    __m256 c20 = _mm256_loadu_ps(c2 + j);
    __m256 c21 = _mm256_loadu_ps(c2 + j + 8);
    __m256 c22 = _mm256_loadu_ps(c2 + j + 16);
    __m256 c30 = _mm256_loadu_ps(c3 + j);
    __m256 c31 = _mm256_loadu_ps(c3 + j + 8);
    __m256 c32 = _mm256_loadu_ps(c3 + j + 16);
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const float* b_row = bt + (kk - k0) * ldb + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      const __m256 b2 = _mm256_loadu_ps(b_row + 16);
      const std::size_t ak = kk * a_k;
      __m256 av = _mm256_broadcast_ss(a0 + ak);
      c00 = _mm256_fmadd_ps(av, b0, c00);
      c01 = _mm256_fmadd_ps(av, b1, c01);
      c02 = _mm256_fmadd_ps(av, b2, c02);
      av = _mm256_broadcast_ss(a1 + ak);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
      c12 = _mm256_fmadd_ps(av, b2, c12);
      av = _mm256_broadcast_ss(a2 + ak);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
      c22 = _mm256_fmadd_ps(av, b2, c22);
      av = _mm256_broadcast_ss(a3 + ak);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
      c32 = _mm256_fmadd_ps(av, b2, c32);
    }
    _mm256_storeu_ps(c0 + j, c00);
    _mm256_storeu_ps(c0 + j + 8, c01);
    _mm256_storeu_ps(c0 + j + 16, c02);
    _mm256_storeu_ps(c1 + j, c10);
    _mm256_storeu_ps(c1 + j + 8, c11);
    _mm256_storeu_ps(c1 + j + 16, c12);
    _mm256_storeu_ps(c2 + j, c20);
    _mm256_storeu_ps(c2 + j + 8, c21);
    _mm256_storeu_ps(c2 + j + 16, c22);
    _mm256_storeu_ps(c3 + j, c30);
    _mm256_storeu_ps(c3 + j + 8, c31);
    _mm256_storeu_ps(c3 + j + 16, c32);
  }
  for (; j + 16 <= n; j += 16) {
    __m256 c00 = _mm256_loadu_ps(c0 + j), c01 = _mm256_loadu_ps(c0 + j + 8);
    __m256 c10 = _mm256_loadu_ps(c1 + j), c11 = _mm256_loadu_ps(c1 + j + 8);
    __m256 c20 = _mm256_loadu_ps(c2 + j), c21 = _mm256_loadu_ps(c2 + j + 8);
    __m256 c30 = _mm256_loadu_ps(c3 + j), c31 = _mm256_loadu_ps(c3 + j + 8);
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const float* b_row = bt + (kk - k0) * ldb + j;
      const __m256 b0 = _mm256_loadu_ps(b_row);
      const __m256 b1 = _mm256_loadu_ps(b_row + 8);
      const std::size_t ak = kk * a_k;
      __m256 av = _mm256_broadcast_ss(a0 + ak);
      c00 = _mm256_fmadd_ps(av, b0, c00);
      c01 = _mm256_fmadd_ps(av, b1, c01);
      av = _mm256_broadcast_ss(a1 + ak);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
      av = _mm256_broadcast_ss(a2 + ak);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
      av = _mm256_broadcast_ss(a3 + ak);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    _mm256_storeu_ps(c0 + j, c00);
    _mm256_storeu_ps(c0 + j + 8, c01);
    _mm256_storeu_ps(c1 + j, c10);
    _mm256_storeu_ps(c1 + j + 8, c11);
    _mm256_storeu_ps(c2 + j, c20);
    _mm256_storeu_ps(c2 + j + 8, c21);
    _mm256_storeu_ps(c3 + j, c30);
    _mm256_storeu_ps(c3 + j + 8, c31);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 v0 = _mm256_loadu_ps(c0 + j), v1 = _mm256_loadu_ps(c1 + j);
    __m256 v2 = _mm256_loadu_ps(c2 + j), v3 = _mm256_loadu_ps(c3 + j);
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const __m256 bv = _mm256_loadu_ps(bt + (kk - k0) * ldb + j);
      const std::size_t ak = kk * a_k;
      v0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + ak), bv, v0);
      v1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + ak), bv, v1);
      v2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + ak), bv, v2);
      v3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + ak), bv, v3);
    }
    _mm256_storeu_ps(c0 + j, v0);
    _mm256_storeu_ps(c1 + j, v1);
    _mm256_storeu_ps(c2 + j, v2);
    _mm256_storeu_ps(c3 + j, v3);
  }
  // Column remainder behind a lane mask: the SAME vfmadd sequence as the
  // full vectors (so an element's bits never depend on n's remainder
  // class), with masked loads/stores guarding against reads past row
  // ends. Inactive lanes carry zeros through the FMA chain — harmless.
  if (j < n) {
    const __m256i m = tail_mask8(n - j);
    __m256 v0 = _mm256_maskload_ps(c0 + j, m);
    __m256 v1 = _mm256_maskload_ps(c1 + j, m);
    __m256 v2 = _mm256_maskload_ps(c2 + j, m);
    __m256 v3 = _mm256_maskload_ps(c3 + j, m);
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const __m256 bv = _mm256_maskload_ps(bt + (kk - k0) * ldb + j, m);
      const std::size_t ak = kk * a_k;
      v0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + ak), bv, v0);
      v1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + ak), bv, v1);
      v2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + ak), bv, v2);
      v3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + ak), bv, v3);
    }
    _mm256_maskstore_ps(c0 + j, m, v0);
    _mm256_maskstore_ps(c1 + j, m, v1);
    _mm256_maskstore_ps(c2 + j, m, v2);
    _mm256_maskstore_ps(c3 + j, m, v3);
  }
}

inline void rows1_avx2(std::size_t n, std::size_t k0, std::size_t k1,
                       const float* a0, std::size_t a_k, const float* bt,
                       std::size_t ldb, float* c0) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 v0 = _mm256_loadu_ps(c0 + j), v1 = _mm256_loadu_ps(c0 + j + 8);
    for (std::size_t kk = k0; kk < k1; ++kk) {
      const float* b_row = bt + (kk - k0) * ldb + j;
      const __m256 av = _mm256_broadcast_ss(a0 + kk * a_k);
      v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), v0);
      v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), v1);
    }
    _mm256_storeu_ps(c0 + j, v0);
    _mm256_storeu_ps(c0 + j + 8, v1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 v = _mm256_loadu_ps(c0 + j);
    for (std::size_t kk = k0; kk < k1; ++kk)
      v = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + kk * a_k),
                          _mm256_loadu_ps(bt + (kk - k0) * ldb + j), v);
    _mm256_storeu_ps(c0 + j, v);
  }
  if (j < n) {
    const __m256i m = tail_mask8(n - j);
    __m256 v = _mm256_maskload_ps(c0 + j, m);
    for (std::size_t kk = k0; kk < k1; ++kk)
      v = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + kk * a_k),
                          _mm256_maskload_ps(bt + (kk - k0) * ldb + j, m), v);
    _mm256_maskstore_ps(c0 + j, m, v);
  }
}

void gemm_tile_avx2(std::size_t nrows, std::size_t n, std::size_t k0,
                    std::size_t k1, const float* a, std::size_t a_row_step,
                    std::size_t a_k_stride, const float* bt, std::size_t ldb,
                    float* c, std::size_t ldc) {
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4)
    rows4_avx2(n, k0, k1, a + r * a_row_step, a + (r + 1) * a_row_step,
               a + (r + 2) * a_row_step, a + (r + 3) * a_row_step, a_k_stride,
               bt, ldb, c + r * ldc, c + (r + 1) * ldc, c + (r + 2) * ldc,
               c + (r + 3) * ldc);
  for (; r < nrows; ++r)
    rows1_avx2(n, k0, k1, a + r * a_row_step, a_k_stride, bt, ldb,
               c + r * ldc);
}

// Two 8-wide FMA chains plus a fixed-order horizontal reduction; the
// k-remainder finishes with scalar FMAs. Deterministic for a given k.
float dot_avx2(const float* a, const float* b, std::size_t k) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  std::size_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk), _mm256_loadu_ps(b + kk),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk + 8),
                           _mm256_loadu_ps(b + kk + 8), acc1);
  }
  for (; kk + 8 <= k; kk += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk), _mm256_loadu_ps(b + kk),
                           acc0);
  const __m256 s = _mm256_add_ps(acc0, acc1);
  __m128 q = _mm_add_ps(_mm256_castps256_ps128(s),
                        _mm256_extractf128_ps(s, 1));
  q = _mm_add_ps(q, _mm_movehl_ps(q, q));
  q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 0x1));
  float acc = _mm_cvtss_f32(q);
  for (; kk < k; ++kk) acc = std::fmaf(a[kk], b[kk], acc);
  return acc;
}

// ------------------------------------------------------------------ SELU

// Cephes-style polynomial expf over the clamped range; ~1 ulp of
// std::expf across the SELU domain (x <= 0). All ops are elementwise, so
// a value produces the same bits in any lane, full or masked.
inline __m256 exp256(__m256 x) {
  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 kLn2Hi = _mm256_set1_ps(0.693359375f);
  const __m256 kLn2Lo = _mm256_set1_ps(-2.12194440e-4f);
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.33654f));
  x = _mm256_min_ps(x, _mm256_set1_ps(88.02969f));
  const __m256 fx = _mm256_round_ps(
      _mm256_mul_ps(x, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_ps(fx, kLn2Hi, x);
  x = _mm256_fnmadd_ps(fx, kLn2Lo, x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

inline __m256 selu_vec(__m256 v) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 pos = _mm256_mul_ps(_mm256_set1_ps(nn::kSeluLambda), v);
  // Clamp the exp input to the negative branch's domain so inactive lanes
  // can never overflow into the blend.
  const __m256 e = exp256(_mm256_min_ps(v, zero));
  const __m256 neg =
      _mm256_mul_ps(_mm256_set1_ps(nn::kSeluLambda * nn::kSeluAlpha),
                    _mm256_sub_ps(e, _mm256_set1_ps(1.0f)));
  return _mm256_blendv_ps(neg, pos, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
}

void selu_avx2(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, selu_vec(_mm256_loadu_ps(x + i)));
  if (i < n) {
    // The tail runs the SAME vector ops behind a lane mask, so an
    // element's bits never depend on whether it sat in a full vector.
    const __m256i m = tail_mask8(n - i);
    _mm256_maskstore_ps(y + i, m, selu_vec(_mm256_maskload_ps(x + i, m)));
  }
}

// cmp + blendv + mul: the add, select and multiply of the scalar loop,
// one rounding each, so both backends produce the same bits.
inline __m256 selu_grad_vec(__m256 y, __m256 g) {
  const __m256 neg =
      _mm256_add_ps(y, _mm256_set1_ps(nn::kSeluLambda * nn::kSeluAlpha));
  const __m256 slope =
      _mm256_blendv_ps(neg, _mm256_set1_ps(nn::kSeluLambda),
                       _mm256_cmp_ps(y, _mm256_setzero_ps(), _CMP_GT_OQ));
  return _mm256_mul_ps(g, slope);
}

void selu_grad_avx2(const float* y, const float* g, float* dx, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dx + i, selu_grad_vec(_mm256_loadu_ps(y + i),
                                           _mm256_loadu_ps(g + i)));
  if (i < n) {
    const __m256i m = tail_mask8(n - i);
    _mm256_maskstore_ps(dx + i, m,
                        selu_grad_vec(_mm256_maskload_ps(y + i, m),
                                      _mm256_maskload_ps(g + i, m)));
  }
}

// ------------------------------------------------------------- max pool

void max_pool_1x2_avx2(const float* x, float* out, std::size_t ow) {
  const __m256 floor8 = _mm256_set1_ps(-3.4e38f);
  // Deinterleave helper: shuffle pairs within 128-bit halves, then
  // restore cross-half order.
  const __m256i lane_fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  std::size_t j = 0;
  for (; j + 8 <= ow; j += 8) {
    const __m256 v0 = _mm256_loadu_ps(x + 2 * j);
    const __m256 v1 = _mm256_loadu_ps(x + 2 * j + 8);
    const __m256 even = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(v0, v1, 0x88), lane_fix);
    const __m256 odd = _mm256_permutevar8x32_ps(
        _mm256_shuffle_ps(v0, v1, 0xDD), lane_fix);
    // max_ps(a, b) = (a > b) ? a : b — the same strictly-greater update
    // order as the scalar loop, so bits agree on every finite input.
    const __m256 best =
        _mm256_max_ps(_mm256_max_ps(floor8, even), odd);
    _mm256_storeu_ps(out + j, best);
  }
  for (; j < ow; ++j) {
    float best = -3.4e38f;
    if (x[2 * j] > best) best = x[2 * j];
    if (x[2 * j + 1] > best) best = x[2 * j + 1];
    out[j] = best;
  }
}

// ------------------------------------------- complex rotation kernels
//
// Interleaved re/im complex-double rows; one __m256d = 2 complex values.
// The rotation coefficients are real, so the Givens kernel is plain
// componentwise double FMA; the polar scaling uses fmaddsub for the
// complex multiply.

void givens_left_avx2(double* ra, double* rb, std::size_t cols, double c,
                      double s) {
  const __m256d vc = _mm256_set1_pd(c), vs = _mm256_set1_pd(s);
  const std::size_t nd = 2 * cols;
  std::size_t i = 0;
  for (; i + 4 <= nd; i += 4) {
    const __m256d va = _mm256_loadu_pd(ra + i);
    const __m256d vb = _mm256_loadu_pd(rb + i);
    _mm256_storeu_pd(ra + i, _mm256_fmadd_pd(vs, vb, _mm256_mul_pd(vc, va)));
    _mm256_storeu_pd(rb + i, _mm256_fnmadd_pd(vs, va, _mm256_mul_pd(vc, vb)));
  }
  for (; i < nd; ++i) {
    const double va = ra[i], vb = rb[i];
    ra[i] = std::fma(s, vb, c * va);
    rb[i] = std::fma(-s, va, c * vb);
  }
}

// z * (fre + i*fim) on interleaved lanes: with t = swap_re_im(z),
// fmaddsub(z, fre, t*fim) yields [re*fre - im*fim, im*fre + re*fim].
inline __m256d cmul_polar4(__m256d v, __m256d vre, __m256d vim) {
  const __m256d t = _mm256_permute_pd(v, 0x5);
  return _mm256_fmaddsub_pd(v, vre, _mm256_mul_pd(t, vim));
}

inline __m128d cmul_polar2(__m128d v, __m128d vre, __m128d vim) {
  const __m128d t = _mm_shuffle_pd(v, v, 0x1);
  return _mm_fmaddsub_pd(v, vre, _mm_mul_pd(t, vim));
}

void scale_row_polar_avx2(double* row, std::size_t cols, double fre,
                          double fim) {
  const __m256d vre = _mm256_set1_pd(fre), vim = _mm256_set1_pd(fim);
  const std::size_t nd = 2 * cols;
  std::size_t i = 0;
  for (; i + 4 <= nd; i += 4)
    _mm256_storeu_pd(row + i, cmul_polar4(_mm256_loadu_pd(row + i), vre, vim));
  if (i < nd)
    _mm_storeu_pd(row + i,
                  cmul_polar2(_mm_loadu_pd(row + i),
                              _mm256_castpd256_pd128(vre),
                              _mm256_castpd256_pd128(vim)));
}

constexpr SimdOps kAvx2Ops = {
    Backend::kAvx2,
    gemm_tile_avx2,
    dot_avx2,
    selu_avx2,
    selu_grad_avx2,
    max_pool_1x2_avx2,
    givens_left_avx2,
    scale_row_polar_avx2,
    // The fp32 backend never runs quantized layers; its int8 slots carry
    // the scalar reference kernels so every pointer stays valid. The
    // live AVX2 int8 kernels sit on the kAvx2Int8 table
    // (nn/simd_avx2_int8.cc).
    int8ref::quantize_u8,
    int8ref::dot_s8u8,
    int8ref::gemm_s8u8,
};

}  // namespace

// Looked up by the dispatcher in nn/simd.cc (only under DEEPCSI_HAVE_AVX2).
const SimdOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace deepcsi::simd
