// Backend selection plus the scalar kernel table. The scalar kernels are
// the exact loops that used to live in nn/gemm.cc, nn/activations.cc and
// linalg/cmat.cc — moved, not rewritten — so the scalar backend stays
// bit-for-bit identical to the pre-dispatch code on every input.
#include "nn/simd.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/activations.h"

namespace deepcsi::simd {
namespace {

// ------------------------------------------------------------ GEMM tiles

// Four C rows over one B tile: the b_row load is shared by four
// independent accumulator rows (4x the arithmetic per byte of B), and the
// branch-free j loop autovectorizes at the baseline ISA. No zero-skip: a
// data-dependent branch would defeat vectorization and almost never fires
// on dense activations.
inline void rows4_tile(std::size_t n, std::size_t k0, std::size_t k1,
                       const float* __restrict a0, const float* __restrict a1,
                       const float* __restrict a2, const float* __restrict a3,
                       std::size_t a_stride, const float* __restrict bt,
                       std::size_t ldb, float* __restrict c0,
                       float* __restrict c1, float* __restrict c2,
                       float* __restrict c3) {
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const std::size_t ak = kk * a_stride;
    const float av0 = a0[ak], av1 = a1[ak], av2 = a2[ak], av3 = a3[ak];
    const float* __restrict b_row = bt + (kk - k0) * ldb;
    for (std::size_t j = 0; j < n; ++j) {
      const float bv = b_row[j];
      c0[j] += av0 * bv;
      c1[j] += av1 * bv;
      c2[j] += av2 * bv;
      c3[j] += av3 * bv;
    }
  }
}

// Single-row tail of the block loop, same per-element order.
inline void rows1_tile(std::size_t n, std::size_t k0, std::size_t k1,
                       const float* __restrict a0, std::size_t a_stride,
                       const float* __restrict bt, std::size_t ldb,
                       float* __restrict c0) {
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float av = a0[kk * a_stride];
    const float* __restrict b_row = bt + (kk - k0) * ldb;
    for (std::size_t j = 0; j < n; ++j) c0[j] += av * b_row[j];
  }
}

void gemm_tile_scalar(std::size_t nrows, std::size_t n, std::size_t k0,
                      std::size_t k1, const float* a, std::size_t a_row_step,
                      std::size_t a_k_stride, const float* bt, std::size_t ldb,
                      float* c, std::size_t ldc) {
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4)
    rows4_tile(n, k0, k1, a + r * a_row_step, a + (r + 1) * a_row_step,
               a + (r + 2) * a_row_step, a + (r + 3) * a_row_step, a_k_stride,
               bt, ldb, c + r * ldc, c + (r + 1) * ldc, c + (r + 2) * ldc,
               c + (r + 3) * ldc);
  for (; r < nrows; ++r)
    rows1_tile(n, k0, k1, a + r * a_row_step, a_k_stride, bt, ldb,
               c + r * ldc);
}

// Dot product with fixed 4-lane partial sums: breaks the FP add
// dependency chain without making the accumulation order data- or
// thread-dependent.
float dot_scalar(const float* __restrict a, const float* __restrict b,
                 std::size_t k) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    acc0 += a[kk] * b[kk];
    acc1 += a[kk + 1] * b[kk + 1];
    acc2 += a[kk + 2] * b[kk + 2];
    acc3 += a[kk + 3] * b[kk + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; kk < k; ++kk) acc += a[kk] * b[kk];
  return acc;
}

// ------------------------------------------------------------------ SELU

void selu_scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v > 0.0f ? nn::kSeluLambda * v
                    : nn::kSeluLambda * nn::kSeluAlpha * (std::exp(v) - 1.0f);
  }
}

void selu_grad_scalar(const float* y, const float* g, float* dx,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = y[i];
    dx[i] = g[i] * (v > 0.0f ? nn::kSeluLambda
                             : v + nn::kSeluLambda * nn::kSeluAlpha);
  }
}

// ------------------------------------------------------------- max pool

void max_pool_1x2_scalar(const float* x, float* out, std::size_t ow) {
  for (std::size_t j = 0; j < ow; ++j) {
    float best = -3.4e38f;
    if (x[2 * j] > best) best = x[2 * j];
    if (x[2 * j + 1] > best) best = x[2 * j + 1];
    out[j] = best;
  }
}

// ------------------------------------------- complex rotation kernels
//
// Rows are interleaved re/im doubles. The real rotation coefficients act
// componentwise, so these are the componentwise expansions of the
// std::complex expressions they replaced — same multiplies, same
// adds, same order.

void givens_left_scalar(double* ra, double* rb, std::size_t cols, double c,
                        double s) {
  const std::size_t nd = 2 * cols;
  for (std::size_t i = 0; i < nd; ++i) {
    const double va = ra[i], vb = rb[i];
    ra[i] = c * va + s * vb;
    rb[i] = -s * va + c * vb;
  }
}

void scale_row_polar_scalar(double* row, std::size_t cols, double fre,
                            double fim) {
  for (std::size_t j = 0; j < cols; ++j) {
    const double re = row[2 * j], im = row[2 * j + 1];
    row[2 * j] = re * fre - im * fim;
    row[2 * j + 1] = re * fim + im * fre;
  }
}

}  // namespace

// ------------------------------------------- int8 reference kernels
//
// Plain integer loops defining the exact bits every int8 implementation
// must produce. Integer accumulation is order-independent (exact), and
// the two float steps are pinned: quantize rounds to nearest-even (lrintf
// under the default rounding mode — the same rule as
// _mm256_cvtps_epi32), dequantize is one fmaf per element (the same
// contraction as _mm256_fmadd_ps). tests/quantize_test.cc asserts the
// avx2_int8 kernels match these bit-for-bit.

void int8ref::quantize_u8(const float* x, std::size_t n, float inv_scale,
                          std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    long q = std::lrintf(x[i] * inv_scale);
    if (q < -127) q = -127;
    if (q > 127) q = 127;
    out[i] = static_cast<std::uint8_t>(q + 128);
  }
}

std::int32_t int8ref::dot_s8u8(const std::int8_t* w, const std::uint8_t* x,
                               std::size_t k) {
  std::int32_t acc = 0;
  for (std::size_t kk = 0; kk < k; ++kk)
    acc += static_cast<std::int32_t>(w[kk]) * static_cast<std::int32_t>(x[kk]);
  return acc;
}

void int8ref::gemm_s8u8(std::size_t nrows, std::size_t n, std::size_t ko,
                        const std::int8_t* a, std::size_t lda,
                        const std::uint8_t* bq, const std::int32_t* corr,
                        const float* dequant, const float* bias, float* c,
                        std::size_t ldc) {
  const std::size_t np = (n + 7) & ~std::size_t{7};
  for (std::size_t r = 0; r < nrows; ++r) {
    const std::int8_t* __restrict a_row = a + r * lda;
    float* __restrict c_row = c + r * ldc;
    const float b0 = bias != nullptr ? bias[r] : 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t o = 0; o < ko; ++o) {
        const std::uint8_t* __restrict bp = bq + (o * np + j) * 8;
        const std::int8_t* __restrict ap = a_row + o * 8;
        for (std::size_t t = 0; t < 8; ++t)
          acc += static_cast<std::int32_t>(ap[t]) * bp[t];
      }
      c_row[j] = std::fmaf(static_cast<float>(acc - corr[r]), dequant[r], b0);
    }
  }
}

namespace {

constexpr SimdOps kScalarOps = {
    Backend::kScalar,
    gemm_tile_scalar,
    dot_scalar,
    selu_scalar,
    selu_grad_scalar,
    max_pool_1x2_scalar,
    givens_left_scalar,
    scale_row_polar_scalar,
    int8ref::quantize_u8,
    int8ref::dot_s8u8,
    int8ref::gemm_s8u8,
};

// ------------------------------------------------------------- dispatch

const SimdOps* table_for(Backend b);

std::atomic<const SimdOps*> g_active{nullptr};

// THE backend-name table: drives name(), backend_names(),
// available_backends(), resolve_backend() and the usage-error text below.
// Add new backends here and nowhere else — a hand-maintained copy of this
// list in an error string or usage() is exactly the desync this table
// exists to prevent. Scalar stays first: bench sweeps report speedups
// relative to the first available backend.
struct BackendName {
  Backend id;
  const char* name;
};
constexpr BackendName kBackendTable[] = {
    {Backend::kScalar, "scalar"},
    {Backend::kAvx2, "avx2"},
    {Backend::kAvx2Int8, "avx2_int8"},
};

// Both avx2 variants ride the same TU gating and ISA bits (the int8
// kernels are AVX2 integer instructions).
bool needs_avx2(Backend b) { return b != Backend::kScalar; }

[[noreturn]] void usage_error(const char* value, const char* why) {
  std::string valid;
  for (const BackendName& entry : kBackendTable) {
    if (!valid.empty()) valid += ", ";
    valid += '"';
    valid += entry.name;
    valid += '"';
  }
  std::fprintf(stderr, "deepcsi: DEEPCSI_SIMD=%s: %s (valid values: %s)\n",
               value, why, valid.c_str());
  std::exit(2);
}

const SimdOps* resolve_table() {
  return table_for(resolve_backend(std::getenv("DEEPCSI_SIMD")));
}

const SimdOps* active_table() {
  const SimdOps* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = resolve_table();
    g_active.store(t, std::memory_order_release);
  }
  return t;
}

}  // namespace

#if DEEPCSI_HAVE_AVX2
// Defined in nn/simd_avx2.cc / nn/simd_avx2_int8.cc (the only TUs
// compiled with -mavx2 -mfma).
const SimdOps* avx2_ops();
const SimdOps* avx2_int8_ops();
void append_avx2_int8_gemm_kernels(std::vector<Int8GemmKernel>& out);
#endif

namespace {
const SimdOps* table_for(Backend b) {
#if DEEPCSI_HAVE_AVX2
  if (b == Backend::kAvx2) return avx2_ops();
  if (b == Backend::kAvx2Int8) return avx2_int8_ops();
#endif
  (void)b;
  return &kScalarOps;
}
}  // namespace

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool compiled_with_avx2() {
#if DEEPCSI_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

Backend resolve_backend(const char* env_value) {
  if (env_value == nullptr || env_value[0] == '\0')
    return compiled_with_avx2() && cpu_supports_avx2() ? Backend::kAvx2
                                                       : Backend::kScalar;
  for (const BackendName& entry : kBackendTable) {
    if (std::strcmp(env_value, entry.name) != 0) continue;
    if (needs_avx2(entry.id)) {
      if (!compiled_with_avx2())
        usage_error(env_value,
                    "the avx2 backend was compiled out (DEEPCSI_ENABLE_AVX2="
                    "OFF or non-x86 target)");
      if (!cpu_supports_avx2())
        usage_error(env_value, "this CPU does not support AVX2+FMA");
    }
    return entry.id;
  }
  usage_error(env_value, "unknown backend");
}

Backend active() { return active_table()->id; }

bool set_active(Backend b) {
  if (needs_avx2(b) && !(compiled_with_avx2() && cpu_supports_avx2()))
    return false;
  g_active.store(table_for(b), std::memory_order_release);
  return true;
}

const char* name(Backend b) {
  for (const BackendName& entry : kBackendTable)
    if (entry.id == b) return entry.name;
  return "scalar";
}

std::vector<const char*> backend_names() {
  std::vector<const char*> out;
  for (const BackendName& entry : kBackendTable) out.push_back(entry.name);
  return out;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const BackendName& entry : kBackendTable)
    if (!needs_avx2(entry.id) ||
        (compiled_with_avx2() && cpu_supports_avx2()))
      out.push_back(entry.id);
  return out;
}

std::vector<Int8GemmKernel> int8_gemm_kernels() {
  std::vector<Int8GemmKernel> out;
#if DEEPCSI_HAVE_AVX2
  if (cpu_supports_avx2()) append_avx2_int8_gemm_kernels(out);
#endif
  return out;
}

const SimdOps& ops() { return *active_table(); }

}  // namespace deepcsi::simd
