#include "nn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {
namespace {

// Blocked micro-kernel layout. The k dimension is tiled so the active B
// panel stays cache-resident while the chunk's C rows stream over it, and
// within a chunk the panel is packed once into per-thread scratch
// (aligned, padded row stride) and reused by every row block of the same
// sample. The inner register tiles come from the active SIMD backend
// (nn/simd.h): each C element still accumulates one multiply-add per kk
// in strictly ascending kk — tile boundaries, packing, and the backend's
// row/column grouping move data, never reassociate the sum — so within a
// backend results stay bit-identical for any DEEPCSI_THREADS value and
// any chunking, exactly as the PR 1 determinism contract requires.
// NOTE on the grain floor below (max(grain_for, 8 * kRowBlock) = 32
// rows): the load-balancing heuristic alone shrinks chunks below
// kRowBlock rows for large n*k (e.g. 3 rows at n*k ~ 9k), which silently
// disables the register row tiles AND the B-packing — every row then
// re-streams the whole B panel from L2. The floor must also amortize the
// per-chunk B-pack copies: at 8 rows the pack is ~12% of the chunk's
// multiply-adds and measurably drags the avx2 path, at 32 rows it is
// ~3%. The cost is parallelism on tiny GEMMs (a single-sample m <= 32
// conv runs its rows in one chunk) — batch serving, where rows =
// batch * m, is the path this is tuned for. Chunk boundaries still
// depend only on the problem shape, so the determinism contract is
// untouched. kKTile = 64 keeps a packed tile at <= 16kB for n <= 64
// (L1-resident alongside the C rows); 128 measures the same on the CI
// container class but leaves less headroom.
constexpr std::size_t kRowBlock = 4;
constexpr std::size_t kKTile = 64;

// Padded packed-row stride: rows start at the same offset modulo a
// 32-byte vector width, so consecutive rows never share a partial
// vector lane and the j loops see one uniform trip count per row.
inline std::size_t packed_stride(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// Per-thread packed-B panel; capacity persists across calls, so the
// steady state performs no allocations.
std::vector<float>& pack_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

// Copy B rows [k0, k1) (each n wide, stride n) into the packed panel.
inline const float* pack_b_tile(const float* __restrict b, std::size_t n,
                                std::size_t k0, std::size_t k1,
                                std::vector<float>& pack) {
  const std::size_t ldp = packed_stride(n);
  pack.resize(ldp * (k1 - k0));
  for (std::size_t kk = k0; kk < k1; ++kk)
    std::copy(b + kk * n, b + kk * n + n, pack.data() + (kk - k0) * ldp);
  return pack.data();
}

// The rows [r_lo, r_hi) of one sample's C_s = op(A) * B_s, where
// op(A)(row, kk) = a[row * a_row_step + kk * a_k_stride]. Covers both
// layouts: NN passes (row_step = k, k_stride = 1), TN passes
// (row_step = 1, k_stride = m). When `epilogue` is set it runs once over
// each finished row — the rows are still chunk-hot, so a fused activation
// never re-traverses the output from cold memory.
inline void sample_rows_blocked(const simd::SimdOps& ops, std::size_t n,
                                std::size_t k, const float* a_base,
                                std::size_t a_row_step, std::size_t a_k_stride,
                                const float* __restrict b_s,
                                float* __restrict c_s, std::size_t r_lo,
                                std::size_t r_hi, bool accumulate,
                                RowEpilogue epilogue,
                                const float* __restrict row_init) {
  if (!accumulate)
    for (std::size_t r = r_lo; r < r_hi; ++r)
      std::fill(c_s + r * n, c_s + r * n + n,
                row_init != nullptr ? row_init[r] : 0.0f);
  const bool do_pack = r_hi - r_lo > kRowBlock;
  std::vector<float>& pack = pack_scratch();
  for (std::size_t k0 = 0; k0 < k; k0 += kKTile) {
    const std::size_t k1 = std::min(k, k0 + kKTile);
    const float* bt;
    std::size_t ldb;
    if (do_pack) {
      bt = pack_b_tile(b_s, n, k0, k1, pack);
      ldb = packed_stride(n);
    } else {
      bt = b_s + k0 * n;
      ldb = n;
    }
    ops.gemm_tile(r_hi - r_lo, n, k0, k1, a_base + r_lo * a_row_step,
                  a_row_step, a_k_stride, bt, ldb, c_s + r_lo * n, n);
  }
  if (epilogue != nullptr)
    for (std::size_t r = r_lo; r < r_hi; ++r)
      epilogue(c_s + r * n, c_s + r * n, n);
}

}  // namespace

void gemm_nn_batched(std::size_t batch, std::size_t m, std::size_t n,
                     std::size_t k, const float* a, const float* b,
                     std::size_t b_stride, float* c, std::size_t c_stride,
                     bool accumulate, RowEpilogue epilogue,
                     const float* row_init) {
  const simd::SimdOps& ops = simd::ops();
  const std::size_t rows = batch * m;
  const std::size_t grain = std::max(common::grain_for(n * k), 8 * kRowBlock);
  common::parallel_for(0, rows, grain, [&](std::size_t lo, std::size_t hi) {
    std::size_t r = lo;
    while (r < hi) {
      const std::size_t s = r / m, i0 = r % m;
      const std::size_t nrows = std::min(hi - r, m - i0);
      sample_rows_blocked(ops, n, k, a, k, 1, b + s * b_stride,
                          c + s * c_stride, i0, i0 + nrows, accumulate,
                          epilogue, row_init);
      r += nrows;
    }
  });
}

void gemm_tn_batched(std::size_t batch, std::size_t m, std::size_t n,
                     std::size_t k, const float* a, const float* b,
                     std::size_t b_stride, float* c, std::size_t c_stride,
                     bool accumulate) {
  const simd::SimdOps& ops = simd::ops();
  const std::size_t rows = batch * m;
  const std::size_t grain = std::max(common::grain_for(n * k), 8 * kRowBlock);
  common::parallel_for(0, rows, grain, [&](std::size_t lo, std::size_t hi) {
    std::size_t r = lo;
    while (r < hi) {
      const std::size_t s = r / m, i0 = r % m;
      const std::size_t nrows = std::min(hi - r, m - i0);
      sample_rows_blocked(ops, n, k, a, 1, m, b + s * b_stride,
                          c + s * c_stride, i0, i0 + nrows, accumulate,
                          nullptr, nullptr);
      r += nrows;
    }
  });
}

void gemm_nn_batch_reduce(std::size_t batch, std::size_t m, std::size_t n,
                          std::size_t k, const float* a, std::size_t a_stride,
                          const float* b, std::size_t b_stride, float* c) {
  const simd::SimdOps& ops = simd::ops();
  // Column blocks of whole vectors, at least one widest avx2 tile (24
  // columns) each: a chunk's B slice stays L1-resident across its row
  // blocks, and every C column lands in exactly one chunk, so the batch
  // reduction needs no cross-chunk merge. No packing: B rows are already
  // contiguous.
  const std::size_t grain =
      (std::max(common::grain_for(batch * m * k), std::size_t{24}) + 7) &
      ~std::size_t{7};
  common::parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = 0; s < batch; ++s) {
      const float* b_s = b + s * b_stride + lo;
      for (std::size_t k0 = 0; k0 < k; k0 += kKTile) {
        const std::size_t k1 = std::min(k, k0 + kKTile);
        ops.gemm_tile(m, hi - lo, k0, k1, a + s * a_stride, k, 1,
                      b_s + k0 * n, n, c + lo, n);
      }
    }
  });
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  const simd::SimdOps& ops = simd::ops();
  const std::size_t grain = common::grain_for(n * k);
  common::parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* __restrict a_row = a + i * k;
      float* __restrict c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float acc = ops.dot(a_row, b + j * k, k);
        c_row[j] = accumulate ? c_row[j] + acc : acc;
      }
    }
  });
}

namespace {

// Honesty counter for the int8 path (see gemm.h). Relaxed: benches only
// read it before/after a quiesced measurement window.
std::atomic<std::uint64_t> g_int8_dispatches{0};

#ifdef __SSE2__
// 8-row x 16-column byte transpose into 16 finished oct column units:
// unpack bytes, words, then dwords so each 16-byte store is two column
// units (dst[j * 8 + t] = rows[t] byte j).
inline void transpose_8x16_u8(const __m128i rows[8], std::uint8_t* dst) {
  const __m128i a0 = _mm_unpacklo_epi8(rows[0], rows[1]);
  const __m128i a1 = _mm_unpackhi_epi8(rows[0], rows[1]);
  const __m128i b0 = _mm_unpacklo_epi8(rows[2], rows[3]);
  const __m128i b1 = _mm_unpackhi_epi8(rows[2], rows[3]);
  const __m128i c0 = _mm_unpacklo_epi8(rows[4], rows[5]);
  const __m128i c1 = _mm_unpackhi_epi8(rows[4], rows[5]);
  const __m128i d0 = _mm_unpacklo_epi8(rows[6], rows[7]);
  const __m128i d1 = _mm_unpackhi_epi8(rows[6], rows[7]);
  const __m128i e0 = _mm_unpacklo_epi16(a0, b0);
  const __m128i e1 = _mm_unpackhi_epi16(a0, b0);
  const __m128i e2 = _mm_unpacklo_epi16(a1, b1);
  const __m128i e3 = _mm_unpackhi_epi16(a1, b1);
  const __m128i f0 = _mm_unpacklo_epi16(c0, d0);
  const __m128i f1 = _mm_unpackhi_epi16(c0, d0);
  const __m128i f2 = _mm_unpacklo_epi16(c1, d1);
  const __m128i f3 = _mm_unpackhi_epi16(c1, d1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 0),
                   _mm_unpacklo_epi32(e0, f0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                   _mm_unpackhi_epi32(e0, f0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                   _mm_unpacklo_epi32(e1, f1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                   _mm_unpackhi_epi32(e1, f1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 64),
                   _mm_unpacklo_epi32(e2, f2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 80),
                   _mm_unpackhi_epi32(e2, f2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 96),
                   _mm_unpacklo_epi32(e3, f3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 112),
                   _mm_unpackhi_epi32(e3, f3));
}
#endif

// The GEMM half shared by both conv drivers: same (sample, row-block)
// walk as gemm_nn_batched, same grain floor, so the int8 path inherits
// the fp32 driver's load-balancing shape.
void conv_gemm_s8u8(std::size_t batch, std::size_t n,
                    const QuantizedWeights& qw, const std::uint8_t* panel,
                    const float* bias, float* c, std::size_t c_stride,
                    RowEpilogue epilogue) {
  const std::size_t k = qw.k, ko = qw.ko, m = qw.rows;
  const std::size_t lda = 8 * ko;
  const std::size_t np = (n + 7) & ~std::size_t{7};
  const std::size_t panel_stride = lda * np;
  const simd::SimdOps& ops = simd::ops();
  const std::size_t rows = batch * m;
  const std::size_t grain = std::max(common::grain_for(n * k), 8 * kRowBlock);
  common::parallel_for(0, rows, grain, [&](std::size_t lo, std::size_t hi) {
    std::size_t r = lo;
    while (r < hi) {
      const std::size_t s = r / m, i0 = r % m;
      const std::size_t nrows = std::min(hi - r, m - i0);
      float* __restrict c_rows = c + s * c_stride + i0 * n;
      ops.gemm_s8u8(nrows, n, ko, qw.wq.data() + i0 * lda, lda,
                    panel + s * panel_stride, qw.corr.data() + i0,
                    qw.dequant.data() + i0,
                    bias != nullptr ? bias + i0 : nullptr, c_rows, n);
      if (epilogue != nullptr)
        for (std::size_t i = 0; i < nrows; ++i)
          epilogue(c_rows + i * n, c_rows + i * n, n);
      r += nrows;
    }
  });
}

}  // namespace

std::uint64_t int8_kernel_dispatches() {
  return g_int8_dispatches.load(std::memory_order_relaxed);
}

void conv_s8u8_batched(std::size_t batch, std::size_t n,
                       const QuantizedWeights& qw, const std::uint8_t* cols,
                       std::uint8_t* panel, const float* bias, float* c,
                       std::size_t c_stride, RowEpilogue epilogue) {
  g_int8_dispatches.fetch_add(1, std::memory_order_relaxed);
  const std::size_t k = qw.k, ko = qw.ko;
  const std::size_t np = (n + 7) & ~std::size_t{7};
  const std::size_t panel_stride = 8 * ko * np;  // bytes per sample's panel

  // Oct-pack the u8 im2col columns: panel[(o*np + j)*8 + t] =
  // cols[(8o+t)*n + j] (0 beyond k; pad columns j >= n hold zero bytes),
  // so each 64-bit panel unit is exactly the oct one broadcast weight
  // group consumes and the kernel's column loop needs no scalar tail
  // (see gemm_s8u8 in nn/simd.h). Pure data movement — parallel over
  // (sample, oct) rows without affecting determinism; the SSE2 branch
  // moves the same bytes as the scalar loop, just 16 columns at a time.
  common::parallel_for(
      0, batch * ko, common::grain_for(8 * n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t s = r / ko, o = r % ko;
          const std::uint8_t* __restrict col_s = cols + s * k * n + 8 * o * n;
          std::uint8_t* __restrict out = panel + s * panel_stride + o * np * 8;
          std::size_t j = 0;
          if (8 * o + 8 <= k) {  // full oct: all eight k rows exist
#ifdef __SSE2__
            for (; j + 16 <= n; j += 16) {
              __m128i rows[8];
              for (std::size_t t = 0; t < 8; ++t)
                rows[t] = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(col_s + t * n + j));
              transpose_8x16_u8(rows, out + j * 8);
            }
#endif
            for (; j < n; ++j)
              for (std::size_t t = 0; t < 8; ++t)
                out[j * 8 + t] = col_s[t * n + j];
          } else {  // final partial oct: zero beyond k
            for (; j < n; ++j)
              for (std::size_t t = 0; t < 8; ++t)
                out[j * 8 + t] =
                    8 * o + t < k ? col_s[t * n + j] : std::uint8_t{0};
          }
          if (np > n) std::memset(out + n * 8, 0, (np - n) * 8);
        }
      });

  conv_gemm_s8u8(batch, n, qw, panel, bias, c, c_stride, epilogue);
}

void conv_s8u8_batched_w(std::size_t batch, std::size_t in_channels,
                         std::size_t ww, std::size_t kw, std::size_t pad_w,
                         const QuantizedWeights& qw, const std::uint8_t* xq,
                         std::uint8_t* panel, const float* bias, float* c,
                         std::size_t c_stride, RowEpilogue epilogue) {
  g_int8_dispatches.fetch_add(1, std::memory_order_relaxed);
  const std::size_t k = qw.k, ko = qw.ko;
  DEEPCSI_CHECK(k == in_channels * kw);
  const std::size_t n = ww;  // 'same' + stride 1: one column per pixel
  const std::size_t np = (n + 7) & ~std::size_t{7};
  const std::size_t panel_stride = 8 * ko * np;
  const std::size_t plane_stride = in_channels * ww;  // bytes per sample

  // Pack the oct panel straight from the quantized input planes. Lane t
  // of oct o is im2col k-row kk = 8o + t, i.e. channel ci = kk / kw at
  // horizontal tap dj = kk % kw, so column j of that row is xq byte
  // (ci, j + dj - pad_w) — 128 (the u8 zero point) when the tap falls
  // outside the image, 0 for lanes past k. Taps of one oct never span
  // more than kw - 1 source positions, so the SIMD middle loop can run
  // wherever every live lane's 16-byte load is in-image; the scalar
  // edges handle padding. Byte-identical panel to conv_s8u8_batched on
  // materialized im2col columns (tests/quantize_test.cc pins this).
  common::parallel_for(
      0, batch * ko, common::grain_for(8 * n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t s = r / ko, o = r % ko;
          const std::uint8_t* __restrict planes = xq + s * plane_stride;
          std::uint8_t* __restrict out = panel + s * panel_stride + o * np * 8;
          // Per-lane source offsets (lane base = ci * ww + dj - pad_w)
          // and in-image column range [lo, hi) (j + dx in [0, ww)), all
          // hoisted out of the column loops — the divisions by kw run
          // eight times per oct row, never per column. Dead lanes
          // (kk >= k) always contribute 0.
          bool live[8];
          std::ptrdiff_t base[8], lo_t[8], hi_t[8];
          std::ptrdiff_t min_dx = 0, max_dx = 0;
          for (std::size_t t = 0; t < 8; ++t) {
            const std::size_t kk = 8 * o + t;
            live[t] = kk < k;
            const std::size_t ci = live[t] ? kk / kw : 0;
            const std::ptrdiff_t dx =
                live[t] ? static_cast<std::ptrdiff_t>(kk % kw) -
                              static_cast<std::ptrdiff_t>(pad_w)
                        : 0;
            base[t] = static_cast<std::ptrdiff_t>(ci * ww) + dx;
            lo_t[t] = -dx;
            hi_t[t] = static_cast<std::ptrdiff_t>(ww) - dx;
            if (live[t]) {
              min_dx = std::min(min_dx, dx);
              max_dx = std::max(max_dx, dx);
            }
          }
          auto scalar_col = [&](std::size_t j) {
            const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(j);
            for (std::size_t t = 0; t < 8; ++t) {
              std::uint8_t v = 0;  // dead lane: zero, as the oct-pack pads
              if (live[t])
                v = (jj >= lo_t[t] && jj < hi_t[t])
                        ? planes[base[t] + jj]
                        : std::uint8_t{128};
              out[j * 8 + t] = v;
            }
          };
          std::size_t j = 0;
          // Left edge: columns whose leftmost tap (j + min_dx) is
          // off-image.
          const std::size_t left =
              std::min(n, static_cast<std::size_t>(-min_dx));
          for (; j < left; ++j) scalar_col(j);
#ifdef __SSE2__
          // Interior: all live lanes' 16-byte loads stay in-image, i.e.
          // j + min_dx >= 0 and j + 15 + max_dx < ww. A final chunk,
          // overlapping the previous one, re-runs at the largest such j
          // so the scalar right edge shrinks to the max_dx columns whose
          // taps really do fall off the image (overlap rewrites
          // identical bytes — idempotent).
          const std::ptrdiff_t j_max =
              static_cast<std::ptrdiff_t>(ww) - 16 - max_dx;
          if (j_max >= static_cast<std::ptrdiff_t>(left)) {
            auto simd_chunk = [&](std::size_t jc) {
              __m128i rows[8];
              for (std::size_t t = 0; t < 8; ++t)
                rows[t] =
                    live[t] ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                  planes + base[t] +
                                  static_cast<std::ptrdiff_t>(jc)))
                            : _mm_setzero_si128();
              transpose_8x16_u8(rows, out + jc * 8);
            };
            while (static_cast<std::ptrdiff_t>(j) <= j_max) {
              simd_chunk(j);
              j += 16;
            }
            if (j < n && static_cast<std::size_t>(j_max) + 16 > j) {
              simd_chunk(static_cast<std::size_t>(j_max));
              j = static_cast<std::size_t>(j_max) + 16;
            }
          }
#endif
          // Right edge + anything the SIMD loop could not cover.
          for (; j < n; ++j) scalar_col(j);
          if (np > n) std::memset(out + n * 8, 0, (np - n) * 8);
        }
      });

  conv_gemm_s8u8(batch, n, qw, panel, bias, c, c_stride, epilogue);
}

void dense_s8u8(std::size_t n_batch, std::size_t k,
                const QuantizedWeights& qw, const float* x, std::uint8_t* xq,
                const float* bias, float* out) {
  g_int8_dispatches.fetch_add(1, std::memory_order_relaxed);
  const simd::SimdOps& ops = simd::ops();
  const std::size_t m = qw.rows;
  const std::size_t lda = 8 * qw.ko;
  common::parallel_for(
      0, n_batch, common::grain_for(m * k),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          std::uint8_t* __restrict xr = xq + s * lda;
          ops.quantize_u8(x + s * k, k, qw.act_inv_scale, xr);
          // Pad bytes meet zero weights, so their value never reaches
          // the sum — zeroed anyway to keep the buffer deterministic.
          if (lda > k) std::memset(xr + k, 0, lda - k);
          float* __restrict out_s = out + s * m;
          for (std::size_t o = 0; o < m; ++o) {
            const std::int32_t acc =
                ops.dot_s8u8(qw.wq.data() + o * lda, xr, lda);
            out_s[o] = std::fmaf(static_cast<float>(acc - qw.corr[o]),
                                 qw.dequant[o],
                                 bias != nullptr ? bias[o] : 0.0f);
          }
        }
      });
}

}  // namespace deepcsi::nn
