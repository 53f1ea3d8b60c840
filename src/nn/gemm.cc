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

// Valid output span [lo, hi) of a tap offset d along a row of `size`
// under 'same' padding: output index w reads input w + d, so
// 0 <= w + d < size.
struct TapSpan {
  std::size_t lo, hi;
};

inline TapSpan tap_span(std::ptrdiff_t d, std::size_t size) {
  TapSpan s{0, size};
  if (d < 0) s.lo = std::min(static_cast<std::size_t>(-d), size);
  if (d > 0)
    s.hi = size > static_cast<std::size_t>(d)
               ? size - static_cast<std::size_t>(d)
               : 0;
  return s;
}

// One im2col row: `plane` ([ww]) shifted by the tap offset dw into
// dst[0, ww), zero outside the image. Only the margins — a few columns
// for 'same' padding — are zero-filled; the in-image span is one
// contiguous copy.
inline void tap_row(const float* __restrict plane, std::size_t ww,
                    std::ptrdiff_t dw, float* __restrict dst) {
  const TapSpan ws = tap_span(dw, ww);
  std::fill(dst, dst + ws.lo, 0.0f);
  // Index with the signed offset — never form a pointer before the plane
  // (w + dw >= 0 inside the span).
  if (ws.hi > ws.lo)
    std::copy(plane + static_cast<std::ptrdiff_t>(ws.lo) + dw,
              plane + static_cast<std::ptrdiff_t>(ws.hi) + dw, dst + ws.lo);
  std::fill(dst + ws.hi, dst + ww, 0.0f);
}

// The tap j of im2col row (ci, j), advanced in ascending row order by a
// counter, never decoded from the row index.
struct TapCursor {
  std::size_t j = 0;
  // Steps to the next row; true when it moves to the next plane.
  bool next(const ConvShape& g) {
    if (++j < g.kw) return false;
    j = 0;
    return true;
  }
  std::ptrdiff_t dw(const ConvShape& g) const {
    return static_cast<std::ptrdiff_t>(j) -
           static_cast<std::ptrdiff_t>(g.pad_w);
  }
};

// The rows [r_lo, r_hi) of one sample's C_s = op(A) * B_s, where
// op(A)(row, kk) = a[row * a_row_step + kk * a_k_stride] and
// pack_tile(k0, k1, ldb) returns B's k-tile [k0, k1) (row kk at
// (kk - k0) * ldb), called once per tile in ascending k0. Covers both
// layouts: the conv passes (row_step = k, k_stride = 1), TN passes
// (row_step = 1, k_stride = m). When `epilogue` is set it runs once over
// each finished row — the rows are still chunk-hot, so a fused activation
// never re-traverses the output from cold memory.
template <typename PackTile>
inline void sample_rows_blocked(const simd::SimdOps& ops, std::size_t n,
                                std::size_t k, const float* a_base,
                                std::size_t a_row_step, std::size_t a_k_stride,
                                PackTile&& pack_tile, float* __restrict c_s,
                                std::size_t r_lo, std::size_t r_hi,
                                bool accumulate, RowEpilogue epilogue,
                                const float* __restrict row_init) {
  if (!accumulate)
    for (std::size_t r = r_lo; r < r_hi; ++r)
      std::fill(c_s + r * n, c_s + r * n + n,
                row_init != nullptr ? row_init[r] : 0.0f);
  for (std::size_t k0 = 0; k0 < k; k0 += kKTile) {
    const std::size_t k1 = std::min(k, k0 + kKTile);
    std::size_t ldb;
    const float* bt = pack_tile(k0, k1, ldb);
    ops.gemm_tile(r_hi - r_lo, n, k0, k1, a_base + r_lo * a_row_step,
                  a_row_step, a_k_stride, bt, ldb, c_s + r_lo * n, n);
  }
  if (epilogue != nullptr)
    for (std::size_t r = r_lo; r < r_hi; ++r)
      epilogue(c_s + r * n, c_s + r * n, n);
}

}  // namespace

void conv_f32_batched(std::size_t batch, std::size_t m, const ConvShape& g,
                      const float* a, const float* x, float* c,
                      RowEpilogue epilogue, const float* row_init) {
  const simd::SimdOps& ops = simd::ops();
  const std::size_t n = g.n(), k = g.k();
  const std::size_t ldp = packed_stride(n);
  const std::size_t rows = batch * m;
  const std::size_t grain = std::max(common::grain_for(n * k), 8 * kRowBlock);
  common::parallel_for(0, rows, grain, [&](std::size_t lo, std::size_t hi) {
    std::vector<float>& pack = pack_scratch();
    pack.resize(ldp * std::min(k, kKTile));
    std::size_t r = lo;
    while (r < hi) {
      const std::size_t s = r / m, i0 = r % m;
      const std::size_t nrows = std::min(hi - r, m - i0);
      // Tile rows walk the im2col rows in order: plane ci, then tap j,
      // straight from the sample's input planes.
      const float* plane = x + s * g.in_channels * n;
      TapCursor tap;
      auto pack_tile = [&](std::size_t k0, std::size_t k1, std::size_t& ldb) {
        for (std::size_t kk = k0; kk < k1; ++kk) {
          tap_row(plane, g.ww, tap.dw(g), pack.data() + (kk - k0) * ldp);
          if (tap.next(g)) plane += n;
        }
        ldb = ldp;
        return static_cast<const float*>(pack.data());
      };
      sample_rows_blocked(ops, n, k, a, k, 1, pack_tile, c + s * m * n, i0,
                          i0 + nrows, /*accumulate=*/false, epilogue,
                          row_init);
      r += nrows;
    }
  });
}

void im2row(const ConvShape& g, std::size_t batch, const float* x,
            float* rows) {
  const std::size_t n = g.n(), k = g.k();
  // Four im2col rows at a time are staged in L1 and written out by 4x4
  // SSE register transposes (scalar loops over the ragged edges), so the
  // full column matrix never exists. Pure data movement, parallel over
  // samples.
  common::parallel_for(
      0, batch, common::grain_for(k * n), [&](std::size_t lo, std::size_t hi) {
        std::vector<float> stage(4 * n);
        for (std::size_t s = lo; s < hi; ++s) {
          const float* plane = x + s * g.in_channels * n;
          float* __restrict dst = rows + s * n * k;
          TapCursor tap;
          for (std::size_t q = 0; q < k; q += 4) {
            const std::size_t m = std::min<std::size_t>(4, k - q);
            for (std::size_t t = 0; t < m; ++t) {
              tap_row(plane, g.ww, tap.dw(g), stage.data() + t * n);
              if (tap.next(g)) plane += n;
            }
            const float* __restrict src = stage.data();
            std::size_t p = 0;
#ifdef __SSE2__
            for (; m == 4 && p + 4 <= n; p += 4) {
              __m128 r0 = _mm_loadu_ps(src + p);
              __m128 r1 = _mm_loadu_ps(src + n + p);
              __m128 r2 = _mm_loadu_ps(src + 2 * n + p);
              __m128 r3 = _mm_loadu_ps(src + 3 * n + p);
              _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
              _mm_storeu_ps(dst + p * k + q, r0);
              _mm_storeu_ps(dst + (p + 1) * k + q, r1);
              _mm_storeu_ps(dst + (p + 2) * k + q, r2);
              _mm_storeu_ps(dst + (p + 3) * k + q, r3);
            }
#endif
            for (; p < n; ++p)
              for (std::size_t t = 0; t < m; ++t)
                dst[p * k + q + t] = src[t * n + p];
          }
        }
      });
}

void col2im_add(const ConvShape& g, std::size_t batch, const float* cols,
                float* grad_x) {
  const std::size_t n = g.n();
  // Taps of plane (s, ci) only touch that plane, so the plane is the
  // parallel unit and the tap order inside it is fixed. Plane p's column
  // rows are p * kw .. p * kw + kw - 1.
  common::parallel_for(
      0, batch * g.in_channels, common::grain_for(g.kw * n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          float* __restrict gi_plane = grad_x + p * n;
          const float* __restrict cg_row = cols + p * g.kw * n;
          TapCursor tap;
          for (std::size_t t = 0; t < g.kw; ++t, cg_row += n, tap.next(g)) {
            const std::ptrdiff_t dw = tap.dw(g);
            const TapSpan ws = tap_span(dw, n);
            for (std::size_t w = ws.lo; w < ws.hi; ++w)
              gi_plane[static_cast<std::ptrdiff_t>(w) + dw] += cg_row[w];
          }
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
      const float* b_s = b + s * b_stride;
      // A few rows reuse each B row too little to repay packing it.
      auto pack_tile = [&](std::size_t k0, std::size_t k1, std::size_t& ldb) {
        ldb = nrows <= kRowBlock ? n : packed_stride(n);
        if (ldb == n) return b_s + k0 * n;
        std::vector<float>& pack = pack_scratch();
        pack.resize(ldb * (k1 - k0));
        for (std::size_t kk = k0; kk < k1; ++kk)
          std::copy(b_s + kk * n, b_s + kk * n + n,
                    pack.data() + (kk - k0) * ldb);
        return static_cast<const float*>(pack.data());
      };
      sample_rows_blocked(ops, n, k, a, 1, m, pack_tile, c + s * c_stride, i0,
                          i0 + nrows, accumulate, nullptr, nullptr);
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

}  // namespace

std::uint64_t int8_kernel_dispatches() {
  return g_int8_dispatches.load(std::memory_order_relaxed);
}

void conv_s8u8_batched(std::size_t batch, const ConvShape& g,
                       const QuantizedWeights& qw, const std::uint8_t* xq,
                       std::uint8_t* panel, const float* bias, float* c,
                       std::size_t c_stride, RowEpilogue epilogue) {
  g_int8_dispatches.fetch_add(1, std::memory_order_relaxed);
  const std::size_t k = qw.k, ko = qw.ko, m = qw.rows;
  DEEPCSI_CHECK(k == g.k());
  const std::size_t ww = g.ww, kw = g.kw, pad_w = g.pad_w;
  const std::size_t n = g.n();  // 'same' + stride 1: one column per pixel
  const std::size_t np = (n + 7) & ~std::size_t{7};
  const std::size_t panel_stride = 8 * ko * np;
  const std::size_t plane_stride = g.in_channels * ww;  // bytes per sample

  // Pack the oct panel straight from the quantized input planes. Lane t
  // of oct o is im2col k-row kk = 8o + t, i.e. channel ci = kk / kw at
  // horizontal tap dj = kk % kw, so column j of that row is xq byte
  // (ci, j + dj - pad_w) — 128 (the u8 zero point) when the tap falls
  // outside the image, 0 for lanes past k. Taps of one oct never span
  // more than kw - 1 source positions, so the SIMD middle loop can run
  // wherever every live lane's 16-byte load is in-image; the scalar
  // edges handle padding. Pure data movement, parallel over (sample,
  // oct) rows without affecting determinism; tests/quantize_test.cc pins
  // the panel to the oct-pack of materialized im2col columns.
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

  // The GEMM: same (sample, row-block) walk and grain floor as
  // conv_f32_batched, so the int8 path inherits its load-balancing shape.
  const std::size_t lda = 8 * ko;
  const simd::SimdOps& ops = simd::ops();
  const std::size_t grain = std::max(common::grain_for(n * k), 8 * kRowBlock);
  common::parallel_for(0, batch * m, grain, [&](std::size_t lo, std::size_t hi) {
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
