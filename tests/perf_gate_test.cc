// Timing and resource gates. Each is measured inside one process — two
// paths timed back to back on the same core, or a resource held against
// its budget — so host speed cancels out of the bound:
//
//   1. Paper model, one thread, batch 64: the avx2_int8 forward runs at
//      least 2x the fp32 avx2 forward, and the int8 kernels really ran.
//   2. reconstruct_v_into rebuilds a sub-carrier at least 3x faster than
//      the matrix-product reconstruct_v_reference.
//   3. Fleet soak: 10^5 distinct stations x 2 reports against a
//      32768-entry session ceiling keep occupancy at the ceiling, table
//      bytes within budget, RSS growth within budget + 96 MB and batch
//      p99 within max(10 x p50, 100 ms).
//   4. An unarmed failpoint check costs at most 10 ns.
//
// Registered only in non-sanitizer builds, with the `perf` ctest label
// and RUN_SERIAL: sanitizers and neighbouring tests distort timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/rss.h"
#include "core/model.h"
#include "dataset/features.h"
#include "feedback/angles.h"
#include "linalg/svd.h"
#include "nn/gemm.h"
#include "nn/infer.h"
#include "nn/quantize.h"
#include "nn/simd.h"
#include "serving/fleet.h"
#include "serving/service.h"
#include "fleet_model.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using tests::BackendGuard;
using tests::has_backend;
using tests::ThreadGuard;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Reports/s of `reps` calls of `body`, each classifying `n` reports,
// after one warm-up call. The best of three windows, so scheduler steal
// on a shared host does not write a phantom regression.
template <typename Body>
double best_reports_per_second(std::size_t n, int reps, Body&& body) {
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    body();
    const auto start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) body();
    const double s = seconds_since(start);
    if (s > 0.0) best = std::max(best, static_cast<double>(n) * reps / s);
  }
  return best;
}

// Name of the int8 conv GEMM kernel the active table runs.
const char* active_int8_gemm() {
  for (const simd::Int8GemmKernel& k : simd::int8_gemm_kernels())
    if (k.fn == simd::ops().gemm_s8u8) return k.name;
  return "int8ref";
}

// The paper architecture (5 convs x 128 filters, ~489k parameters) at
// the full 234-column input width, untrained and calibrated on synthetic
// activations. Its forward is ~77% conv GEMM, the workload the int8
// backend exists for; at the quick scale about half the forward is
// non-GEMM work, so no GEMM kernel could reach 2x there. Verdict parity
// under int8 is checked by pipeline_batch_test and fleet_test.
TEST(PerfGateTest, PaperModelInt8ForwardIsAtLeastTwiceAvx2) {
  if (!has_backend(simd::Backend::kAvx2Int8))
    GTEST_SKIP() << "avx2_int8 unavailable on this host/build: the int8 "
                    "paper-model gate did not run";
  ThreadGuard thread_guard;
  BackendGuard backend_guard;
  common::set_num_threads(1);

  const dataset::InputSpec spec;  // full sub-carrier width
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::Sequential paper = core::build_deepcsi_model(
      static_cast<int>(c), static_cast<int>(w), phy::kNumModules,
      core::paper_model_config());
  constexpr std::size_t kBatch = 64;
  nn::Tensor x({kBatch, c, 1, w});
  std::mt19937_64 rng(4242);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (std::size_t i = 0; i < x.numel(); ++i) x.data()[i] = dist(rng);
  nn::apply_calibration(paper, nn::calibrate_input_ranges(paper, x));
  const nn::SharedModel model(std::move(paper));

  double fp32 = 0.0;
  double int8 = 0.0;
  std::uint64_t int8_dispatches = 0;
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, simd::Backend::kAvx2Int8}) {
    ASSERT_TRUE(simd::set_active(backend));
    nn::InferenceContext ctx(model, {c, 1, w}, kBatch);
    std::copy(x.data(), x.data() + x.numel(), ctx.input());
    const std::uint64_t before = nn::int8_kernel_dispatches();
    const double rps =
        best_reports_per_second(kBatch, 5, [&] { ctx.run(kBatch); });
    // The int8 row names the conv GEMM kernel it ran, so a thin or red
    // ratio can be traced to the kernel this host selected.
    const bool quantized = backend == simd::Backend::kAvx2Int8;
    std::printf("paper model, 1 thread, batch %zu, %s: %.1f reports/s%s%s\n",
                kBatch, simd::name(backend), rps,
                quantized ? ", conv GEMM kernel " : "",
                quantized ? active_int8_gemm() : "");
    if (backend == simd::Backend::kAvx2) {
      fp32 = rps;
    } else {
      int8 = rps;
      int8_dispatches = nn::int8_kernel_dispatches() - before;
    }
  }
  EXPECT_GT(int8_dispatches, 0u) << "int8 kernels never dispatched";
  ASSERT_GT(fp32, 0.0);
  EXPECT_GE(int8 / fp32, 2.0) << "avx2_int8 " << int8 << " vs avx2 " << fp32
                              << " reports/s";
}

// Quantization-grid angle sets for a pool of distinct 3x2 V matrices:
// exactly what dequantize hands to reconstruction during ingest.
std::vector<feedback::BfmAngles> make_angle_pool(std::size_t count) {
  std::mt19937_64 rng(42);
  const auto cfg = feedback::mu_mimo_codebook_high();
  std::vector<feedback::BfmAngles> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const linalg::CMat v =
        linalg::svd(linalg::CMat::random_gaussian(3, 2, rng).transpose())
            .v.first_columns(2);
    pool.push_back(feedback::dequantize(
        feedback::quantize(feedback::decompose_v(v), cfg), cfg));
  }
  return pool;
}

// Runs fn over the pool until 0.25 s have elapsed; returns calls/s.
template <typename Fn>
double calls_per_second(const std::vector<feedback::BfmAngles>& pool,
                        Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    for (const feedback::BfmAngles& a : pool) fn(a);
    calls += pool.size();
    elapsed = seconds_since(start);
  } while (elapsed < 0.25);
  return static_cast<double>(calls) / elapsed;
}

// The target is 5x; the gate sits at 3x, so a fallback to
// matrix-product cost (~1x) fails while noise on a shared host does not.
TEST(PerfGateTest, ReconstructIntoIsAtLeastThreeTimesTheReference) {
  const std::vector<feedback::BfmAngles> pool = make_angle_pool(64);
  double sink = 0.0;
  const double reference =
      calls_per_second(pool, [&](const feedback::BfmAngles& a) {
        sink += feedback::reconstruct_v_reference(a).frobenius_norm();
      });
  linalg::CMat scratch;
  const double in_place =
      calls_per_second(pool, [&](const feedback::BfmAngles& a) {
        feedback::reconstruct_v_into(a, &scratch);
        sink += scratch(0, 0).real();
      });
  std::printf("reconstruct_v (M=3, NSS=2): reference %.0f, in place %.0f "
              "sub-carriers/s (sink %.3g)\n",
              reference, in_place, sink);
  EXPECT_GE(in_place / reference, 3.0);
}

// 10^5 distinct beamformees x 2 reports through ingest -> scheduler ->
// classify -> sessions against a 32768-entry LRU ceiling. Occupancy and
// table bytes are exact; RSS is a coarse leak guard (an unbounded table
// would blow through it at this scale), and p99 must stay within 10x
// p50 or 100 ms, whichever is larger.
TEST(PerfGateTest, FleetSoakHoldsTheSessionCeilingAndItsBudgets) {
  const core::Authenticator auth = tests::train_fleet_template_authenticator();

  serving::FleetConfig fc;
  fc.stations = 100000;
  fc.reports_per_station = 2;
  fc.mobile_fraction = 0.2;
  fc.confusion_fraction = 0.05;

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 1024;  // keeps the queue out of the RSS story
  cfg.scheduler.max_batch = 64;
  cfg.scheduler.max_latency = std::chrono::milliseconds(2);
  cfg.consumers = 2;
  cfg.sessions.window = 31;
  cfg.sessions.num_shards = 64;
  cfg.sessions.max_stations = 32768;

  const std::size_t rss_before = common::process_rss_bytes();
  const serving::FleetGenerator gen(fc);
  const auto start = std::chrono::steady_clock::now();
  serving::AuthService service(auth, cfg);
  const serving::ReplayResult fr =
      serving::run_fleet(service, gen, /*producers=*/4);
  const double seconds = seconds_since(start);
  const std::size_t rss_after = common::process_rss_bytes();
  const serving::StatsSnapshot stats = service.stats();

  const std::size_t session_budget =
      cfg.sessions.max_stations *
      serving::SessionTable::session_footprint_bytes(cfg.sessions.window);
  const double mb = 1024.0 * 1024.0;
  const double rss_delta_mb =
      (rss_after > rss_before && rss_before > 0)
          ? static_cast<double>(rss_after - rss_before) / mb
          : 0.0;
  std::printf("fleet soak: %zu/%zu reports classified in %.1f s; batch "
              "p50 %.2f ms, p99 %.2f ms; %zu stations resident; table "
              "%.1f MB of %.1f MB; rss delta %.1f MB\n",
              stats.reports_classified, fr.offered, seconds,
              stats.batch_latency_p50_ms, stats.batch_latency_p99_ms,
              stats.sessions.stations,
              static_cast<double>(stats.sessions.approx_bytes) / mb,
              static_cast<double>(session_budget) / mb, rss_delta_mb);

  EXPECT_EQ(stats.sessions.station_ceiling, cfg.sessions.max_stations);
  EXPECT_EQ(stats.sessions.stations, stats.sessions.station_ceiling);
  EXPECT_LE(stats.sessions.approx_bytes, session_budget);
  if (rss_after > 0) {  // 0: the platform cannot report RSS
    EXPECT_LE(rss_delta_mb, static_cast<double>(session_budget) / mb + 96.0);
  }
  EXPECT_LE(stats.batch_latency_p99_ms,
            std::max(10.0 * stats.batch_latency_p50_ms, 100.0));
}

// What every sys_recv / sys_send / queue.push pays for being injectable.
// The budget was fixed at 10 ns before measuring: a relaxed atomic load
// reads under 2 ns, anything slower has grown a lock or a branch.
TEST(PerfGateTest, UnarmedFailpointCheckCostsAtMostTenNanoseconds) {
  static common::Failpoint fp("perf_gate.disabled");
  constexpr std::size_t kIters = 10'000'000;
  std::size_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kIters; ++i)
    if (fp.evaluate()) ++fired;
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(kIters);
  DEEPCSI_CHECK(fired == 0);  // unarmed — and keeps the loop observable
  std::printf("unarmed failpoint check: %.2f ns/call\n", ns);
  EXPECT_LE(ns, 10.0);
}

}  // namespace
}  // namespace deepcsi
