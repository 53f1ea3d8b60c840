// Fleet driver: the template-pooled scale generator must be a pure
// function of its config (bit-identical reports across instances and
// runs), model its scenario knobs (mobility churn, cross-beamformee
// confusion) observably, and soak a bounded AuthService end to end with
// survivor verdicts bit-identical to an unbounded run, and resident
// verdicts under avx2_int8 equal to the fp32 avx2 run.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "feedback/bitpack.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "serving/fleet.h"
#include "serving/service.h"
#include "fleet_model.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using serving::FleetConfig;
using serving::FleetGenerator;
using serving::ReplayResult;

// Small pool, real pipeline: 3 modules x 2 positions x 2 classes.
FleetConfig small_fleet(std::uint64_t stations) {
  FleetConfig fc;
  fc.stations = stations;
  fc.reports_per_station = 2;
  fc.modules = 3;
  fc.positions = 2;
  fc.station_classes = 2;
  fc.mobile_fraction = 0.2;
  fc.seed = 23;
  return fc;
}

core::Authenticator make_authenticator() {
  const dataset::InputSpec spec;
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, core::quick_model_config()),
      spec);
}

TEST(FleetTest, ReportsAreAPureFunctionOfConfig) {
  const FleetConfig fc = small_fleet(50);
  const FleetGenerator a(fc);
  const FleetGenerator b(fc);
  ASSERT_EQ(a.num_templates(), 12u);  // 3 x 2 x 2 x 1
  for (const std::uint64_t s : {0ull, 7ull, 49ull}) {
    for (std::size_t j = 0; j < fc.reports_per_station; ++j) {
      const capture::ObservedFeedback ra = a.report(s, j);
      const capture::ObservedFeedback rb = b.report(s, j);
      EXPECT_EQ(ra.beamformee, rb.beamformee);
      EXPECT_EQ(ra.beamformer, rb.beamformer);
      EXPECT_EQ(ra.timestamp_s, rb.timestamp_s);
      EXPECT_EQ(feedback::pack_report(ra.report),
                feedback::pack_report(rb.report));
    }
  }
}

TEST(FleetTest, StationsAreDistinctAndCarryTheirGroundTruthModule) {
  const FleetConfig fc = small_fleet(64);
  const FleetGenerator gen(fc);
  std::map<std::uint64_t, bool> macs;
  for (std::uint64_t s = 0; s < fc.stations; ++s) {
    const capture::ObservedFeedback obs = gen.report(s, 0);
    EXPECT_FALSE(macs.count(obs.beamformee.to_u64())) << "MAC collision";
    macs[obs.beamformee.to_u64()] = true;
    EXPECT_EQ(gen.expected_module(s),
              static_cast<int>(s % static_cast<std::uint64_t>(fc.modules)));
    // Round 0 always transmits the ground-truth module's fingerprint.
    EXPECT_EQ(obs.beamformer,
              capture::MacAddress::for_module(gen.expected_module(s)));
  }
}

TEST(FleetTest, TimestampsAdvanceInStreamTimePerStation) {
  const FleetConfig fc = small_fleet(10);
  const FleetGenerator gen(fc);
  for (std::uint64_t s = 0; s < fc.stations; ++s) {
    const double t0 = gen.report(s, 0).timestamp_s;
    const double t1 = gen.report(s, 1).timestamp_s;
    EXPECT_GE(t0, 0.0);
    EXPECT_NEAR(t1 - t0, fc.report_interval_s, 1e-12);
  }
}

TEST(FleetTest, ConfusedStationsInterleaveTheNeighbourModule) {
  FleetConfig fc = small_fleet(30);
  fc.confusion_fraction = 1.0;  // every station is confused
  const FleetGenerator gen(fc);
  for (std::uint64_t s = 0; s < fc.stations; ++s) {
    ASSERT_TRUE(gen.is_confused(s));
    const int truth = gen.expected_module(s);
    // Even rounds carry the true module, odd rounds the neighbour — the
    // cross-beamformee contamination the paper's figs 9-11 study.
    EXPECT_EQ(gen.report(s, 0).beamformer,
              capture::MacAddress::for_module(truth));
    EXPECT_EQ(gen.report(s, 1).beamformer,
              capture::MacAddress::for_module((truth + 1) % fc.modules));
  }
}

TEST(FleetTest, MobileStationsChurnTheirTemplateStaticOnesDoNot) {
  FleetConfig fc = small_fleet(40);
  fc.mobile_fraction = 1.0;
  fc.reports_per_station = 2;
  const FleetGenerator mobile_gen(fc);
  fc.mobile_fraction = 0.0;
  const FleetGenerator static_gen(fc);

  std::size_t moved = 0;
  for (std::uint64_t s = 0; s < fc.stations; ++s) {
    // Static: both reports come from the same (module, position, class)
    // template (snapshots_per_template=1 keeps the snapshot draw fixed).
    EXPECT_EQ(feedback::pack_report(static_gen.report(s, 0).report),
              feedback::pack_report(static_gen.report(s, 1).report));
    if (feedback::pack_report(mobile_gen.report(s, 0).report) !=
        feedback::pack_report(mobile_gen.report(s, 1).report))
      ++moved;
  }
  // Every mobile station steps the position grid each round; with 2
  // positions that is a different template every time.
  EXPECT_EQ(moved, fc.stations);
}

// 200 distinct stations x 2 rounds against a 64-entry ceiling: the
// service must accept everything, hold occupancy at the ceiling, and
// evict under LRU pressure — the bounded-memory half of the acceptance
// bar, end to end through ingest -> scheduler -> sessions.
TEST(FleetTest, BoundedServiceHoldsTheCeilingUnderFleetPressure) {
  const core::Authenticator auth = make_authenticator();
  const FleetConfig fc = small_fleet(200);
  const FleetGenerator gen(fc);

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 256;
  cfg.scheduler.max_batch = 16;
  cfg.consumers = 2;
  cfg.sessions.window = 5;
  cfg.sessions.num_shards = 4;
  cfg.sessions.max_stations = 64;
  serving::AuthService service(auth, cfg);
  const ReplayResult fr = serving::run_fleet(service, gen, /*producers=*/3);
  EXPECT_EQ(fr.offered, 400u);   // 200 stations x 2 reports
  EXPECT_EQ(fr.accepted, 400u);  // kBlock never drops

  const serving::StatsSnapshot s = service.stats();
  EXPECT_EQ(s.reports_classified, 400u);
  EXPECT_LE(s.sessions.stations, s.sessions.station_ceiling);
  EXPECT_EQ(s.sessions.station_ceiling, 64u);
  EXPECT_GT(s.sessions.evicted_lru, 0u);  // 200 distinct vs 64-entry cap
  EXPECT_LE(s.sessions.approx_bytes,
            64u * serving::SessionTable::session_footprint_bytes(
                      cfg.sessions.window));
}

// The determinism half: stations still resident in a bounded service
// (never evicted — a single-round fleet cannot be reborn) must carry
// verdicts bit-identical to an unbounded service with different shard,
// lane, consumer, and producer counts.
TEST(FleetTest, ResidentVerdictsAreBitIdenticalToAnUnboundedService) {
  const core::Authenticator auth = make_authenticator();
  FleetConfig fc = small_fleet(200);
  fc.reports_per_station = 1;  // no rebirth: residents == never-evicted
  const FleetGenerator gen(fc);

  serving::ServiceConfig bounded_cfg;
  bounded_cfg.queue_capacity = 256;
  bounded_cfg.scheduler.max_batch = 16;
  bounded_cfg.consumers = 2;
  bounded_cfg.sessions.window = 5;
  bounded_cfg.sessions.num_shards = 4;
  bounded_cfg.sessions.max_stations = 64;
  serving::AuthService bounded(auth, bounded_cfg);
  serving::run_fleet(bounded, gen, /*producers=*/3);

  serving::ServiceConfig unbounded_cfg = bounded_cfg;
  unbounded_cfg.sessions.max_stations = 0;
  unbounded_cfg.sessions.num_shards = 16;  // different shard AND lane count
  unbounded_cfg.consumers = 1;
  serving::AuthService unbounded(auth, unbounded_cfg);
  serving::run_fleet(unbounded, gen, /*producers=*/1);

  std::map<std::uint64_t, serving::StationVerdict> ref;
  for (const serving::StationVerdict& v : unbounded.sessions().snapshot())
    ref[v.station.to_u64()] = v;
  ASSERT_EQ(ref.size(), 200u);

  const std::vector<serving::StationVerdict> residents =
      bounded.sessions().snapshot();
  ASSERT_EQ(residents.size(), 64u);  // ceiling reached, never exceeded
  for (const serving::StationVerdict& v : residents) {
    const serving::StationVerdict& r = ref.at(v.station.to_u64());
    EXPECT_EQ(v.module_id, r.module_id);
    EXPECT_EQ(v.votes, r.votes);
    EXPECT_EQ(v.window_size, r.window_size);
    EXPECT_EQ(v.total_reports, r.total_reports);
    EXPECT_EQ(v.mean_confidence, r.mean_confidence);  // bit-exact
    EXPECT_EQ(v.last_timestamp_s, r.last_timestamp_s);
  }
}

// The accuracy-parity contract at fleet scale: every resident station's
// verdict under avx2_int8 equals the fp32 avx2 run exactly — module,
// votes, window, report count and timestamp. mean_confidence is left
// out: int8 logits differ from fp32 in low-order bits by design, and
// the contract preserves classifications, not probabilities. The table
// is unbounded so both runs keep every station: under an LRU ceiling
// the resident set depends on the producer/consumer interleaving, not
// the backend, and a set diff would mask the verdict diff.
TEST(FleetTest, Int8ResidentVerdictsMatchTheFp32Avx2Run) {
  if (!tests::has_backend(simd::Backend::kAvx2Int8))
    GTEST_SKIP() << "avx2_int8 unavailable on this host/build";
  tests::BackendGuard backend_guard;
  const core::Authenticator auth = tests::train_fleet_template_authenticator();

  FleetConfig fc;
  fc.stations = 2000;
  fc.reports_per_station = 1;
  const FleetGenerator gen(fc);
  serving::ServiceConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.scheduler.max_batch = 64;
  cfg.consumers = 2;
  cfg.sessions.window = 31;
  cfg.sessions.num_shards = 8;
  cfg.sessions.max_stations = 0;  // unbounded: resident set == fleet

  std::map<std::uint64_t, serving::StationVerdict> fp32;
  std::map<std::uint64_t, serving::StationVerdict> int8;
  std::uint64_t int8_dispatches = 0;
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, simd::Backend::kAvx2Int8}) {
    ASSERT_TRUE(simd::set_active(backend));
    const std::uint64_t before = nn::int8_kernel_dispatches();
    serving::AuthService service(auth, cfg);
    serving::run_fleet(service, gen, /*producers=*/2);
    auto& dst = backend == simd::Backend::kAvx2 ? fp32 : int8;
    for (const serving::StationVerdict& v : service.sessions().snapshot())
      dst[v.station.to_u64()] = v;
    if (backend == simd::Backend::kAvx2Int8)
      int8_dispatches = nn::int8_kernel_dispatches() - before;
  }
  EXPECT_GT(int8_dispatches, 0u) << "int8 kernels never dispatched";
  ASSERT_EQ(fp32.size(), fc.stations);
  ASSERT_EQ(int8.size(), fp32.size());
  for (const auto& [station, v] : int8) {
    const serving::StationVerdict& r = fp32.at(station);
    EXPECT_EQ(v.module_id, r.module_id) << "station " << station;
    EXPECT_EQ(v.votes, r.votes) << "station " << station;
    EXPECT_EQ(v.window_size, r.window_size) << "station " << station;
    EXPECT_EQ(v.total_reports, r.total_reports) << "station " << station;
    EXPECT_EQ(v.last_timestamp_s, r.last_timestamp_s) << "station " << station;
  }
}

}  // namespace
}  // namespace deepcsi
