// Bounded-session-table semantics: TTL expiry and LRU ceiling eviction
// must forget the right stations, a station that reappears after
// eviction must start a brand-new window, snapshots must round-trip a
// partially-evicted table, and — the core contract — a surviving
// station's verdict must be bit-identical to what an UNBOUNDED table
// (any shard count) reports for the same prediction stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture/mac.h"
#include "common/hash.h"
#include "serving/session_table.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using serving::SessionConfig;
using serving::SessionTable;
using serving::SessionTableStats;
using serving::StationVerdict;

std::string scratch_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

capture::MacAddress station(std::uint64_t id) {
  return capture::MacAddress::for_fleet_station(id);
}

core::Authenticator::Prediction synth_prediction(std::uint64_t i) {
  core::Authenticator::Prediction p;
  p.module_id = static_cast<int>(common::mix64(i * 2 + 1) % 10);
  p.confidence =
      0.5 + static_cast<double>(common::mix64(i * 2 + 2) % 1000003) * 1e-7;
  return p;
}

TEST(SessionEvictTest, TtlExpiresIdleStations) {
  // One shard so the TTL sweep (which runs in the recorded station's
  // shard) deterministically sees every idle session.
  SessionConfig cfg;
  cfg.window = 5;
  cfg.num_shards = 1;
  cfg.ttl_s = 10.0;
  SessionTable table(cfg);

  // Stations 0..4 report at t=0..4, then go silent; station 99's report
  // moves the stream clock to 12.5 and triggers the sweep. Station k is
  // stale when k + 10 <= 12.5, i.e. stations 0, 1 and 2.
  for (std::uint64_t s = 0; s < 5; ++s)
    table.record(station(s), synth_prediction(s), static_cast<double>(s));
  ASSERT_EQ(table.num_stations(), 5u);

  table.record(station(99), synth_prediction(99), 12.5);
  EXPECT_FALSE(table.verdict(station(0)).has_value());
  EXPECT_FALSE(table.verdict(station(1)).has_value());
  EXPECT_FALSE(table.verdict(station(2)).has_value());
  EXPECT_TRUE(table.verdict(station(3)).has_value());
  EXPECT_TRUE(table.verdict(station(4)).has_value());
  EXPECT_TRUE(table.verdict(station(99)).has_value());

  const SessionTableStats st = table.stats();
  EXPECT_EQ(st.evicted_ttl, 3u);
  EXPECT_EQ(st.evicted_lru, 0u);
  EXPECT_EQ(st.stations, 3u);
  // Station 99 is inserted before the sweep runs, so occupancy peaked
  // at all six.
  EXPECT_EQ(st.peak_stations, 6u);
}

TEST(SessionEvictTest, TtlNeverEvictsTheReportingStation) {
  // A single station whose own reports are further apart than the TTL:
  // record() touches it to the LRU front before sweeping, so it must
  // survive its own staleness.
  SessionConfig cfg;
  cfg.window = 3;
  cfg.num_shards = 1;
  cfg.ttl_s = 1.0;
  SessionTable table(cfg);
  for (int i = 0; i < 5; ++i)
    table.record(station(7), synth_prediction(static_cast<std::uint64_t>(i)),
                 10.0 * i);
  const auto v = table.verdict(station(7));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->total_reports, 5u);
  EXPECT_EQ(table.stats().evicted_ttl, 0u);
}

TEST(SessionEvictTest, LruCeilingHoldsUnderPressure) {
  SessionConfig cfg;
  cfg.window = 5;
  cfg.num_shards = 4;
  cfg.max_stations = 64;
  SessionTable table(cfg);
  ASSERT_EQ(table.stats().station_ceiling, 64u);  // 4 shards x 16

  // 10x the ceiling in distinct stations: occupancy must never exceed
  // the ceiling, and the overflow must show up as LRU evictions.
  const std::uint64_t n = 640;
  for (std::uint64_t s = 0; s < n; ++s) {
    table.record(station(s), synth_prediction(s),
                 0.001 * static_cast<double>(s));
    ASSERT_LE(table.num_stations(), 64u);
  }
  const SessionTableStats st = table.stats();
  EXPECT_EQ(st.stations, 64u);
  EXPECT_EQ(st.evicted_lru, n - 64u);
  EXPECT_EQ(st.evicted_ttl, 0u);
  EXPECT_LE(st.approx_bytes,
            64u * SessionTable::session_footprint_bytes(cfg.window));
  // The survivors are the most recent arrivals in every shard — spot
  // check the very last station is resident and the very first is not.
  EXPECT_TRUE(table.verdict(station(n - 1)).has_value());
  EXPECT_FALSE(table.verdict(station(0)).has_value());
}

TEST(SessionEvictTest, MaxBytesTranslatesToAnEntryCeiling) {
  SessionConfig cfg;
  cfg.window = 31;
  cfg.num_shards = 2;
  cfg.max_bytes = 40 * SessionTable::session_footprint_bytes(cfg.window);
  SessionTable table(cfg);
  EXPECT_EQ(table.stats().station_ceiling, 40u);
  for (std::uint64_t s = 0; s < 200; ++s)
    table.record(station(s), synth_prediction(s), 0.0);
  EXPECT_LE(table.stats().approx_bytes, cfg.max_bytes);
}

TEST(SessionEvictTest, EvictedStationReappearsWithAFreshWindow) {
  SessionConfig cfg;
  cfg.window = 5;
  cfg.num_shards = 1;
  cfg.max_stations = 2;
  SessionTable table(cfg);

  // Fill station 1's window with module 3 votes, then push it out with
  // two newer stations.
  core::Authenticator::Prediction p3;
  p3.module_id = 3;
  p3.confidence = 0.9;
  for (int i = 0; i < 5; ++i) table.record(station(1), p3, 0.1 * i);
  table.record(station(2), synth_prediction(2), 1.0);
  table.record(station(3), synth_prediction(3), 1.1);
  ASSERT_FALSE(table.verdict(station(1)).has_value());

  // Station 1 returns voting module 8: no stale majority carry-over —
  // one vote, one report, changed=true, verdict is module 8 immediately.
  core::Authenticator::Prediction p8;
  p8.module_id = 8;
  p8.confidence = 0.7;
  const SessionTable::RecordResult r = table.record(station(1), p8, 2.0);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.verdict.module_id, 8);
  EXPECT_EQ(r.verdict.votes, 1u);
  EXPECT_EQ(r.verdict.window_size, 1u);
  EXPECT_EQ(r.verdict.total_reports, 1u);
  EXPECT_EQ(r.verdict.mean_confidence, 0.7);
}

TEST(SessionEvictTest, PartiallyEvictedTableRoundTripsThroughSnapshot) {
  const std::string path = scratch_path("partial_evict.snap");
  SessionConfig cfg;
  cfg.window = 7;
  cfg.num_shards = 4;
  cfg.max_stations = 32;
  SessionTable table(cfg);
  for (std::uint64_t i = 0; i < 500; ++i)
    table.record(station(common::mix64(i) % 100), synth_prediction(i),
                 0.01 * static_cast<double>(i));
  ASSERT_GT(table.stats().evicted_lru, 0u);  // the table really did evict
  table.save_snapshot(path);

  SessionTable restored(cfg);
  std::string err;
  ASSERT_EQ(restored.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kRestored)
      << err;
  tests::expect_identical(table.snapshot(), restored.snapshot());
  // The restored table keeps evicting: push past the ceiling again and
  // the cap still holds (LRU order was rebuilt from timestamps).
  for (std::uint64_t s = 1000; s < 1100; ++s) {
    restored.record(station(s), synth_prediction(s), 100.0);
    ASSERT_LE(restored.num_stations(), restored.stats().station_ceiling);
  }
  std::remove(path.c_str());
}

TEST(SessionEvictTest, SurvivorVerdictsAreBitIdenticalAcrossShardCounts) {
  // One prediction stream, four tables: an unbounded reference plus
  // bounded tables at 1/4/16 shards. Eviction MAY choose different
  // victims per shard layout — but any station a bounded table kept and
  // never evicted (lifetime report count matches the reference) must
  // report THE SAME verdict bit for bit: verdict math depends only on
  // the per-station stream, never on sharding.
  //
  // 16 "hot" stations report every other record, so they can never sink
  // to any shard's LRU tail; 1000 "cold" stations churn past the cap.
  constexpr std::uint64_t kHot = 16;
  SessionConfig unbounded;
  unbounded.window = 9;
  unbounded.num_shards = 8;
  SessionTable reference(unbounded);

  std::vector<std::unique_ptr<SessionTable>> bounded;
  for (const std::size_t shards : {1u, 4u, 16u}) {
    SessionConfig cfg;
    cfg.window = 9;
    cfg.num_shards = shards;
    cfg.max_stations = 256;
    bounded.push_back(std::make_unique<SessionTable>(cfg));
  }

  for (std::uint64_t i = 0; i < 8000; ++i) {
    const std::uint64_t id = (i % 2 == 0)
                                 ? (i / 2) % kHot
                                 : 1000 + common::mix64(i) % 1000;
    const capture::MacAddress mac = station(id);
    const core::Authenticator::Prediction p = synth_prediction(i);
    const double t = 0.01 * static_cast<double>(i);
    reference.record(mac, p, t);
    for (auto& table : bounded) table->record(mac, p, t);
  }

  std::map<std::uint64_t, StationVerdict> ref;
  for (const StationVerdict& v : reference.snapshot())
    ref[v.station.to_u64()] = v;

  for (auto& table : bounded) {
    std::size_t never_evicted = 0;
    for (const StationVerdict& v : table->snapshot()) {
      const StationVerdict& r = ref.at(v.station.to_u64());
      if (v.total_reports != r.total_reports) continue;  // evicted + reborn
      ++never_evicted;
      EXPECT_EQ(v.module_id, r.module_id);
      EXPECT_EQ(v.votes, r.votes);
      EXPECT_EQ(v.window_size, r.window_size);
      EXPECT_EQ(v.mean_confidence, r.mean_confidence);  // bit-exact doubles
      EXPECT_EQ(v.last_timestamp_s, r.last_timestamp_s);
    }
    // The invariant must be exercised, not vacuously true: at minimum
    // every hot station survived untouched.
    EXPECT_GE(never_evicted, kHot);
    for (std::uint64_t h = 0; h < kHot; ++h) {
      const auto v = table->verdict(station(h));
      ASSERT_TRUE(v.has_value()) << "hot station " << h << " was evicted";
      EXPECT_EQ(v->total_reports, ref.at(station(h).to_u64()).total_reports);
    }
  }
}

TEST(SessionEvictTest, RestoreRefusesEvictionConfigMismatch) {
  const std::string path = scratch_path("evict_mismatch.snap");
  SessionConfig cfg;
  cfg.window = 5;
  cfg.ttl_s = 30.0;
  cfg.max_stations = 100;
  SessionTable table(cfg);
  table.record(station(1), synth_prediction(1), 0.5);
  table.save_snapshot(path);

  // Same window, different eviction policy: the snapshot's occupancy was
  // shaped by a different forgetting rule, so loading it would smuggle
  // that history into this table. Refused whole, table untouched.
  SessionConfig other = cfg;
  other.max_stations = 50;
  SessionTable mismatched(other);
  mismatched.record(station(9), synth_prediction(9), 0.1);
  std::string err;
  EXPECT_EQ(mismatched.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kCorrupt);
  EXPECT_NE(err.find("eviction config mismatch"), std::string::npos) << err;
  EXPECT_TRUE(mismatched.verdict(station(9)).has_value());  // untouched

  SessionConfig other_ttl = cfg;
  other_ttl.ttl_s = 31.0;
  SessionTable mismatched_ttl(other_ttl);
  EXPECT_EQ(mismatched_ttl.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kCorrupt);
  EXPECT_NE(err.find("eviction config mismatch"), std::string::npos) << err;

  // The matching config still restores — the refusal is the mismatch,
  // not the presence of eviction settings.
  SessionTable matching(cfg);
  EXPECT_EQ(matching.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kRestored)
      << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepcsi
