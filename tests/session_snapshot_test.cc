// Crash-safe session persistence: a SessionTable snapshot written with
// save_snapshot and loaded with restore_snapshot must be
// indistinguishable — bit for bit, including the rolling-window
// confidence sums — from a table that never restarted, and any damaged
// file must be refused whole (kCorrupt) without touching the table's
// existing state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
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
using serving::StationVerdict;
using tests::expect_identical;

std::string scratch_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Deterministic prediction stream: station, module and confidence all
// derived from a counter through mix64, so every run (and both tables in
// a divergence check) sees the identical sequence.
core::Authenticator::Prediction synth_prediction(std::uint64_t i) {
  core::Authenticator::Prediction p;
  p.module_id = static_cast<int>(common::mix64(i * 2 + 1) % 10);
  // Irregular mantissas, not round numbers — bit-exactness must survive
  // real doubles.
  p.confidence =
      0.5 + static_cast<double>(common::mix64(i * 2 + 2) % 1000003) * 1e-7;
  return p;
}

void feed(SessionTable& table, std::uint64_t first, std::uint64_t count,
          int stations) {
  for (std::uint64_t i = first; i < first + count; ++i) {
    const auto station = capture::MacAddress::for_station(
        static_cast<int>(i % static_cast<std::uint64_t>(stations)));
    table.record(station, synth_prediction(i), 0.01 * static_cast<double>(i));
  }
}

TEST(SessionSnapshotTest, RoundTripIsFieldForFieldIdentical) {
  const std::string path = scratch_path("roundtrip.snap");
  SessionConfig cfg;
  cfg.window = 7;
  SessionTable table(cfg);
  feed(table, 0, 200, 5);  // windows full, counters past one window
  table.save_snapshot(path);

  SessionTable restored(cfg);
  std::string err;
  ASSERT_EQ(restored.restore_snapshot(path, &err), SessionTable::RestoreStatus::kRestored)
      << err;
  EXPECT_EQ(restored.num_stations(), table.num_stations());
  expect_identical(restored.snapshot(), table.snapshot());
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, RestoredTableContinuesExactlyLikeTheOriginal) {
  // The kill -9 scenario in miniature: snapshot mid-stream, keep feeding
  // BOTH the original and the restored copy the same tail, and demand the
  // verdicts never diverge — rolling majorities survive the restart.
  const std::string path = scratch_path("continue.snap");
  SessionConfig cfg;
  cfg.window = 9;
  SessionTable original(cfg);
  feed(original, 0, 123, 4);  // odd cut: windows mid-roll
  original.save_snapshot(path);

  SessionTable restored(cfg);
  ASSERT_EQ(restored.restore_snapshot(path), SessionTable::RestoreStatus::kRestored);

  feed(original, 123, 77, 4);
  feed(restored, 123, 77, 4);
  expect_identical(restored.snapshot(), original.snapshot());
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, EmptyTableRoundTrips) {
  const std::string path = scratch_path("empty.snap");
  SessionTable table(SessionConfig{});
  table.save_snapshot(path);
  SessionTable restored(SessionConfig{});
  ASSERT_EQ(restored.restore_snapshot(path), SessionTable::RestoreStatus::kRestored);
  EXPECT_EQ(restored.num_stations(), 0u);
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, MissingFileIsAColdStartNotAnError) {
  SessionTable table(SessionConfig{});
  std::string err = "untouched";
  EXPECT_EQ(table.restore_snapshot(scratch_path("never-written.snap"), &err),
            SessionTable::RestoreStatus::kNoFile);
}

TEST(SessionSnapshotTest, CorruptionIsRefusedWholeAndTheTableKeepsItsState) {
  const std::string path = scratch_path("corrupt.snap");
  SessionConfig cfg;
  cfg.window = 5;
  SessionTable source(cfg);
  feed(source, 0, 60, 3);
  source.save_snapshot(path);

  // Read the image, then write damaged variants over it.
  std::vector<std::uint8_t> image;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      image.insert(image.end(), buf, buf + n);
    std::fclose(f);
  }
  ASSERT_GT(image.size(), 32u);

  // A table with live state the corrupt restore must not disturb.
  SessionTable victim(cfg);
  feed(victim, 1000, 40, 2);
  const auto before = victim.snapshot();

  const auto write_variant = [&](std::vector<std::uint8_t> bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  };

  // Flip one payload byte: the CRC trailer must catch it.
  std::vector<std::uint8_t> flipped = image;
  flipped[image.size() / 2] ^= 0x40;
  write_variant(flipped);
  std::string err;
  EXPECT_EQ(victim.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kCorrupt);
  EXPECT_FALSE(err.empty());

  // Truncated mid-file.
  write_variant(std::vector<std::uint8_t>(image.begin(),
                                          image.begin() + image.size() / 2));
  EXPECT_EQ(victim.restore_snapshot(path),
            SessionTable::RestoreStatus::kCorrupt);

  // Wrong magic.
  std::vector<std::uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xFF;
  write_variant(bad_magic);
  EXPECT_EQ(victim.restore_snapshot(path),
            SessionTable::RestoreStatus::kCorrupt);

  // Shorter than any header.
  write_variant({0x01, 0x02, 0x03});
  EXPECT_EQ(victim.restore_snapshot(path),
            SessionTable::RestoreStatus::kCorrupt);

  // Every refusal left the victim exactly as it was.
  expect_identical(victim.snapshot(), before);
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, SnapshotSurvivesHotSwapWithDriftEwmaReset) {
  // The model-lifecycle contract: a snapshot written under serving epoch
  // N restores cleanly into a process that hot-swapped to epoch N+1.
  // Rolling windows, votes and lifetime counters carry over bit-for-bit
  // — verdict continuity does not care which weights produced the
  // predictions. The drift EWMA does care (it measures THIS model's
  // confidence), so it is deliberately NOT in the image: every restored
  // session re-warms from zero observations, exactly like reset_drift()
  // after an in-process swap.
  const std::string path = scratch_path("epoch-swap.snap");
  SessionConfig cfg;
  cfg.window = 9;
  cfg.drift_threshold = 0.9;  // synth confidences sit near 0.5: all drift
  cfg.drift_min_reports = 4;
  SessionTable original(cfg);
  feed(original, 0, 123, 4);
  ASSERT_GT(original.stats().stations_drifting, 0u);
  for (const StationVerdict& v : original.snapshot()) {
    EXPECT_GT(v.confidence_ewma, 0.0);
    EXPECT_TRUE(v.drifting);
  }
  original.save_snapshot(path);  // the "epoch N" image

  // "Epoch N+1": the original swaps in-process (reset_drift), while a
  // second process restores the same image cold. Both must agree.
  original.reset_drift();
  EXPECT_EQ(original.stats().stations_drifting, 0u);
  SessionTable restored(cfg);
  ASSERT_EQ(restored.restore_snapshot(path),
            SessionTable::RestoreStatus::kRestored);
  EXPECT_EQ(restored.stats().stations_drifting, 0u);
  for (const StationVerdict& v : restored.snapshot()) {
    EXPECT_EQ(v.confidence_ewma, 0.0);  // not persisted, by design
    EXPECT_FALSE(v.drifting);
  }
  expect_identical(restored.snapshot(), original.snapshot());

  // Under the new epoch both re-warm identically: same tail of
  // predictions, same EWMAs, same drift flags, same verdicts.
  feed(original, 123, 77, 4);
  feed(restored, 123, 77, 4);
  expect_identical(restored.snapshot(), original.snapshot());
  const auto a = original.snapshot();
  const auto b = restored.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].confidence_ewma, b[i].confidence_ewma);
    EXPECT_EQ(a[i].drifting, b[i].drifting);
  }
  EXPECT_EQ(original.stats().stations_drifting,
            restored.stats().stations_drifting);
  EXPECT_GT(restored.stats().stations_drifting, 0u);  // re-flagged by tail
  std::remove(path.c_str());
}

TEST(SessionSnapshotTest, WindowMismatchIsRefused) {
  // A snapshot taken under one verdict window cannot be folded into a
  // table configured with another: the rolling majorities would silently
  // mean something different. Refuse instead.
  const std::string path = scratch_path("window.snap");
  SessionConfig cfg;
  cfg.window = 7;
  SessionTable source(cfg);
  feed(source, 0, 30, 2);
  source.save_snapshot(path);

  SessionConfig other = cfg;
  other.window = 11;
  SessionTable victim(other);
  std::string err;
  EXPECT_EQ(victim.restore_snapshot(path, &err),
            SessionTable::RestoreStatus::kCorrupt);
  EXPECT_NE(err.find("window"), std::string::npos) << err;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepcsi
