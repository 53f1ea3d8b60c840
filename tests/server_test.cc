// net::Server's own policies, in process: the --model-watch hot swap and
// its "stable across two polls" rule, kill-and-restore from the periodic
// session snapshot, a subscriber's resubscribe after its verdict stream
// dropped, and the shed gate's hysteresis. These are the behaviours only
// `serve --listen` and `drive` have; running them here puts them under
// every sanitizer leg and a debugger.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace deepcsi {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// A fresh scratch directory per test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("server_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Weights plus .meta, the artifact swap_model loads.
void save_artifact(const core::Authenticator& auth, const fs::path& path) {
  auth.save(path.string());
  core::save_model_meta(path.string(),
                        {{"filters", core::quick_model_config().filters},
                         {"stride", auth.input_spec().subcarrier_stride},
                         {"classes", phy::kNumModules}});
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

dataset::InputSpec test_spec() {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  return spec;
}

// Port of the hot-swap drill: half the stream on the incumbent, the
// weights trio replaced the way a retrain pipeline does it (sidecars
// first, weights by copy + atomic rename), the watch picks it up, the
// rest of the stream runs on epoch 2 — one swap, no rollback, nothing
// dropped across the transition.
TEST(ServerTest, ModelWatchHotSwapsOnceWithoutDroppingReports) {
  const fs::path dir = scratch_dir("hotswap");
  const dataset::InputSpec spec = test_spec();
  core::Authenticator auth = tests::quick_authenticator(spec);
  save_artifact(auth, dir / "model.bin");
  save_artifact(tests::quick_authenticator(spec, 4321), dir / "candidate.bin");
  const auto stream = tests::multi_station_stream(3, 8);
  const std::size_t half = stream.size() / 2;

  const serving::ServeOptions o = tests::loopback_options(
      {{"publish", "1"}, {"model-watch", "20"}}, (dir / "model.bin").string());
  net::Server server(o, auth);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  auto subscriber =
      net::VerdictSubscriber::connect("127.0.0.1", server.publish_port());
  const std::span<const capture::ObservedFeedback> all(stream);
  tests::send_sharded(server.ingest_port(), all.first(half), 1);
  ASSERT_TRUE(tests::wait_classified(server, half));

  fs::copy_file(dir / "candidate.bin.meta", dir / "model.bin.meta",
                fs::copy_options::overwrite_existing);
  fs::copy_file(dir / "candidate.bin", dir / "model.bin.new");
  fs::rename(dir / "model.bin.new", dir / "model.bin");
  // The serve loop's cadence: tick, sleep, tick.
  const auto ticked_until = [&](auto pred) {
    return tests::eventually([&] {
      server.tick();
      std::this_thread::sleep_for(5ms);
      return pred();
    });
  };
  ASSERT_TRUE(ticked_until([&] { return auth.epoch_info().id == 2; }));

  tests::send_sharded(server.ingest_port(), all.subspan(half), 1);
  ASSERT_TRUE(ticked_until([&] {
    return server.service().stats().reports_classified == stream.size();
  }));
  serving::StatsSnapshot stats = server.drain();

  EXPECT_EQ(stats.lifecycle.epoch, 2u);
  EXPECT_EQ(stats.lifecycle.swaps_completed, 1u);
  EXPECT_EQ(stats.lifecycle.swaps_rolled_back, 0u);
  EXPECT_EQ(stats.queue.dropped_oldest, 0u);
  EXPECT_EQ(stats.queue.rejected, 0u);
  EXPECT_EQ(stats.ingest->reports_dropped, 0u);
  EXPECT_EQ(stats.reports_classified, stream.size());
  // Subscribers read the same counts in the stats frame.
  const tests::Published got = tests::read_published(subscriber);
  EXPECT_EQ(got.verdicts.size(), 3u);
  stats.publish.reset();
  EXPECT_EQ(got.stats, stats.render_json());
  fs::remove_all(dir);
}

// A weights file still being written (its stamp moves between two polls)
// is never handed to the loader; once it holds still it is loaded once.
TEST(ServerTest, ModelWatchSkipsAFileWhoseStampMovedBetweenPolls) {
  const fs::path dir = scratch_dir("watch");
  const dataset::InputSpec spec = test_spec();
  core::Authenticator auth = tests::quick_authenticator(spec);
  const fs::path model = dir / "model.bin";
  save_artifact(auth, model);
  save_artifact(tests::quick_authenticator(spec, 4321), dir / "candidate.bin");
  const std::string weights = read_bytes(dir / "candidate.bin");

  const serving::ServeOptions o =
      tests::loopback_options({{"model-watch", "20"}}, model.string());
  net::Server server(o, auth);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  // Each poll sees the watch interval passed.
  const auto poll = [&] {
    std::this_thread::sleep_for(25ms);
    server.tick();
  };

  // An upload in progress, as a non-atomic cp leaves it: half the bytes,
  // then the rest. Each poll sees a stamp that moved since the last one.
  write_bytes(model, weights.substr(0, weights.size() / 2));
  poll();
  write_bytes(model, weights);
  poll();
  EXPECT_EQ(auth.epoch_info().id, 1u);
  EXPECT_EQ(auth.swaps_rolled_back(), 0u);

  // Stable across two polls: swapped, and only once.
  poll();
  EXPECT_EQ(auth.epoch_info().id, 2u);
  poll();
  poll();
  EXPECT_EQ(auth.swaps_completed(), 1u);
  EXPECT_EQ(auth.swaps_rolled_back(), 0u);
  server.drain();
  fs::remove_all(dir);
}

// Port of the kill-and-restore drill: the periodic snapshot, copied aside
// before drain() (what `kill -9` leaves on disk), restores into a second
// server that finishes the stream with the verdicts of a run that never
// died.
TEST(ServerTest, PeriodicSnapshotRestoresIntoASecondServer) {
  const fs::path dir = scratch_dir("restore");
  core::Authenticator auth = tests::quick_authenticator(test_spec());
  const auto stream = tests::multi_station_stream(3, 8);
  const std::size_t half = stream.size() / 2;
  const std::span<const capture::ObservedFeedback> all(stream);

  serving::ServeOptions o = tests::loopback_options(
      {{"queue", "64"},
       {"consumers", "2"},
       {"batch", "4"},
       {"latency-us", "1000"},
       {"window", "5"},
       {"publish", "1"},
       {"state-file", (dir / "sessions.snap").string()},
       {"state-interval-ms", "20"}});
  const auto reference = tests::offline_verdicts(auth, o.service, stream);

  {
    net::Server first(o, auth);
    std::string err;
    ASSERT_TRUE(first.start(&err)) << err;
    tests::send_sharded(first.ingest_port(), all.first(half), 1);
    ASSERT_TRUE(tests::wait_classified(first, half));
    std::this_thread::sleep_for(25ms);
    first.tick();  // the interval has passed: the periodic snapshot
    fs::copy_file(dir / "sessions.snap", dir / "killed.snap");
    first.drain();
  }

  o.state_file = (dir / "killed.snap").string();
  net::Server second(o, auth);
  std::string err;
  ASSERT_TRUE(second.start(&err)) << err;
  EXPECT_EQ(second.service().sessions().num_stations(), 3u);
  auto subscriber =
      net::VerdictSubscriber::connect("127.0.0.1", second.publish_port());
  tests::send_sharded(second.ingest_port(), all.subspan(half), 1);
  ASSERT_TRUE(tests::wait_classified(second, stream.size() - half));
  second.drain();

  tests::expect_identical(second.service().sessions().snapshot(), reference);
  tests::expect_published(tests::read_published(subscriber), reference);
  fs::remove_all(dir);
}

// What `drive --resubscribe` relies on: the verdict stream drops before
// the final stats frame (a reset injected into the subscriber's
// receive), the subscriber redials as cmd_drive does, and the drain's
// full verdict snapshot and stats frame still reach it — so its last
// verdict per station equals an unbroken offline replay.
TEST(ServerTest, SeveredVerdictStreamResubscribesToTheFullSnapshot) {
  core::Authenticator auth = tests::quick_authenticator(test_spec());
  const auto stream = tests::multi_station_stream(3, 8);
  const std::size_t half = stream.size() / 2;
  const std::span<const capture::ObservedFeedback> all(stream);
  const serving::ServeOptions o = tests::loopback_options({{"publish", "1"}});
  const auto reference = tests::offline_verdicts(auth, o.service, stream);

  net::Server server(o, auth);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  auto subscriber =
      net::VerdictSubscriber::connect("127.0.0.1", server.publish_port());
  tests::send_sharded(server.ingest_port(), all.first(half), 1);
  ASSERT_TRUE(tests::wait_classified(server, half));
  // Once ingest has closed its connections nothing else receives, so the
  // one injected reset lands on the subscriber.
  ASSERT_TRUE(server.wait_until_idle_for(10s));
  {
    const common::failpoints::ScopedSpec sever("net.recv=err(ECONNRESET,n=1)");
    const tests::Published cut = tests::read_published(subscriber);
    EXPECT_FALSE(cut.stats.has_value());
    EXPECT_EQ(cut.error, net::FrameAssembler::Error::kNone);
  }
  // cmd_drive's redial: its --reconnect policy, 5 attempts when unset.
  net::ReconnectPolicy policy;
  policy.attempts = 5;
  ASSERT_TRUE(subscriber.reconnect(policy));

  tests::send_sharded(server.ingest_port(), all.subspan(half), 1);
  ASSERT_TRUE(tests::wait_classified(server, stream.size()));
  serving::StatsSnapshot stats = server.drain();

  const tests::Published got = tests::read_published(subscriber);
  ASSERT_TRUE(got.stats.has_value());
  stats.publish.reset();
  EXPECT_EQ(*got.stats, stats.render_json());
  tests::expect_published(got, reference);
}

// The shed gate refuses new connections once depth reaches the high
// watermark and admits them again only once it has fallen to the low one.
TEST(ServerTest, ShedGateHasHysteresisBetweenTheWatermarks) {
  constexpr std::size_t kHigh = 10, kLow = 4;
  bool shedding = false;
  const auto at = [&](std::size_t depth) {
    shedding = net::shed_state(depth, shedding, kHigh, kLow);
    return shedding;
  };
  // Rising to the high mark, hovering between the marks, falling to the
  // low mark, hovering again, rising again.
  EXPECT_FALSE(at(0));
  EXPECT_FALSE(at(9));
  EXPECT_TRUE(at(10));
  EXPECT_TRUE(at(12));
  EXPECT_TRUE(at(9));
  EXPECT_TRUE(at(5));
  EXPECT_FALSE(at(4));
  EXPECT_FALSE(at(5));
  EXPECT_FALSE(at(9));
  EXPECT_TRUE(at(10));
}

}  // namespace
}  // namespace deepcsi
