// The chaos harness (`ctest -L chaos`): seeded failpoint storms over the
// in-process loopback stack, asserting the robustness contracts the
// serving path advertises —
//   * lossless injections (EAGAIN, short reads/writes, queue
//     backpressure) leave the published verdicts EXACTLY equal to an
//     undisturbed offline replay;
//   * connection-killing injections plus client reconnect deliver every
//     report exactly once (whole-frame resend + server-side discard of
//     partial trailing bytes);
//   * model swaps shot down mid-flight roll back without moving a
//     verdict.
// The stacks are net::Server, the composition `serve --listen` runs.
// (Kill-and-restore lives with the Server's other policies in
// server_test.)
// Everything is seeded through the failpoint specs, so a red run here is
// a deterministic repro, not a flake.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "common/failpoint.h"
#include "common/report_queue.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/server.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using namespace std::chrono_literals;
using common::failpoints::ScopedSpec;

// ----------------------------------------------------- queue.push storms

TEST(ChaosTest, QueuePushFailpointDrivesBothBackpressurePaths) {
  common::ReportQueue<int> queue(16, common::OverflowPolicy::kBlock);
  const std::uint64_t fires_before = common::failpoints::fire_count("queue.push");

  {
    // err(EAGAIN) = "momentarily full": the caller must see kWouldBlock
    // and keep the item (lossless parking, like the ingest front end).
    ScopedSpec spec("queue.push=err(EAGAIN,n=3)");
    int item = 7;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(queue.try_push(item), common::PushStatus::kWouldBlock);
      EXPECT_EQ(item, 7);  // not consumed
    }
    EXPECT_EQ(queue.try_push(item), common::PushStatus::kAccepted);
    EXPECT_EQ(queue.stats().would_block, 3u);
    EXPECT_EQ(queue.stats().pushed, 1u);
  }
  {
    // reject = admission refusal: the item is shed and counted.
    ScopedSpec spec("queue.push=reject(n=2)");
    int item = 9;
    EXPECT_EQ(queue.try_push(item), common::PushStatus::kRejected);
    EXPECT_EQ(queue.try_push(item), common::PushStatus::kRejected);
    EXPECT_EQ(queue.try_push(item), common::PushStatus::kAccepted);
    EXPECT_EQ(queue.stats().rejected, 2u);
  }
  EXPECT_EQ(common::failpoints::fire_count("queue.push"), fires_before + 5);
}

// --------------------------------------------- lossless storm, full stack

TEST(ChaosTest, LosslessStormPreservesVerdictParityEndToEnd) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = tests::quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(4, 5);
  const serving::ServeOptions o = tests::loopback_options(
      {{"queue", "64"}, {"consumers", "2"}, {"batch", "8"}, {"publish", "1"}});
  // Undisturbed offline reference, computed BEFORE any storm is armed.
  const auto offline = tests::offline_verdicts(auth, o.service, stream);

  // Every injection here is lossless by design —
  //   net.send err(EAGAIN) / short: write_all and the publisher
  //     retry/rearm;
  //   net.recv short / err(EAGAIN): reassembly handles any framing, and
  //     level-triggered epoll and the subscriber retry;
  //   queue.push err(EAGAIN): the ingest server parks the report and
  //     retries (TCP flow control), never dropping it.
  // So the verdicts must come out EXACTLY as in the calm run.
  for (const char* storm_spec :
       {"net.send=err(EAGAIN,p=0.2,seed=11);"
        "net.recv=short(p=0.3,seed=13);"
        "queue.push=err(EAGAIN,p=0.15,seed=17)",
        "net.send=short(p=0.3,seed=7);"
        "net.recv=err(EAGAIN,p=0.3,seed=4);"
        "queue.push=err(EAGAIN,p=0.1,seed=3)"}) {
    SCOPED_TRACE(storm_spec);
    const std::uint64_t sends = common::failpoints::fire_count("net.send");
    const std::uint64_t recvs = common::failpoints::fire_count("net.recv");
    ScopedSpec storm(storm_spec);
    net::Server server(o, auth);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    auto subscriber =
        net::VerdictSubscriber::connect("127.0.0.1", server.publish_port());
    tests::send_sharded(server.ingest_port(), stream, 3);
    ASSERT_TRUE(tests::wait_classified(server, stream.size()));
    const serving::StatsSnapshot stats = server.drain();

    // The storm actually happened...
    EXPECT_GT(common::failpoints::fire_count("net.send"), sends);
    EXPECT_GT(common::failpoints::fire_count("net.recv"), recvs);
    // ...and changed nothing: the server-side table and what the
    // subscriber received through its own disturbed reads both match the
    // calm replay, bit for bit on the doubles.
    tests::expect_identical(server.service().sessions().snapshot(), offline);
    tests::expect_published(tests::read_published(subscriber), offline);
    EXPECT_EQ(stats.ingest->reports_dropped, 0u);
    EXPECT_EQ(stats.ingest->protocol_errors, 0u);
  }
}

// --------------------------------------------- reset storm + reconnect

TEST(ChaosTest, InjectedResetsWithReconnectDeliverEveryReportExactlyOnce) {
  // Connection-killing injections are NOT lossless at the socket level —
  // a fired net.send leaves an incomplete frame on the wire. The
  // exactly-once contract is the layer above: the client redials and
  // resends the WHOLE frame, the server discards the partial tail at
  // EOF, so every report lands exactly once. (No live publisher here:
  // its sends share the net.send site, and killing the verdict stream is
  // the subscriber-reconnect scenario of `drive --resubscribe`, covered
  // by ServerTest.SeveredVerdictStreamResubscribesToTheFullSnapshot.)
  struct Sink {
    std::mutex mu;
    std::vector<double> timestamps;
  };
  auto sink = std::make_shared<Sink>();
  net::TcpIngestServer server(
      {}, [sink](capture::ObservedFeedback& obs) {
        std::lock_guard<std::mutex> lock(sink->mu);
        sink->timestamps.push_back(obs.timestamp_s);
        return common::PushStatus::kAccepted;
      });
  server.start();

  constexpr int kReports = 80;
  const feedback::CompressedFeedbackReport base_report =
      tests::multi_station_stream(1, 1).front().report;
  std::uint64_t reconnects = 0;
  {
    ScopedSpec storm("net.send=err(ECONNRESET,p=0.08,seed=5)");
    auto client = net::NetClient::connect("127.0.0.1", server.port());
    net::ReconnectPolicy policy;
    policy.attempts = 8;
    policy.backoff_base = 1ms;
    policy.backoff_cap = 8ms;
    policy.jitter_seed = 99;
    client.set_reconnect(policy);
    for (int i = 0; i < kReports; ++i) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = static_cast<double>(i);
      obs.beamformee = capture::MacAddress::for_station(i % 4);
      obs.beamformer = capture::MacAddress::for_module(0);
      obs.report = base_report;
      ASSERT_TRUE(client.send_report(obs)) << "report " << i;
    }
    reconnects = client.reconnects();
    EXPECT_GT(common::failpoints::fire_count("net.send"), 0u);
    client.close();
  }
  EXPECT_GT(reconnects, 0u);  // the storm really severed connections

  ASSERT_TRUE(tests::eventually([&] {
    std::lock_guard<std::mutex> lock(sink->mu);
    return sink->timestamps.size() >= kReports && server.stats().conns_open == 0;
  }));
  // A brief settle so a hypothetical duplicate would have arrived too.
  std::this_thread::sleep_for(50ms);
  std::lock_guard<std::mutex> lock(sink->mu);
  EXPECT_EQ(sink->timestamps.size(), static_cast<std::size_t>(kReports));
  std::set<double> unique(sink->timestamps.begin(), sink->timestamps.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kReports));
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().reports_dropped, 0u);
  server.stop();
}

// ---------------------------------------------- kill and restore, offline

TEST(ChaosTest, SnapshotRestoreMidStreamReachesTheSameFinalVerdicts) {
  // Kill-and-restore without sockets or timing: classify half the
  // stream, snapshot, throw the service away (the "kill -9"), restore
  // into a fresh service, classify the rest, and demand the final table
  // equals a replay that never died.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = tests::quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(3, 8);
  const std::size_t half = stream.size() / 2;
  const std::string path =
      std::string(::testing::TempDir()) + "/chaos_killrestore.snap";

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.max_latency = 1ms;
  cfg.sessions.window = 5;
  const auto reference = tests::offline_verdicts(auth, cfg, stream);

  {
    serving::AuthService first(auth, cfg);
    first.start();
    for (std::size_t i = 0; i < half; ++i)
      ASSERT_TRUE(first.submit(stream[i]));
    first.drain();
    first.save_sessions(path);
  }  // ~AuthService: the process "dies"

  serving::AuthService second(auth, cfg);
  std::string err;
  ASSERT_EQ(second.restore_sessions(path, &err),
            serving::SessionTable::RestoreStatus::kRestored)
      << err;
  second.start();
  for (std::size_t i = half; i < stream.size(); ++i)
    ASSERT_TRUE(second.submit(stream[i]));
  second.drain();

  tests::expect_identical(second.sessions().snapshot(), reference);
  std::remove(path.c_str());
}

// ------------------------------------------------- hot-swap storm, live

TEST(ChaosTest, SwapStormDuringLiveLoopbackKeepsVerdictParity) {
  // A seeded failpoint storm on the model-lifecycle sites while reports
  // flow through the real TCP loopback: swap attempts race the serving
  // path, many are shot down mid-flight (model.load synthesizes torn
  // reads, model.swap discards fully staged epochs). The candidate is
  // the INCUMBENT's own weights, so whatever mix of published and
  // rolled-back swaps the seeds produce, the verdict stream must come
  // out bit-identical to a replay that never swapped at all — the
  // zero-downtime contract under fire.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = tests::quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(4, 6);

  // Candidate artifact = the incumbent's weights, saved as a full trio.
  const std::string model_path =
      std::string(::testing::TempDir()) + "/chaos_swap.model";
  auth.save(model_path);
  core::save_model_meta(model_path,
                        {{"filters", core::quick_model_config().filters},
                         {"stride", spec.subcarrier_stride},
                         {"classes", phy::kNumModules}});

  const serving::ServeOptions o = tests::loopback_options(
      {{"queue", "64"}, {"consumers", "2"}, {"batch", "8"}, {"window", "7"}},
      model_path);
  // Calm reference: same stream, no network, no swaps.
  const auto offline = tests::offline_verdicts(auth, o.service, stream);

  ScopedSpec storm(
      "model.load=err(EIO,p=0.35,seed=7);"
      "model.swap=reject(p=0.35,seed=9)");
  net::Server server(o, auth);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // The swapper hammers swap_model while the client streams reports. A
  // FIXED attempt count keeps the seeded fire pattern deterministic:
  // 64 draws at p=0.35 on each site guarantee both rollbacks and
  // published swaps, whatever the thread interleaving.
  std::thread swapper([&] {
    for (int i = 0; i < 64; ++i) {
      const auto r = auth.swap_model(model_path);
      // Only the two injected failure modes may appear: the artifact
      // itself is always valid.
      EXPECT_TRUE(r.ok() ||
                  r.status == core::Authenticator::SwapStatus::kLoadError ||
                  r.status == core::Authenticator::SwapStatus::kAborted)
          << r.error;
    }
  });

  auto client = net::NetClient::connect("127.0.0.1", server.ingest_port());
  for (const auto& obs : stream) {
    ASSERT_TRUE(client.send_report(obs));
    std::this_thread::sleep_for(1ms);  // stretch traffic across the storm
  }
  client.close();
  swapper.join();
  ASSERT_TRUE(tests::wait_classified(server, stream.size()));
  const serving::StatsSnapshot stats = server.drain();

  // The storm really exercised both failure sites AND let some swaps
  // through (seeds chosen so neither side is empty)...
  EXPECT_GT(auth.swaps_rolled_back(), 0u);
  EXPECT_GT(auth.swaps_completed(), 0u);
  EXPECT_EQ(auth.epoch_info().id, 1u + auth.swaps_completed());
  // ...and none of it moved a single verdict.
  tests::expect_identical(server.service().sessions().snapshot(), offline);
  EXPECT_EQ(stats.ingest->reports_dropped, 0u);
  std::remove(model_path.c_str());
  std::remove((model_path + ".meta").c_str());
}

}  // namespace
}  // namespace deepcsi
