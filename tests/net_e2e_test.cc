// In-process loopback end-to-end: NetClient -> net::Server (TcpIngestServer
// -> AuthService -> SessionTable -> VerdictPublisher) -> VerdictSubscriber,
// plus the ingest server's backpressure mapping (kWouldBlock pauses the
// socket, kRejected counts a drop) and connection-limit/malformed-peer
// handling — all without forking processes, so the sanitizer and TSan
// legs see every thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "dataset/traces.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/server.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using namespace std::chrono_literals;
using tests::eventually;

capture::ObservedFeedback sample_observed(int module, double timestamp_s) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = 1;
  const dataset::Trace trace =
      dataset::generate_d1_trace(module, 1, 0, scale, {});
  capture::ObservedFeedback obs;
  obs.timestamp_s = timestamp_s;
  obs.beamformee = capture::MacAddress::for_station(module);
  obs.beamformer = capture::MacAddress::for_module(module);
  obs.report = trace.snapshots.front().report;
  return obs;
}

// ------------------------------------------------- ingest server semantics

// A submit sink with a controllable gate, standing in for the service:
// while closed it reports kWouldBlock (full kBlock queue), so the pause +
// park + retry machinery is exercised deterministically.
struct GatedSink {
  std::mutex mu;
  std::vector<capture::ObservedFeedback> delivered;
  std::atomic<bool> open{true};

  common::PushStatus operator()(capture::ObservedFeedback& obs) {
    if (!open.load()) return common::PushStatus::kWouldBlock;
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(std::move(obs));
    return common::PushStatus::kAccepted;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return delivered.size();
  }
};

TEST(NetIngestTest, WouldBlockPausesTheConnectionThenRecoversInOrder) {
  auto sink = std::make_shared<GatedSink>();
  sink->open = false;  // queue "full" from the start
  net::TcpIngestServer server(
      {}, [sink](capture::ObservedFeedback& obs) { return (*sink)(obs); });
  server.start();

  auto client = net::NetClient::connect("127.0.0.1", server.port());
  constexpr int kReports = 20;
  for (int i = 0; i < kReports; ++i) {
    capture::ObservedFeedback obs = sample_observed(0, static_cast<double>(i));
    ASSERT_TRUE(client.send_report(obs));
  }

  // The first decode hits kWouldBlock: the report parks, EPOLLIN goes
  // off, and NOTHING is delivered while the queue stays full.
  ASSERT_TRUE(eventually([&] { return server.stats().pauses >= 1; }));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sink->count(), 0u);

  // Open the gate: the retry tick resubmits the parked report, EPOLLIN
  // re-arms, and the backlog drains — in exactly the order it was sent.
  sink->open = true;
  ASSERT_TRUE(eventually([&] { return sink->count() == kReports; }));
  for (int i = 0; i < kReports; ++i)
    EXPECT_EQ(sink->delivered[static_cast<std::size_t>(i)].timestamp_s,
              static_cast<double>(i));
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().reports_dropped, 0u);
}

TEST(NetIngestTest, RejectedReportsAreCountedDropsAndTheStreamContinues) {
  // Reject every second report — the kReject policy seen from the edge.
  std::atomic<int> seen{0};
  auto sink = std::make_shared<GatedSink>();
  net::TcpIngestServer server(
      {}, [sink, &seen](capture::ObservedFeedback& obs) {
        if (seen.fetch_add(1) % 2 == 1)
          return common::PushStatus::kRejected;
        return (*sink)(obs);
      });
  server.start();

  auto client = net::NetClient::connect("127.0.0.1", server.port());
  constexpr int kReports = 10;
  for (int i = 0; i < kReports; ++i) {
    capture::ObservedFeedback obs = sample_observed(0, static_cast<double>(i));
    ASSERT_TRUE(client.send_report(obs));
  }
  ASSERT_TRUE(eventually(
      [&] { return sink->count() + server.stats().reports_dropped >= kReports; }));
  const net::IngestStats stats = server.stats();
  EXPECT_EQ(sink->count(), 5u);
  EXPECT_EQ(stats.reports_dropped, 5u);
  EXPECT_EQ(stats.protocol_errors, 0u);  // the connection survived
  // Evens got through, in order.
  for (std::size_t i = 0; i < sink->delivered.size(); ++i)
    EXPECT_EQ(sink->delivered[i].timestamp_s, static_cast<double>(2 * i));
  client.close();
  server.stop();
}

TEST(NetIngestTest, MalformedStreamClosesTheConnectionWithoutCrashing) {
  auto sink = std::make_shared<GatedSink>();
  net::TcpIngestServer server(
      {}, [sink](capture::ObservedFeedback& obs) { return (*sink)(obs); });
  server.start();

  // A valid report, then garbage: the report lands, the garbage kills the
  // connection, counted as a protocol error.
  auto client = net::NetClient::connect("127.0.0.1", server.port());
  capture::ObservedFeedback obs = sample_observed(0, 1.0);
  ASSERT_TRUE(client.send_report(obs));
  const std::vector<std::uint8_t> junk(64, 0xEE);
  ASSERT_TRUE(client.send_bytes(std::span<const std::uint8_t>(junk.data(),
                                                              junk.size())));
  ASSERT_TRUE(eventually([&] { return server.stats().protocol_errors == 1; }));
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_TRUE(eventually([&] { return server.stats().conns_open == 0; }));

  // A well-framed frame with an undecodable payload is milder: counted,
  // skipped, connection stays up.
  auto client2 = net::NetClient::connect("127.0.0.1", server.port());
  const std::vector<std::uint8_t> empty_payload;
  const auto bad = net::encode_frame(
      net::FrameType::kFeedbackReport,
      std::span<const std::uint8_t>(empty_payload.data(), 0));
  ASSERT_TRUE(client2.send_bytes(std::span<const std::uint8_t>(bad.data(),
                                                               bad.size())));
  ASSERT_TRUE(
      eventually([&] { return server.stats().malformed_payloads == 1; }));
  // Unknown frame types pass through harmlessly too (forward compat).
  const auto unknown = net::encode_frame(
      static_cast<net::FrameType>(200),
      std::span<const std::uint8_t>(empty_payload.data(), 0));
  ASSERT_TRUE(client2.send_bytes(
      std::span<const std::uint8_t>(unknown.data(), unknown.size())));
  capture::ObservedFeedback obs2 = sample_observed(1, 2.0);
  ASSERT_TRUE(client2.send_report(obs2));
  ASSERT_TRUE(eventually([&] { return sink->count() == 2u; }));
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  client2.close();
  server.stop();
}

TEST(NetIngestTest, ConnectionsBeyondMaxConnsAreRefused) {
  net::IngestConfig cfg;
  cfg.max_conns = 1;
  auto sink = std::make_shared<GatedSink>();
  net::TcpIngestServer server(
      cfg, [sink](capture::ObservedFeedback& obs) { return (*sink)(obs); });
  server.start();

  auto keeper = net::NetClient::connect("127.0.0.1", server.port());
  capture::ObservedFeedback obs = sample_observed(0, 1.0);
  ASSERT_TRUE(keeper.send_report(obs));
  ASSERT_TRUE(eventually([&] { return sink->count() == 1u; }));

  auto refused = net::NetClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually([&] { return server.stats().conns_rejected == 1; }));
  // The refused socket was closed server-side; the survivor still works.
  capture::ObservedFeedback obs2 = sample_observed(1, 2.0);
  ASSERT_TRUE(keeper.send_report(obs2));
  ASSERT_TRUE(eventually([&] { return sink->count() == 2u; }));
  refused.close();
  keeper.close();
  server.stop();
}

// ------------------------------------------------------- full loopback e2e

TEST(NetE2ETest, LoopbackVerdictsMatchTheOfflinePipelineExactly) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = tests::quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(4, 5);
  const serving::ServeOptions o = tests::loopback_options(
      {{"queue", "64"}, {"consumers", "2"}, {"batch", "8"}, {"publish", "1"}});
  const auto offline = tests::offline_verdicts(auth, o.service, stream);

  // The `serve --listen --publish` stack, over three connections.
  net::Server server(o, auth);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  auto subscriber =
      net::VerdictSubscriber::connect("127.0.0.1", server.publish_port());
  tests::send_sharded(server.ingest_port(), stream, 3);
  ASSERT_TRUE(tests::wait_classified(server, stream.size()));
  serving::StatsSnapshot stats = server.drain();

  // The server-side table must equal the offline run field for field —
  // the wire moved bytes, it didn't change them — and so must what the
  // subscriber RECEIVED, bit for bit on the doubles.
  tests::expect_identical(server.service().sessions().snapshot(), offline);
  const tests::Published got = tests::read_published(subscriber);
  tests::expect_published(got, offline);
  // The stats frame carries the returned snapshot's JSON byte for byte,
  // less the publish section that counts the frame itself.
  ASSERT_TRUE(stats.publish.has_value());
  stats.publish.reset();
  EXPECT_EQ(got.stats, stats.render_json());
  EXPECT_EQ(stats.reports_classified, stream.size());
}

}  // namespace
}  // namespace deepcsi
