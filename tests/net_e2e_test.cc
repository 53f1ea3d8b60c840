// In-process loopback end-to-end: NetClient -> TcpIngestServer ->
// AuthService -> SessionTable -> VerdictPublisher -> VerdictSubscriber,
// plus the ingest server's backpressure mapping (kWouldBlock pauses the
// socket, kRejected counts a drop) and connection-limit/malformed-peer
// handling — all without forking processes, so the sanitizer and TSan
// legs see every thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "common/hash.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/publisher.h"
#include "serving/service.h"

namespace deepcsi {
namespace {

using namespace std::chrono_literals;

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

// Spin-wait with timeout for a server-side condition (loopback delivery
// is asynchronous; never assert immediately on a counter).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
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

core::Authenticator quick_authenticator(const dataset::InputSpec& spec) {
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, core::quick_model_config()),
      spec);
}

// `stations` beamformees, station s streaming module-(s % kNumModules)
// reports, interleaved frame by frame.
std::vector<capture::ObservedFeedback> multi_station_stream(int stations,
                                                            int snapshots) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = snapshots;
  std::vector<std::vector<feedback::CompressedFeedbackReport>> per_station;
  for (int s = 0; s < stations; ++s) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(s % phy::kNumModules, 1, 0, scale, {});
    std::vector<feedback::CompressedFeedbackReport> reports;
    for (const dataset::Snapshot& snap : trace.snapshots)
      reports.push_back(snap.report);
    per_station.push_back(std::move(reports));
  }
  std::vector<capture::ObservedFeedback> stream;
  double t = 0.0;
  for (int i = 0; i < snapshots; ++i) {
    for (int s = 0; s < stations; ++s) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = t;
      obs.beamformee = capture::MacAddress::for_station(s);
      obs.beamformer =
          capture::MacAddress::for_module(s % phy::kNumModules);
      obs.report = per_station[static_cast<std::size_t>(s)]
                               [static_cast<std::size_t>(i)];
      stream.push_back(std::move(obs));
      t += 0.01;
    }
  }
  return stream;
}

TEST(NetE2ETest, LoopbackVerdictsMatchTheOfflinePipelineExactly) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = multi_station_stream(4, 5);

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_latency = 2ms;
  cfg.sessions.window = 31;

  // Offline reference: the plain replay path everyone already trusts.
  std::vector<serving::StationVerdict> offline;
  {
    serving::AuthService service(auth, cfg);
    service.start();
    for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
    service.drain();
    offline = service.sessions().snapshot();
  }

  // Network path: publisher first (it must outlive the service), then the
  // service, then ingest — mirroring the CLI's `serve --listen` wiring.
  net::VerdictPublisher pub({});
  pub.start();
  serving::AuthService service(auth, cfg);
  service.set_verdict_callback([&pub](const serving::StationVerdict& v) {
    net::VerdictMsg m;
    m.station = v.station;
    m.module_id = static_cast<std::int32_t>(v.module_id);
    m.votes = static_cast<std::uint32_t>(v.votes);
    m.window_size = static_cast<std::uint32_t>(v.window_size);
    m.total_reports = v.total_reports;
    m.mean_confidence = v.mean_confidence;
    m.last_timestamp_s = v.last_timestamp_s;
    pub.publish(m);
  });
  service.start();
  net::TcpIngestServer ingest(
      {}, [&service](capture::ObservedFeedback& obs) {
        return service.try_submit(obs);
      });
  ingest.start();

  auto subscriber = net::VerdictSubscriber::connect("127.0.0.1", pub.port());

  // Three connections, stations sharded by MAC — per-station order holds.
  std::vector<net::NetClient> clients;
  for (int i = 0; i < 3; ++i)
    clients.push_back(net::NetClient::connect("127.0.0.1", ingest.port()));
  for (const auto& obs : stream) {
    const std::size_t c =
        common::mix64(obs.beamformee.to_u64()) % clients.size();
    ASSERT_TRUE(clients[c].send_report(obs));
  }
  for (auto& c : clients) c.close();

  ingest.wait_until_idle();
  ingest.stop();
  service.drain();
  const auto online = service.sessions().snapshot();
  // Final snapshot + stats over the wire, then flush-and-close.
  for (const auto& v : online) {
    net::VerdictMsg m;
    m.station = v.station;
    m.module_id = static_cast<std::int32_t>(v.module_id);
    m.votes = static_cast<std::uint32_t>(v.votes);
    m.window_size = static_cast<std::uint32_t>(v.window_size);
    m.total_reports = v.total_reports;
    m.mean_confidence = v.mean_confidence;
    m.last_timestamp_s = v.last_timestamp_s;
    pub.publish(m);
  }
  serving::StatsSnapshot stats = service.stats();
  stats.ingest = ingest.stats();
  const std::string stats_json = stats.render_json();
  pub.publish_stats(stats_json);
  pub.stop(30000ms);

  // The server-side table must equal the offline run field for field —
  // the wire moved bytes, it didn't change them.
  ASSERT_EQ(online.size(), offline.size());
  for (std::size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(online[i].station, offline[i].station);
    EXPECT_EQ(online[i].module_id, offline[i].module_id);
    EXPECT_EQ(online[i].votes, offline[i].votes);
    EXPECT_EQ(online[i].window_size, offline[i].window_size);
    EXPECT_EQ(online[i].total_reports, offline[i].total_reports);
    EXPECT_EQ(online[i].mean_confidence, offline[i].mean_confidence);
    EXPECT_EQ(online[i].last_timestamp_s, offline[i].last_timestamp_s);
  }

  // And what the subscriber RECEIVED (last update per station wins — the
  // final snapshot) must match too, bit for bit on the doubles.
  std::map<capture::MacAddress, net::VerdictMsg> received;
  std::optional<std::string> received_stats;
  while (auto frame = subscriber.next_frame()) {
    const std::span<const std::uint8_t> payload(frame->payload.data(),
                                                frame->payload.size());
    if (frame->type ==
        static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate)) {
      const auto v = net::decode_verdict(payload);
      ASSERT_TRUE(v.has_value());
      received[v->station] = *v;
    } else if (frame->type ==
               static_cast<std::uint8_t>(net::FrameType::kStats)) {
      received_stats.emplace(frame->payload.begin(), frame->payload.end());
    }
  }
  // The stats frame carries the snapshot's JSON byte for byte.
  EXPECT_EQ(received_stats, stats_json);
  ASSERT_EQ(received.size(), offline.size());
  std::size_t i = 0;
  for (const auto& [mac, v] : received) {  // std::map sorts by MAC like snapshot()
    EXPECT_EQ(mac, offline[i].station);
    EXPECT_EQ(v.module_id, offline[i].module_id);
    EXPECT_EQ(v.votes, offline[i].votes);
    EXPECT_EQ(v.window_size, offline[i].window_size);
    EXPECT_EQ(v.total_reports, offline[i].total_reports);
    EXPECT_EQ(v.mean_confidence, offline[i].mean_confidence);
    EXPECT_EQ(v.last_timestamp_s, offline[i].last_timestamp_s);
    ++i;
  }
}

}  // namespace
}  // namespace deepcsi
