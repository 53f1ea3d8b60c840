// The chaos harness (`ctest -L chaos`): seeded failpoint storms over the
// in-process loopback stack, asserting the robustness contracts the
// serving path advertises —
//   * lossless injections (EAGAIN, short reads/writes, queue
//     backpressure) leave the published verdicts EXACTLY equal to an
//     undisturbed offline replay;
//   * connection-killing injections plus client reconnect deliver every
//     report exactly once (whole-frame resend + server-side discard of
//     partial trailing bytes);
//   * a session snapshot taken mid-stream and restored into a fresh
//     service continues to the same final verdicts as a process that
//     never died.
// Everything is seeded through the failpoint specs, so a red run here is
// a deterministic repro, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/report_queue.h"
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
using common::failpoints::ScopedSpec;

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

core::Authenticator quick_authenticator(const dataset::InputSpec& spec) {
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, core::quick_model_config()),
      spec);
}

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
      obs.beamformer = capture::MacAddress::for_module(s % phy::kNumModules);
      obs.report = per_station[static_cast<std::size_t>(s)]
                               [static_cast<std::size_t>(i)];
      stream.push_back(std::move(obs));
      t += 0.01;
    }
  }
  return stream;
}

void expect_identical(const std::vector<serving::StationVerdict>& a,
                      const std::vector<serving::StationVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].station, b[i].station);
    EXPECT_EQ(a[i].module_id, b[i].module_id);
    EXPECT_EQ(a[i].votes, b[i].votes);
    EXPECT_EQ(a[i].window_size, b[i].window_size);
    EXPECT_EQ(a[i].total_reports, b[i].total_reports);
    EXPECT_EQ(a[i].mean_confidence, b[i].mean_confidence);
    EXPECT_EQ(a[i].last_timestamp_s, b[i].last_timestamp_s);
  }
}

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
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = multi_station_stream(4, 5);

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_latency = 2ms;
  cfg.sessions.window = 31;

  // Undisturbed offline reference, computed BEFORE the storm is armed.
  std::vector<serving::StationVerdict> offline;
  {
    serving::AuthService service(auth, cfg);
    service.start();
    for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
    service.drain();
    offline = service.sessions().snapshot();
  }

  // The storm: every injection here is lossless by design —
  //   net.send err(EAGAIN): write_all and the publisher retry/rearm;
  //   net.recv short: 1-byte reads, reassembly handles any framing;
  //   queue.push err(EAGAIN): the ingest server parks the report and
  //     retries (TCP flow control), never dropping it.
  // So the verdicts must come out EXACTLY as in the calm run.
  ScopedSpec storm(
      "net.send=err(EAGAIN,p=0.2,seed=11);"
      "net.recv=short(p=0.3,seed=13);"
      "queue.push=err(EAGAIN,p=0.15,seed=17)");

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
  pub.publish_stats(service.stats().render_json());
  pub.stop(30000ms);

  // The storm actually happened...
  EXPECT_GT(common::failpoints::fire_count("net.send"), 0u);
  EXPECT_GT(common::failpoints::fire_count("net.recv"), 0u);
  // ...and changed nothing: server-side table matches the calm replay.
  expect_identical(online, offline);
  EXPECT_EQ(ingest.stats().reports_dropped, 0u);
  EXPECT_EQ(ingest.stats().protocol_errors, 0u);

  // What the subscriber received through its own shortened reads matches
  // too, bit for bit on the doubles.
  std::map<capture::MacAddress, net::VerdictMsg> received;
  while (auto frame = subscriber.next_frame()) {
    const std::span<const std::uint8_t> payload(frame->payload.data(),
                                                frame->payload.size());
    if (frame->type ==
        static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate)) {
      const auto v = net::decode_verdict(payload);
      ASSERT_TRUE(v.has_value());
      received[v->station] = *v;
    }
  }
  ASSERT_EQ(subscriber.error(), net::FrameAssembler::Error::kNone);
  ASSERT_EQ(received.size(), offline.size());
  std::size_t i = 0;
  for (const auto& [mac, v] : received) {
    EXPECT_EQ(mac, offline[i].station);
    EXPECT_EQ(v.module_id, offline[i].module_id);
    EXPECT_EQ(v.mean_confidence, offline[i].mean_confidence);
    ++i;
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
  // the subscriber-reconnect scenario, exercised by `drive
  // --resubscribe` in CI.)
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
      multi_station_stream(1, 1).front().report;
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

  ASSERT_TRUE(eventually([&] {
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

// ------------------------------------------- kill-and-restore, in process

TEST(ChaosTest, SnapshotRestoreMidStreamReachesTheSameFinalVerdicts) {
  // The crash half of the CI kill-and-restore drill, without the fork:
  // classify half the capture, snapshot, throw the service away (the
  // "kill -9"), restore into a fresh service, classify the rest — and
  // demand the final table equals a replay that never died.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = multi_station_stream(3, 8);
  const std::size_t half = stream.size() / 2;
  const std::string path =
      std::string(::testing::TempDir()) + "/chaos_killrestore.snap";

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.max_latency = 1ms;
  cfg.sessions.window = 5;

  std::vector<serving::StationVerdict> reference;
  {
    serving::AuthService service(auth, cfg);
    service.start();
    for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
    service.drain();
    reference = service.sessions().snapshot();
  }

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

  expect_identical(second.sessions().snapshot(), reference);
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
  core::Authenticator auth = quick_authenticator(spec);
  const auto stream = multi_station_stream(4, 6);

  // Candidate artifact = the incumbent's weights, saved as a full trio.
  const std::string model_path =
      std::string(::testing::TempDir()) + "/chaos_swap.model";
  auth.save(model_path);
  core::save_model_meta(model_path,
                        {{"filters", core::quick_model_config().filters},
                         {"stride", spec.subcarrier_stride},
                         {"classes", phy::kNumModules}});

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_latency = 2ms;
  cfg.sessions.window = 7;

  // Calm reference: same stream, no network, no swaps.
  std::vector<serving::StationVerdict> offline;
  {
    serving::AuthService service(auth, cfg);
    service.start();
    for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
    service.drain();
    offline = service.sessions().snapshot();
  }

  ScopedSpec storm(
      "model.load=err(EIO,p=0.35,seed=7);"
      "model.swap=reject(p=0.35,seed=9)");

  serving::AuthService service(auth, cfg);
  service.start();
  net::TcpIngestServer ingest(
      {}, [&service](capture::ObservedFeedback& obs) {
        return service.try_submit(obs);
      });
  ingest.start();

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

  auto client = net::NetClient::connect("127.0.0.1", ingest.port());
  for (const auto& obs : stream) {
    ASSERT_TRUE(client.send_report(obs));
    std::this_thread::sleep_for(1ms);  // stretch traffic across the storm
  }
  client.close();
  swapper.join();
  ingest.wait_until_idle();
  ingest.stop();
  service.drain();

  // The storm really exercised both failure sites AND let some swaps
  // through (seeds chosen so neither side is empty)...
  EXPECT_GT(auth.swaps_rolled_back(), 0u);
  EXPECT_GT(auth.swaps_completed(), 0u);
  EXPECT_EQ(auth.epoch(), 1u + auth.swaps_completed());
  // ...and none of it moved a single verdict.
  expect_identical(service.sessions().snapshot(), offline);
  EXPECT_EQ(ingest.stats().reports_dropped, 0u);
  std::remove(model_path.c_str());
  std::remove((model_path + ".meta").c_str());
}

}  // namespace
}  // namespace deepcsi
