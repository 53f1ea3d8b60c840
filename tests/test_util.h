// Shared helpers for the test binaries.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "nn/simd.h"
#include "serving/options.h"
#include "serving/replay.h"
#include "serving/service.h"

namespace deepcsi::tests {

// Restores the global pool size on scope exit so tests stay independent.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(common::num_threads()) {}
  ~ThreadGuard() { common::set_num_threads(saved_); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

 private:
  int saved_;
};

// Restores the active SIMD backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active()) {}
  ~BackendGuard() { simd::set_active(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

// Tests loop over simd::available_backends() so the same bit-identity
// contracts are pinned under every backend the host can run.
using simd::available_backends;

inline bool has_backend(simd::Backend b) {
  const std::vector<simd::Backend> avail = simd::available_backends();
  return std::find(avail.begin(), avail.end(), b) != avail.end();
}

// Spin-wait with timeout for a condition another thread makes true
// (loopback delivery is asynchronous; never assert at once on a counter).
template <typename Pred>
bool eventually(Pred pred,
                std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ------------------------------------------------- serving and loopback

// The untrained quick model: cheap to build, deterministic weights, and
// all a verdict-parity check needs.
inline core::Authenticator quick_authenticator(
    const dataset::InputSpec& spec,
    std::uint64_t init_seed = core::quick_model_config().init_seed) {
  core::ModelConfig cfg = core::quick_model_config();
  cfg.init_seed = init_seed;
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, cfg),
      spec);
}

// `stations` beamformees, station s streaming module-(s % kNumModules)
// reports, interleaved frame by frame.
inline std::vector<capture::ObservedFeedback> multi_station_stream(
    int stations, int snapshots) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = snapshots;
  std::vector<dataset::Trace> traces;
  for (int s = 0; s < stations; ++s)
    traces.push_back(
        dataset::generate_d1_trace(s % phy::kNumModules, 1, 0, scale, {}));
  std::vector<capture::ObservedFeedback> stream;
  double t = 0.0;
  for (int i = 0; i < snapshots; ++i) {
    for (int s = 0; s < stations; ++s) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = t;
      obs.beamformee = capture::MacAddress::for_station(s);
      obs.beamformer = capture::MacAddress::for_module(s % phy::kNumModules);
      obs.report = traces[static_cast<std::size_t>(s)]
                       .snapshots[static_cast<std::size_t>(i)]
                       .report;
      stream.push_back(std::move(obs));
      t += 0.01;
    }
  }
  return stream;
}

// Field for field, bit for bit on the doubles.
inline void expect_identical(const std::vector<serving::StationVerdict>& a,
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

// The reference every loopback path must match: `stream` replayed in
// order through a fresh in-process service.
inline std::vector<serving::StationVerdict> offline_verdicts(
    const core::Authenticator& auth, const serving::ServiceConfig& cfg,
    const std::vector<capture::ObservedFeedback>& stream) {
  serving::AuthService service(auth, cfg);
  EXPECT_EQ(serving::replay_observed(service, stream, {}).accepted,
            stream.size());
  return service.sessions().snapshot();
}

// The options `serve --model MODEL --listen P` plus `flags` parse to,
// moved to ephemeral ports (ServeOptions accepts only fixed ones).
inline serving::ServeOptions loopback_options(
    std::map<std::string, std::string> flags,
    const std::string& model = "unused.model") {
  flags["model"] = model;
  flags["listen"] = "1";
  if (flags.count("publish") > 0) flags["publish"] = "1";
  std::string err;
  std::optional<serving::ServeOptions> o = serving::ServeOptions::parse(
      flags, serving::ServeOptions::Front::kServe, &err);
  EXPECT_TRUE(o.has_value()) << err;
  if (!o) return {};
  o->listen_port = 0;
  o->publish_port = 0;
  return *o;
}

// Streams `reports` into the ingest port over `conns` connections,
// stations sharded by MAC as `drive` does so each station's order holds,
// then closes them.
inline void send_sharded(std::uint16_t port,
                         std::span<const capture::ObservedFeedback> reports,
                         std::size_t conns) {
  std::vector<net::NetClient> clients;
  for (std::size_t i = 0; i < conns; ++i)
    clients.push_back(net::NetClient::connect("127.0.0.1", port));
  for (const capture::ObservedFeedback& obs : reports) {
    const std::size_t c = common::mix64(obs.beamformee.to_u64()) % conns;
    ASSERT_TRUE(clients[c].send_report(obs));
  }
  for (net::NetClient& c : clients) c.close();
}

// Waits until the server has classified `n` reports in all.
inline bool wait_classified(const net::Server& server, std::size_t n) {
  return eventually([&] {
    return server.service().stats().reports_classified >= n;
  });
}

// What a subscriber read until the publisher closed: the last verdict
// per station (the final snapshot) and the stats frame.
struct Published {
  std::map<capture::MacAddress, net::VerdictMsg> verdicts;
  std::optional<std::string> stats;
  net::FrameAssembler::Error error = net::FrameAssembler::Error::kNone;
};

inline Published read_published(net::VerdictSubscriber& sub) {
  Published out;
  while (auto frame = sub.next_frame()) {
    const std::span<const std::uint8_t> payload(frame->payload.data(),
                                                frame->payload.size());
    if (frame->type ==
        static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate)) {
      const auto v = net::decode_verdict(payload);
      EXPECT_TRUE(v.has_value());
      if (v) out.verdicts[v->station] = *v;
    } else if (frame->type ==
               static_cast<std::uint8_t>(net::FrameType::kStats)) {
      out.stats.emplace(frame->payload.begin(), frame->payload.end());
    }
  }
  out.error = sub.error();
  return out;
}

// The published verdicts equal `expected` bit for bit (std::map and
// SessionTable::snapshot() both order stations by MAC).
inline void expect_published(
    const Published& got, const std::vector<serving::StationVerdict>& expected) {
  EXPECT_EQ(got.error, net::FrameAssembler::Error::kNone);
  std::vector<net::VerdictMsg> want;
  for (const serving::StationVerdict& v : expected)
    want.push_back(net::to_verdict_msg(v));
  std::vector<net::VerdictMsg> have;
  for (const auto& [mac, v] : got.verdicts) have.push_back(v);
  EXPECT_TRUE(have == want) << have.size() << " published vs "
                            << want.size() << " expected";
}

}  // namespace deepcsi::tests
