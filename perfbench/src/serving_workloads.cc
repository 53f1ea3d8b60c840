// The three serving workloads: a model artifact on disk becomes a running
// AuthService (plus the TCP ingest server and verdict publisher for
// wire_loopback), then one generator thread drives it through an
// open-loop phase at a fixed rate and a saturation phase, and every
// prediction and verdict is checked against an offline replay.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rss.h"
#include "core/model.h"
#include "dataset/features.h"
#include "harness.h"
#include "metrics.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/publisher.h"
#include "nn/serialize.h"
#include "nn/simd.h"
#include "serving/service.h"

namespace perfbench {

using namespace deepcsi;

namespace {

// Why each workload exists is in perfbench/README.md. Rates are fixed
// here, never derived from measured capacity: a rate that moved with the
// program would hide the very change it is meant to show.
struct ServingWorkload {
  const char* name;
  bool paper_model;        // paper-size CNN (else the quick model)
  bool int8;               // DEEPCSI_SIMD=avx2_int8 equivalent
  bool wire;               // NetClient -> TcpIngestServer front end
  std::uint64_t stations;  // distinct beamformees in the stream
  double mobile_fraction;
  double confusion_fraction;
  std::size_t max_stations;  // session ceiling (0 = unbounded)
  double open_rate;          // open-loop offered rate, reports/s
  double sat_reports_per_s;  // sizes the saturation phase's input pool
};

constexpr ServingWorkload kWorkloads[] = {
    {"fleet_local", false, false, false, 20000, 0.2, 0.05, 8192, 2000.0, 6000.0},
    {"paper_int8", true, true, false, 64, 0.1, 0.0, 0, 1000.0, 2500.0},
    {"wire_loopback", false, false, true, 512, 0.1, 0.1, 0, 1500.0, 6000.0},
};

// At least 10 latency windows of 1000 reports: each window's p99 has
// 10 samples beyond it, and the run's p99 has 100.
constexpr std::size_t kLatencyWindow = 1000;
constexpr std::size_t kMinLatencySamples = 10 * kLatencyWindow;
constexpr std::size_t kRateWindow = 1000;
constexpr int kSetups = 15;              // set-up repeats; the median is reported
constexpr std::size_t kConnections = 2;  // wire_loopback ingest connections
constexpr std::size_t kReplayReports = 2048;
// Replay passes with spans off and on: one pass's CPU time moves by a few
// percent from pass to pass, far more than the spans cost.
constexpr int kOverheadPairs = 3;

const ServingWorkload* find_workload(const std::string& name) {
  for (const ServingWorkload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

serving::ServiceConfig service_config(const ServingWorkload& w) {
  serving::ServiceConfig cfg;  // queue 1024, kBlock, batch<=64, 2 ms, window 31
  cfg.consumers = 2;
  cfg.sessions.max_stations = w.max_stations;
  return cfg;
}

net::VerdictMsg to_msg(const serving::StationVerdict& v) {
  net::VerdictMsg m;
  m.station = v.station;
  m.module_id = static_cast<std::int32_t>(v.module_id);
  m.votes = static_cast<std::uint32_t>(v.votes);
  m.window_size = static_cast<std::uint32_t>(v.window_size);
  m.total_reports = static_cast<std::uint64_t>(v.total_reports);
  m.mean_confidence = v.mean_confidence;
  m.last_timestamp_s = v.last_timestamp_s;
  return m;
}

// What the per-report hook saw, indexed by sequence number. Each slot is
// written once, by the lane thread that classified the report; the
// release increment of `completed` publishes it to the generator.
struct Recorder {
  explicit Recorder(std::size_t n) : done(n), enqueued(n), pred(n), seen(n) {}

  std::vector<std::int64_t> done;
  std::vector<std::int64_t> enqueued;
  std::vector<core::Authenticator::Prediction> pred;
  std::vector<std::uint8_t> seen;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> duplicates{0};
  std::atomic<bool> warm_seen{false};

  void on_report(const serving::PendingReport& p,
                 const core::Authenticator::Prediction& pr) {
    const std::int64_t t = now_ns();
    const long idx = index_of(p.timestamp_s);
    if (idx < 0) {
      warm_seen.store(true, std::memory_order_release);
      return;
    }
    const auto i = static_cast<std::size_t>(idx);
    if (i >= seen.size() || seen[i] != 0) {
      duplicates.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    done[i] = t;
    enqueued[i] = to_ns(p.enqueued_at);
    pred[i] = pr;
    seen[i] = 1;
    completed.fetch_add(1, std::memory_order_release);
  }
};

// Durations of the ingest submit callback around try_submit, in µs,
// written by the ingest event-loop thread only and read after it stops.
// The slots are allocated before set-up, so the live heap leaves them out.
struct SubmitTimes {
  explicit SubmitTimes(std::size_t n) : us(n) {}
  std::vector<double> us;
  std::size_t n = 0;

  void add(double v) {
    if (n < us.size()) us[n++] = v;
  }
  std::vector<double> values() const {
    return {us.begin(), us.begin() + static_cast<std::ptrdiff_t>(n)};
  }
};

// Verdict stream as one subscriber sees it: the last frame per station.
struct SubscriberState {
  std::mutex mu;
  std::map<std::uint64_t, net::VerdictMsg> last;
  std::uint64_t frames = 0;
};

// One serving deployment, built in set-up order and torn down in
// reverse: clients, ingest, service (drain), publisher, subscriber.
struct Stack {
  std::unique_ptr<core::Authenticator> auth;
  std::unique_ptr<net::VerdictPublisher> publisher;
  std::unique_ptr<serving::AuthService> service;
  std::unique_ptr<net::TcpIngestServer> ingest;
  std::vector<net::NetClient> clients;
  std::shared_ptr<SubscriberState> sub = std::make_shared<SubscriberState>();
  std::thread subscriber;
  bool down = false;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { shutdown(nullptr); }

  // Stops intake and drains. With `final_snapshot`, publishes every
  // station's final verdict before closing the publisher, as `serve` does.
  void shutdown(const bool* final_snapshot) {
    if (down) return;
    down = true;
    for (net::NetClient& c : clients) c.close();
    clients.clear();
    if (ingest) ingest->stop();
    if (service) service->drain();
    if (publisher) {
      if (final_snapshot != nullptr && *final_snapshot && service)
        for (const serving::StationVerdict& v : service->sessions().snapshot())
          publisher->publish(to_msg(v));
      publisher->stop();
    }
    if (subscriber.joinable()) subscriber.join();
  }
};

struct Prepared {
  std::string model_path;
  core::ModelConfig model_cfg;
  dataset::InputSpec spec;
};

// Benchmark prep, not timed: builds the seeded network, calibrates it on
// the workload's own reports when it runs int8, and writes the artifact
// trio (weights, .meta, .calib) the way `deepcsi train` does.
Prepared write_artifact(const ServingWorkload& w, const Options& opt,
                        const ReportStream& stream, Encoding enc) {
  Prepared p;
  p.model_cfg = w.paper_model ? core::paper_model_config() : core::quick_model_config();
  p.model_cfg.init_seed = opt.seed;
  const int c = dataset::num_input_channels(p.spec);
  const auto width = static_cast<int>(dataset::num_input_columns(p.spec));
  core::Authenticator auth(
      core::build_deepcsi_model(c, width, phy::kNumModules, p.model_cfg), p.spec);

  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) /
                                    (std::string(w.name) + "-" + std::to_string(opt.seed) +
                                     "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  p.model_path = (dir / "model.bin").string();
  auth.save(p.model_path);
  core::save_model_meta(p.model_path, {{"filters", p.model_cfg.filters},
                                       {"stride", p.spec.subcarrier_stride},
                                       {"classes", phy::kNumModules}});
  if (w.int8) {
    const std::size_t n = std::min<std::size_t>(512, stream.bytes.size());
    const std::size_t row = static_cast<std::size_t>(c) * static_cast<std::size_t>(width);
    tensor::Tensor x({n, static_cast<std::size_t>(c), 1, static_cast<std::size_t>(width)});
    for (std::size_t i = 0; i < n; ++i) {
      const auto obs = decode(stream.bytes[i], enc, timestamp_of(i));
      dataset::fill_features(obs->report, p.spec, x.data() + i * row);
    }
    nn::save_calibration(p.model_path, auth.calibrate_int8(x));
  }
  return p;
}

// Set-up, the span setup_s times: artifact on disk -> first verdict.
std::unique_ptr<Stack> set_up(const ServingWorkload& w, const Prepared& p,
                              const std::vector<std::uint8_t>& warmup,
                              const std::shared_ptr<Recorder>& rec, SubmitTimes* ingest_us,
                              std::string* error) {
  auto s = std::make_unique<Stack>();
  core::LoadedModel lm;
  if (core::load_model_artifact(p.model_path, p.spec, p.model_cfg, &lm, error) !=
      core::ModelLoadStatus::kOk)
    return nullptr;
  s->auth = std::make_unique<core::Authenticator>(std::move(*lm.model), lm.spec);
  if (lm.calibration) s->auth->apply_int8_calibration(*lm.calibration);

  if (w.wire) {
    s->publisher = std::make_unique<net::VerdictPublisher>(net::PublisherConfig{});
    s->publisher->start();
    const std::uint16_t pub_port = s->publisher->port();
    auto sub = s->sub;
    s->subscriber = std::thread([pub_port, sub] {
      try {
        net::VerdictSubscriber vs = net::VerdictSubscriber::connect("127.0.0.1", pub_port);
        while (auto f = vs.next_frame()) {
          if (f->type != static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate)) continue;
          const auto msg = net::decode_verdict(f->payload);
          if (!msg) continue;
          std::lock_guard<std::mutex> lock(sub->mu);
          sub->last[msg->station.to_u64()] = *msg;
          ++sub->frames;
        }
      } catch (const std::exception&) {
        // Never connected: the publisher's subscriber count stays 0 and
        // set-up reports the failure.
      }
    });
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (s->publisher->subscriber_count() < 1) {
      if (Clock::now() > deadline) {
        *error = "the verdict subscriber never connected";
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  s->service = std::make_unique<serving::AuthService>(*s->auth, service_config(w));
  if (s->publisher) {
    net::VerdictPublisher* pub = s->publisher.get();
    s->service->set_verdict_callback(
        [pub](const serving::StationVerdict& v) { pub->publish(to_msg(v)); });
  }
  s->service->set_shadow_callback(
      [rec](const serving::PendingReport& r, const core::Authenticator::Prediction& pr) {
        rec->on_report(r, pr);
      });
  s->service->start();

  if (w.wire) {
    serving::AuthService* svc = s->service.get();
    s->ingest = std::make_unique<net::TcpIngestServer>(
        net::IngestConfig{}, [svc, ingest_us](capture::ObservedFeedback& obs) {
          const std::int64_t t0 = now_ns();
          const common::PushStatus st = svc->try_submit(obs);
          ingest_us->add(static_cast<double>(now_ns() - t0) / 1e3);
          return st;
        });
    s->ingest->start();
    for (std::size_t c = 0; c < kConnections; ++c)
      s->clients.push_back(net::NetClient::connect("127.0.0.1", s->ingest->port()));
    s->clients[0].send_bytes(warmup);
  } else {
    auto obs = decode_air(warmup, 0.0);
    s->service->submit(obs->beamformee, obs->timestamp_s, std::move(obs->report));
  }
  const auto warm_deadline = Clock::now() + std::chrono::seconds(30);
  while (!rec->warm_seen.load(std::memory_order_acquire)) {
    if (Clock::now() > warm_deadline) {
      *error = "warm-up report never classified";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return s;
}

// Polls AuthService::stats() every 100 ms (the cost a monitoring loop
// pays, serving.stats_us) and samples RSS for the peak.
class Poller {
 public:
  Poller(serving::AuthService& svc, double rss_peak)
      : svc_(svc), rss_peak_(rss_peak), thread_([this] { loop(); }) {}
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;
  ~Poller() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  double rss_peak() const { return rss_peak_; }  // after stop()
  const std::vector<double>& stats_us() const { return stats_us_; }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; })) {
      const std::int64_t t0 = now_ns();
      const serving::StatsSnapshot st = svc_.stats();
      stats_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      rss_peak_ = std::max(rss_peak_, static_cast<double>(st.process_rss_bytes) / (1 << 20));
    }
  }

  serving::AuthService& svc_;
  double rss_peak_;
  std::vector<double> stats_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// Per-report generator timestamps (ns): when the generator started on the
// report, and the submission call's start and end.
struct GenTimes {
  explicit GenTimes(std::size_t n) : due(n), start(n), submit(n), submitted(n) {}
  std::vector<std::int64_t> due, start, submit, submitted;
};

struct PhaseResult {
  double wall_s = 0.0;  // first send -> last prediction
  double cpu_s = 0.0;
  std::size_t classified = 0;
};

class Generator {
 public:
  Generator(const ServingWorkload& w, Stack& stack, const ReportStream& stream,
            Recorder& rec, GenTimes& times)
      : w_(w), stack_(stack), stream_(stream), rec_(rec), t_(times) {}

  std::uint64_t malformed = 0;
  std::uint64_t refused = 0;

  // Offers [begin, end) at `rate` reports/s (open loop) or as fast as
  // backpressure allows (rate <= 0), then waits for every prediction.
  PhaseResult run(std::size_t begin, std::size_t end, double rate) {
    const std::size_t base = rec_.completed.load(std::memory_order_acquire);
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns() + 2'000'000;
    const double period_ns = rate > 0.0 ? 1e9 / rate : 0.0;
    std::int64_t first = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t due =
          rate > 0.0 ? t0 + static_cast<std::int64_t>(static_cast<double>(i - begin) * period_ns)
                     : 0;
      if (rate > 0.0) {
        const std::int64_t wait = due - now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      const std::int64_t start = now_ns();
      if (i == begin) first = rate > 0.0 ? due : start;
      t_.due[i] = rate > 0.0 ? due : start;
      t_.start[i] = start;
      send(i);
    }
    const std::size_t target = end - begin;
    const std::size_t done = wait_for(base, target);
    PhaseResult r;
    r.cpu_s = process_cpu_seconds() - cpu0;
    std::int64_t last = first;
    for (std::size_t i = begin; i < end; ++i)
      if (rec_.seen[i] != 0) last = std::max(last, rec_.done[i]);
    r.wall_s = static_cast<double>(last - first) / 1e9;
    r.classified = done;
    return r;
  }

 private:
  void send(std::size_t i) {
    if (w_.wire) {
      const std::size_t conn = common::mix64(stream_.station[i]) % kConnections;
      t_.submit[i] = now_ns();
      if (!stack_.clients[conn].send_bytes(stream_.bytes[i])) ++refused;
      t_.submitted[i] = now_ns();
      return;
    }
    auto obs = decode_air(stream_.bytes[i], timestamp_of(i));
    if (!obs) {
      ++malformed;
      t_.submit[i] = t_.submitted[i] = now_ns();
      return;
    }
    t_.submit[i] = now_ns();
    if (!stack_.service->submit(obs->beamformee, obs->timestamp_s, std::move(obs->report)))
      ++refused;
    t_.submitted[i] = now_ns();
  }

  // Waits until every report of [begin, end) has been classified, or the
  // stream stops making progress for 20 s. Returns how many were.
  std::size_t wait_for(std::size_t base, std::size_t target) {
    auto last_progress = Clock::now();
    std::size_t last = 0;
    for (;;) {
      const std::size_t got = rec_.completed.load(std::memory_order_acquire) - base;
      if (got >= target) break;
      if (got != last) {
        last = got;
        last_progress = Clock::now();
      } else if (Clock::now() - last_progress > std::chrono::seconds(20)) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return std::min(target, rec_.completed.load(std::memory_order_acquire) - base);
  }

  const ServingWorkload& w_;
  Stack& stack_;
  const ReportStream& stream_;
  Recorder& rec_;
  GenTimes& t_;
};

// The open-loop entries [0, n) of `v` whose report was classified.
std::vector<std::int64_t> open_loop(const std::vector<std::int64_t>& v, std::size_t n,
                                    const Recorder& rec) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rec.seen[i] != 0) out.push_back(v[i]);
  return out;
}

double pct_or_zero(std::vector<double> v, double p) {
  if (v.empty() || (p > 50.0 && samples_beyond(v.size(), p) < kMinTailSamples)) return 0.0;
  return percentile(std::move(v), p);
}

// Offline reference: every prediction the hook saw must equal an offline
// classify_batch of the same report under the same backend, bit for bit.
// Returns the reference predictions (for the verdict replay).
std::vector<core::Authenticator::Prediction> check_predictions(
    const core::Authenticator& auth, const ReportStream& stream, Encoding enc,
    std::size_t n, const Recorder& rec, std::uint64_t* mismatched) {
  std::vector<core::Authenticator::Prediction> ref(n);
  // Chunks run on the pool; classify_batch_into inside a chunk runs
  // serially (nested parallel_for), which yields the same predictions.
  common::parallel_for(0, n, 256, [&](std::size_t lo, std::size_t hi) {
    std::vector<feedback::CompressedFeedbackReport> reports;
    std::vector<std::size_t> rows;
    for (std::size_t i = lo; i < hi; ++i) {
      auto obs = decode(stream.bytes[i], enc, timestamp_of(i));
      if (!obs) continue;  // never classified online either: counted unclassified
      reports.push_back(std::move(obs->report));
      rows.push_back(i);
    }
    std::vector<core::Authenticator::Prediction> preds(reports.size());
    auth.classify_batch_into(reports, preds);
    for (std::size_t r = 0; r < rows.size(); ++r) ref[rows[r]] = preds[r];
  });
  for (std::size_t i = 0; i < n; ++i)
    if (rec.seen[i] != 0 && (rec.pred[i].module_id != ref[i].module_id ||
                             rec.pred[i].confidence != ref[i].confidence))
      ++*mismatched;
  return ref;
}

bool same_verdict(const serving::StationVerdict& a, const serving::StationVerdict& b) {
  return a.station == b.station && a.module_id == b.module_id && a.votes == b.votes &&
         a.window_size == b.window_size && a.total_reports == b.total_reports &&
         a.mean_confidence == b.mean_confidence && a.last_timestamp_s == b.last_timestamp_s;
}

}  // namespace

bool is_serving_workload(const std::string& name) { return find_workload(name) != nullptr; }

ReplayResult stage_replay(const core::Authenticator& auth, const serving::SessionConfig& sessions,
                          const ReportStream& stream, Encoding enc, std::size_t count,
                          bool forward_b1, net::VerdictPublisher* pub, Tracer* tr) {
  constexpr std::size_t kBatch = core::Authenticator::kContextBatch;
  count = std::min(count, stream.bytes.size()) / kBatch * kBatch;
  const dataset::InputSpec& spec = auth.input_spec();
  const std::size_t c = static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  // The replay's own inference context, built before the timed loop.
  nn::ContextPool pool(auth.shared_model(), tensor::StaticShape({c, 1, w}), kBatch);
  const nn::ContextPool::Lease ctx = pool.acquire();
  dataset::FeatureScratch scratch;
  std::vector<float> feats(kBatch * c * w);

  serving::SessionTable table(sessions);
  for (std::size_t k = 0; k < sessions.max_stations; ++k)
    table.record(capture::MacAddress::for_fleet_station(1'000'000'000ull + k), {0, 1.0}, 0.0);

  const auto open = [tr](const char* name, std::int32_t parent, std::size_t id) {
    return tr ? tr->open(name, parent, id) : -1;
  };
  const auto close = [tr](std::int32_t span) {
    if (tr) tr->close(span);
  };
  static const std::vector<int> k80 = phy::vht80_subband(phy::Band::k80MHz);
  ReplayResult r;
  r.reports = count;
  std::vector<feedback::CompressedFeedbackReport> batch(kBatch);
  std::vector<core::Authenticator::Prediction> preds(kBatch);
  const double cpu0 = process_cpu_seconds();
  for (std::size_t at = 0; at < count; at += kBatch) {
    const std::int32_t root = open("replay.batch", -1, at);
    for (std::size_t i = at; i < at + kBatch; ++i) {
      std::optional<capture::ObservedFeedback> obs;
      if (enc == Encoding::kAir) {
        std::int32_t sp = open("capture.parse", root, i);
        auto f = capture::BeamformingActionFrame::parse(stream.bytes[i]);
        close(sp);
        if (!f) throw std::runtime_error("replay: frame does not parse");
        const capture::VhtMimoControl& mc = f->mimo_control;
        const std::uint64_t a0 = thread_allocs();
        sp = open("feedback.unpack", root, i);
        feedback::CompressedFeedbackReport rep =
            feedback::unpack_report(f->report, mc.nr, mc.nc, k80, mc.quant_config());
        close(sp);
        r.unpack_allocs += thread_allocs() - a0;
        obs.emplace();
        obs->beamformee = f->ta;
        obs->report = std::move(rep);
      } else {
        const std::uint64_t a0 = thread_allocs();
        const std::int32_t sp = open("net.decode", root, i);
        obs = net::decode_report(std::span(stream.bytes[i]).subspan(net::kHeaderBytes));
        close(sp);
        r.decode_allocs += thread_allocs() - a0;
        if (!obs) throw std::runtime_error("replay: wire frame does not decode");
      }
      const std::int32_t sp = open("dataset.features", root, i);
      dataset::fill_features(obs->report, spec, feats.data() + (i - at) * c * w, scratch);
      close(sp);
      batch[i - at] = std::move(obs->report);
    }
    {
      std::copy(feats.begin(), feats.end(), ctx->input());
      const std::int32_t sp = open("nn.forward_b64", root, at);
      ctx->run(kBatch);
      close(sp);
      for (std::size_t k = 0; forward_b1 && k < kBatch; ++k) {
        std::copy(feats.begin() + static_cast<std::ptrdiff_t>(k * c * w),
                  feats.begin() + static_cast<std::ptrdiff_t>((k + 1) * c * w), ctx->input());
        const std::int32_t s1 = open("nn.forward_b1", root, at + k);
        ctx->run(1);
        close(s1);
      }
    }
    {
      const std::int32_t sp = open("core.classify_b64", root, at);
      auth.classify_batch_into(batch, preds);
      close(sp);
    }
    for (std::size_t i = at; i < at + kBatch; ++i) {
      const capture::MacAddress mac = capture::MacAddress::for_fleet_station(stream.station[i]);
      std::int32_t sp = open("serving.record", root, i);
      const serving::SessionTable::RecordResult rr =
          table.record(mac, preds[i - at], timestamp_of(i));
      close(sp);
      if (pub == nullptr) continue;
      const net::VerdictMsg msg = to_msg(rr.verdict);
      sp = open("net.publish", root, i);
      pub->publish(msg);
      close(sp);
    }
    close(root);
  }
  r.cpu_s = process_cpu_seconds() - cpu0;
  return r;
}

namespace {

// Adds the stage per-layer metrics of a traced replay to `out` and
// returns the summed self time of the pipeline's own stages in order,
// µs per report: front end, features, forward at batch 64, record and,
// on the wire, publish.
double add_stage_metrics(const Tracer& tr, const ReplayResult& rp, Encoding enc, RunResult& out) {
  constexpr double kBatch = core::Authenticator::kContextBatch;
  const std::map<std::string, Tracer::LayerTime> layers = tr.by_name();
  auto self_us = [&](const char* name, double per) {
    const auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return it->second.self_ns / 1e3 / static_cast<double>(it->second.count) / per;
  };
  const double n = static_cast<double>(std::max<std::size_t>(rp.reports, 1));
  if (enc == Encoding::kAir) {
    add(out.per_layer, "capture.parse_us", self_us("capture.parse", 1), "us");
    add(out.per_layer, "feedback.unpack_us", self_us("feedback.unpack", 1), "us");
    add(out.per_layer, "feedback.unpack_allocs", static_cast<double>(rp.unpack_allocs) / n, "count");
  } else {
    add(out.per_layer, "net.decode_us", self_us("net.decode", 1), "us");
    add(out.per_layer, "net.decode_allocs", static_cast<double>(rp.decode_allocs) / n, "count");
    add(out.per_layer, "net.publish_us", self_us("net.publish", 1), "us");
  }
  add(out.per_layer, "dataset.features_us", self_us("dataset.features", 1), "us");
  add(out.per_layer, "nn.forward_b64_us", self_us("nn.forward_b64", kBatch), "us");
  if (layers.count("nn.forward_b1") != 0)
    add(out.per_layer, "nn.forward_b1_us", self_us("nn.forward_b1", 1), "us");
  add(out.per_layer, "core.classify_b64_us", self_us("core.classify_b64", kBatch), "us");
  add(out.per_layer, "serving.record_us", self_us("serving.record", 1), "us");

  double sum = self_us("dataset.features", 1) + self_us("nn.forward_b64", kBatch) +
               self_us("serving.record", 1);
  if (enc == Encoding::kWire)
    sum += self_us("net.decode", 1) + self_us("net.publish", 1);
  else
    sum += self_us("capture.parse", 1) + self_us("feedback.unpack", 1);
  return sum;
}

}  // namespace

RunResult run_serving_workload(const Options& opt) {
  RunResult res;
  const ServingWorkload& w = *find_workload(opt.workload);
  const Encoding enc = w.wire ? Encoding::kWire : Encoding::kAir;

  if (w.int8 && !simd::set_active(simd::Backend::kAvx2Int8)) {
    res.fail("the avx2_int8 backend is unavailable on this host");
    return res;
  }

  // ------------------------------------------------------------ prep
  const std::int64_t prep0 = now_ns();
  serving::FleetConfig fc;
  fc.stations = w.stations + 1;  // the last station is the warm-up's
  fc.mobile_fraction = w.mobile_fraction;
  fc.confusion_fraction = w.confusion_fraction;
  fc.seed = opt.seed;
  const serving::FleetGenerator gen(fc);

  const std::size_t n_open = std::max(
      kMinLatencySamples, static_cast<std::size_t>(w.open_rate * 0.6 * opt.seconds));
  const std::size_t n_sat =
      std::max<std::size_t>(2000, static_cast<std::size_t>(w.sat_reports_per_s * 0.4 * opt.seconds));
  const std::size_t n_total = n_open + n_sat;
  const ReportStream stream = make_stream(gen, opt.seed, n_total, w.stations, enc);
  const std::vector<std::uint8_t> warmup = make_warmup(gen, opt.seed, w.stations, enc);
  const Prepared prep = write_artifact(w, opt, stream, enc);
  const double prep_s = static_cast<double>(now_ns() - prep0) / 1e9;
  std::printf("%s: %zu open-loop reports at %.0f/s, %zu saturation reports; "
              "%llu stations, seed %llu, backend %s\n",
              w.name, n_open, w.open_rate, n_sat,
              static_cast<unsigned long long>(w.stations),
              static_cast<unsigned long long>(opt.seed), simd::name(simd::active()));

  // The benchmark's own per-report bookkeeping, allocated before the
  // baselines so that heap_mb and rss_mb count only the service.
  auto rec = std::make_shared<Recorder>(n_total);
  GenTimes times(n_total);
  SubmitTimes ingest_us(w.wire ? n_total + kSetups : 0);

  // ------------------------------------------------------------ set-up
  const double rss_before = rss_mib();
  const double heap_before = heap_live_mib();
  // setup_s is the set-up thread's CPU time (median of kSetups): wall
  // time follows the host's CPU steal. It leaves out the lane thread's
  // build of the first inference context: whether the allocator hands
  // that arena fresh pages (which fault) or recycled ones flips its cost
  // 2-3x from run to run. heap_mb counts the arenas' size.
  std::vector<double> setup_s, setup_cpu_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    if (stack) {
      stack->shutdown(nullptr);
      stack.reset();
    }
    rec->warm_seen.store(false);
    std::string err;
    const std::int64_t t0 = now_ns();
    const double c0 = thread_cpu_seconds();
    ingest_us.n = 0;
    stack = set_up(w, prep, warmup, rec, &ingest_us, &err);
    setup_cpu_s.push_back(thread_cpu_seconds() - c0);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!stack) {
      res.fail("set-up failed: " + err);
      return res;
    }
  }
  std::filesystem::remove_all(std::filesystem::path(prep.model_path).parent_path());
  const serving::StatsSnapshot st_setup = stack->service->stats();

  // ------------------------------------------------------------ live phases
  Generator generator(w, *stack, stream, *rec, times);
  Poller poller(*stack->service, rss_mib());
  generator.run(0, n_open, w.open_rate);
  const serving::StatsSnapshot st_open = stack->service->stats();
  const PhaseResult sat = generator.run(n_open, n_total, 0.0);
  poller.stop();
  const double rss_peak = poller.rss_peak();
  // The loaded service's live heap after traffic (every report done, the
  // queues empty). Peak RSS moves run to run in steps of one inference
  // context (~12 MiB) with whichever allocator arena retained freed
  // set-up memory, so it goes unbounded in the table.
  const double heap_after = heap_live_mib();
  net::IngestStats ingest_stats;
  net::PublisherStats publish_stats;
  if (w.wire) {
    ingest_stats = stack->ingest->stats();
    publish_stats = stack->publisher->stats();
  }

  // ------------------------------------------------------------ traced replays
  // A first pass warms the caches. Then passes with spans off and on
  // alternate; their summed CPU times give the tracing overhead, and the
  // first pass with spans gives the stage metrics.
  Tracer tr;
  double pipeline_us = 0.0, overhead = 0.0;
  if (opt.trace) {
    const auto replay = [&](Tracer* t) {
      return stage_replay(*stack->auth, service_config(w).sessions, stream, enc, kReplayReports,
                          /*forward_b1=*/w.paper_model, stack->publisher.get(), t);
    };
    replay(nullptr);
    double cpu_off = 0.0, cpu_on = 0.0;
    for (int k = 0; k < kOverheadPairs; ++k) {
      cpu_off += replay(nullptr).cpu_s;
      Tracer more;
      const ReplayResult on = replay(k == 0 ? &tr : &more);
      cpu_on += on.cpu_s;
      if (k == 0) pipeline_us = add_stage_metrics(tr, on, enc, res);
    }
    overhead = cpu_off > 0 ? cpu_on / cpu_off - 1.0 : 0.0;
  }

  // ------------------------------------------------------------ drain + checks
  const bool final_snapshot = true;
  stack->shutdown(&final_snapshot);
  const serving::StatsSnapshot st_end = stack->service->stats();

  const std::int64_t check0 = now_ns();
  Tally tally;
  tally.offered = n_total;
  tally.classified = rec->completed.load();
  std::vector<core::Authenticator::Prediction> ref =
      check_predictions(*stack->auth, stream, enc, n_total, *rec, &tally.mismatched);
  if (tally.mismatched > 0)
    res.fail(std::to_string(tally.mismatched) + " predictions differ from offline classify_batch");
  if (rec->duplicates.load() > 0) res.fail("the hook saw a report twice");
  if (generator.malformed + generator.refused > 0)
    res.fail("reports were malformed or refused at submission");

  std::uint64_t verdict_mismatch = 0;
  if (w.max_stations == 0) {
    // No eviction: the final verdicts must equal an offline SessionTable
    // replay of the reference predictions in stream order.
    serving::SessionTable table(service_config(w).sessions);
    auto warm = decode(warmup, enc, 0.0);
    table.record(warm->beamformee,
                 stack->auth->classify_batch(std::span(&warm->report, 1))[0], 0.0);
    for (std::size_t i = 0; i < n_total; ++i)
      table.record(capture::MacAddress::for_fleet_station(stream.station[i]), ref[i],
                   timestamp_of(i));
    const auto offline = table.snapshot();
    const auto online = stack->service->sessions().snapshot();
    if (offline.size() != online.size()) ++verdict_mismatch;
    for (std::size_t i = 0; i < std::min(offline.size(), online.size()); ++i)
      if (!same_verdict(offline[i], online[i])) ++verdict_mismatch;
    if (verdict_mismatch > 0)
      res.fail(std::to_string(verdict_mismatch) + " final verdicts differ from the offline replay");
  }
  if (w.wire) {
    // The subscriber's last frame per station must be its final verdict.
    std::uint64_t sub_mismatch = 0;
    const auto online = stack->service->sessions().snapshot();
    std::lock_guard<std::mutex> lock(stack->sub->mu);
    if (stack->sub->last.size() != online.size()) ++sub_mismatch;
    for (const serving::StationVerdict& v : online) {
      const auto it = stack->sub->last.find(v.station.to_u64());
      if (it == stack->sub->last.end() || !(it->second == to_msg(v))) ++sub_mismatch;
    }
    if (sub_mismatch > 0)
      res.fail(std::to_string(sub_mismatch) + " subscriber verdicts differ from the final verdicts");
    verdict_mismatch += sub_mismatch;
  }
  const double check_s = static_cast<double>(now_ns() - check0) / 1e9;
  res.attempted = tally.offered;
  res.failed = std::min<std::uint64_t>(tally.offered, tally.failed() + verdict_mismatch);

  // ------------------------------------------------------------ end-to-end
  // The bounded end-to-end metrics are the ones a shared host's CPU
  // steal leaves steady: set-up CPU, CPU per report and the live heap.
  // Throughput, report-to-verdict latency and wall-clock set-up follow
  // the steal, so they ride with the per-layer metrics (README.md, "Why
  // throughput, latency, wall-clock set-up and RSS carry no bound"):
  // medians over windows (metrics.h), pooled figures in the table.
  const std::vector<std::int64_t> due = open_loop(times.due, n_open, *rec);
  const std::vector<std::int64_t> done = open_loop(rec->done, n_open, *rec);
  const std::vector<std::int64_t> enqueued = open_loop(rec->enqueued, n_open, *rec);
  const std::vector<double> lat = latencies_ms(due, done);
  std::vector<std::int64_t> sat_done;
  for (std::size_t i = n_open; i < n_open + n_sat; ++i)
    if (rec->seen[i] != 0) sat_done.push_back(rec->done[i]);
  const bool enough = lat.size() >= kLatencyWindow && sat_done.size() > kRateWindow;
  if (!enough) res.fail("too few classified reports to form one window");
  const double cpu_us = sat.classified > 0 ? sat.cpu_s * 1e6 / static_cast<double>(sat.classified) : 0.0;
  add(res.end_to_end, "setup_s", median(setup_cpu_s), "s");
  add(res.per_layer, "setup_wall_s", median(setup_s), "s");
  add(res.end_to_end, "cpu_per_report_us", cpu_us, "us");
  add(res.end_to_end, "heap_mb", heap_after - heap_before, "MiB");
  add(res.per_layer, "rss_mb", rss_peak - rss_before, "MiB");
  add(res.per_layer, "throughput_rps", enough ? windowed_rate(sat_done, kRateWindow) : 0.0, "1/s");
  add(res.per_layer, "latency_p50_ms", enough ? windowed_percentile(lat, kLatencyWindow, 50.0) : 0.0, "ms");
  add(res.per_layer, "latency_p99_ms", enough ? windowed_percentile(lat, kLatencyWindow, 99.0) : 0.0, "ms");
  add(res.info, "pooled_throughput_rps", sat.wall_s > 0 ? static_cast<double>(sat.classified) / sat.wall_s : 0.0, "1/s");
  add(res.info, "pooled_latency_p50_ms", pct_or_zero(lat, 50.0), "ms");
  add(res.info, "pooled_latency_p99_ms", pct_or_zero(lat, 99.0), "ms");
  add(res.info, "latency_samples", static_cast<double>(lat.size()), "count");
  add(res.info, "open_loop_rate", w.open_rate, "1/s");
  add(res.info, "prep_s", prep_s, "s");
  add(res.info, "check_s", check_s, "s");
  add(res.per_layer, "failed_frac", static_cast<double>(res.failed) / static_cast<double>(res.attempted), "ratio");

  if (!opt.trace) return res;

  // ------------------------------------------------------------ per-layer (live)
  auto dstat = [](const serving::StatsSnapshot& a, const serving::StatsSnapshot& b) {
    serving::SchedulerStats d;
    d.batches = a.scheduler.batches - b.scheduler.batches;
    d.items = a.scheduler.items - b.scheduler.items;
    d.flush_deadline = a.scheduler.flush_deadline - b.scheduler.flush_deadline;
    return d;
  };
  const serving::SchedulerStats open_sched = dstat(st_open, st_setup);
  const double classified_total = std::max(1.0, static_cast<double>(tally.classified));
  std::vector<double> submit_us;
  for (std::size_t i = 0; i < n_open; ++i)
    submit_us.push_back(static_cast<double>(times.submitted[i] - times.submit[i]) / 1e3);
  add(res.per_layer, "serving.submit_us_p99", pct_or_zero(submit_us, 99.0), "us");
  add(res.per_layer, "serving.admit_ms_p99",
      pct_or_zero(latencies_ms(due, enqueued), 99.0), "ms");
  const std::vector<double> sojourn = latencies_ms(enqueued, done);
  add(res.per_layer, "serving.sojourn_ms_p50", pct_or_zero(sojourn, 50.0), "ms");
  add(res.per_layer, "serving.sojourn_ms_p99", pct_or_zero(sojourn, 99.0), "ms");
  add(res.per_layer, "serving.batch_mean",
      open_sched.batches ? static_cast<double>(open_sched.items) / static_cast<double>(open_sched.batches) : 0.0,
      "count");
  add(res.per_layer, "serving.flush_deadline_frac",
      open_sched.batches ? static_cast<double>(open_sched.flush_deadline) / static_cast<double>(open_sched.batches) : 0.0,
      "ratio");
  add(res.per_layer, "serving.queue_peak", static_cast<double>(st_open.queue.peak_depth), "count");
  add(res.per_layer, "serving.evicted_per_1k",
      1e3 * static_cast<double>(st_end.sessions.evicted_lru + st_end.sessions.evicted_ttl) / classified_total,
      "count");
  add(res.per_layer, "serving.stats_us", pct_or_zero(poller.stats_us(), 50.0), "us");
  double net_submit = 0.0, frames_1k = 0.0, dropped = 0.0, pauses_1k = 0.0;
  if (w.wire) {
    net_submit = pct_or_zero(ingest_us.values(), 99.0);
    frames_1k = 1e3 * static_cast<double>(publish_stats.frames_published) / classified_total;
    dropped = static_cast<double>(publish_stats.frames_dropped);
    pauses_1k = 1e3 * static_cast<double>(ingest_stats.pauses) / classified_total;
  }
  add(res.per_layer, "net.submit_us_p99", net_submit, "us");
  add(res.per_layer, "net.publish_frames_per_1k", frames_1k, "count");
  add(res.per_layer, "net.publish_dropped", dropped, "count");
  add(res.per_layer, "net.pauses_per_1k", pauses_1k, "count");
  add(res.per_layer, "process.cpu_util", sat.wall_s > 0 ? sat.cpu_s / sat.wall_s : 0.0, "ratio");
  add(res.per_layer, "gen.lateness_ms_p99",
      pct_or_zero(lateness_ms(std::vector<std::int64_t>(times.due.begin(), times.due.begin() + static_cast<std::ptrdiff_t>(n_open)),
                              std::vector<std::int64_t>(times.start.begin(), times.start.begin() + static_cast<std::ptrdiff_t>(n_open))),
                  99.0),
      "ms");
  add(res.per_layer, "gen.distinct_frac", stream.distinct_frac, "ratio");
  add(res.per_layer, "trace.overhead_frac", overhead, "ratio");
  add(res.per_layer, "trace.unattributed_frac", cpu_us > 0 ? 1.0 - pipeline_us / cpu_us : 0.0, "ratio");

  // Live spans, one tree per open-loop report: due -> prediction, with
  // the generator's lateness, front end and submission and the service's
  // sojourn as children. (Saturation reports have no due time.)
  for (std::size_t i = 0; i < n_open; ++i) {
    if (rec->seen[i] == 0) continue;
    const std::int32_t root = tr.add("live.report", times.due[i], rec->done[i], -1, i);
    tr.add("gen.lateness", times.due[i], times.start[i], root, i);
    tr.add("gen.front_end", times.start[i], times.submit[i], root, i);
    tr.add("serving.submit", times.submit[i], times.submitted[i], root, i);
    tr.add("serving.sojourn", rec->enqueued[i], rec->done[i], root, i);
  }
  report_trace(tr, opt);
  return res;
}

}  // namespace perfbench
