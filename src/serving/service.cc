#include "serving/service.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/rss.h"

namespace deepcsi::serving {

namespace {

// Nearest-rank percentile; partially reorders `sample`.
double percentile_ms(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  const std::size_t rank = std::min(
      sample.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sample.size())));
  std::nth_element(sample.begin(), sample.begin() + rank, sample.end());
  return sample[rank];
}

std::size_t lane_count(const ServiceConfig& cfg) {
  return cfg.consumers == 0 ? 1 : cfg.consumers;
}

std::vector<std::unique_ptr<common::ReportQueue<PendingReport>>> make_queues(
    const ServiceConfig& cfg) {
  const std::size_t lanes = lane_count(cfg);
  // The configured capacity is the total in-flight budget; each lane gets
  // an even share (at least 1).
  const std::size_t per_lane =
      std::max<std::size_t>(1, cfg.queue_capacity / lanes);
  std::vector<std::unique_ptr<common::ReportQueue<PendingReport>>> queues;
  queues.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    queues.push_back(std::make_unique<common::ReportQueue<PendingReport>>(
        per_lane, cfg.policy));
  return queues;
}

std::vector<common::ReportQueue<PendingReport>*> queue_ptrs(
    const std::vector<std::unique_ptr<common::ReportQueue<PendingReport>>>&
        queues) {
  std::vector<common::ReportQueue<PendingReport>*> ptrs;
  ptrs.reserve(queues.size());
  for (const auto& q : queues) ptrs.push_back(q.get());
  return ptrs;
}

PendingReport pending(capture::MacAddress station, double timestamp_s,
                      const feedback::CompressedFeedbackReport& report) {
  PendingReport item;
  item.station = station;
  item.timestamp_s = timestamp_s;
  item.codes = feedback::AngleCodes(report);
  item.enqueued_at = std::chrono::steady_clock::now();
  return item;
}

}  // namespace

AuthService::AuthService(const core::Authenticator& auth, ServiceConfig cfg)
    : auth_(auth),
      cfg_(cfg),
      queues_(make_queues(cfg_)),
      sessions_(cfg_.sessions),
      scheduler_(queue_ptrs(queues_), cfg_.scheduler,
                 [this](std::vector<PendingReport>&& batch, FlushReason reason,
                        std::size_t lane) {
                   on_batch(std::move(batch), reason, lane);
                 }),
      lane_scratch_(queues_.size()) {}

AuthService::~AuthService() { drain(); }

void AuthService::start() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    DEEPCSI_CHECK(!started_);
    started_ = true;
    started_at_ = std::chrono::steady_clock::now();
  }
  scheduler_.start();
}

std::size_t AuthService::lane_for(const capture::MacAddress& station) const {
  // Same mixing as the session table: a station maps to exactly one lane,
  // so its reports are classified in submission order whatever the lane
  // count — the invariant every verdict guarantee rests on.
  return common::mix64(station.to_u64()) % queues_.size();
}

bool AuthService::submit(const capture::ObservedFeedback& obs) {
  return queues_[lane_for(obs.beamformee)]->push(
      pending(obs.beamformee, obs.timestamp_s, obs.report));
}

bool AuthService::submit(capture::MacAddress station, double timestamp_s,
                         feedback::CompressedFeedbackReport report) {
  // `report` dies here, on the thread that built it.
  return queues_[lane_for(station)]->push(
      pending(station, timestamp_s, report));
}

common::PushStatus AuthService::try_submit(
    const capture::ObservedFeedback& obs) {
  PendingReport item = pending(obs.beamformee, obs.timestamp_s, obs.report);
  return queues_[lane_for(item.station)]->try_push(item);
}

void AuthService::set_verdict_callback(VerdictCallback cb) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  DEEPCSI_CHECK(!started_);  // lane threads read verdict_cb_ unlocked
  verdict_cb_ = std::move(cb);
}

void AuthService::set_shadow_callback(ShadowCallback cb) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  DEEPCSI_CHECK(!started_);  // lane threads read shadow_cb_ unlocked
  shadow_cb_ = std::move(cb);
}

void AuthService::on_model_swapped() { sessions_.reset_drift(); }

void AuthService::drain() {
  for (auto& queue : queues_) queue->close();
  scheduler_.join();
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (started_ && !drained_) {
    drained_ = true;
    drained_at_ = std::chrono::steady_clock::now();
  }
}

void AuthService::on_batch(std::vector<PendingReport>&& batch,
                           FlushReason /*reason*/, std::size_t lane) {
  if (batch.empty()) return;
  const auto oldest_enqueued = batch.front().enqueued_at;
  LaneScratch& scratch = lane_scratch_[lane];

  scratch.reports.resize(batch.size());
  scratch.predictions.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    scratch.reports[i] = std::move(batch[i].codes);

  // Const forward through this lane's leased InferenceContext; lanes run
  // concurrently against the one immutable SharedModel.
  auth_.classify_batch_into(scratch.reports,
                            std::span(scratch.predictions.data(),
                                      scratch.predictions.size()));

  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The report payload was moved into scratch for classification; hand
    // it back so the shadow hook (and nobody else — batch dies here) can
    // see the full report without a copy on the primary path.
    batch[i].codes = std::move(scratch.reports[i]);
    const SessionTable::RecordResult r = sessions_.record(
        batch[i].station, scratch.predictions[i], batch[i].timestamp_s);
    if (r.changed && verdict_cb_) verdict_cb_(r.verdict);
    if (shadow_cb_) shadow_cb_(batch[i], scratch.predictions[i]);
  }

  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - oldest_enqueued)
          .count();
  std::lock_guard<std::mutex> lock(stats_mu_);
  reports_classified_ += batch.size();
  if (batch_latency_ms_.size() < kLatencyRing) {
    batch_latency_ms_.push_back(latency_ms);
  } else {
    batch_latency_ms_[latency_next_] = latency_ms;
    latency_next_ = (latency_next_ + 1) % kLatencyRing;
  }
  if (latency_ms > batch_latency_max_ms_) batch_latency_max_ms_ = latency_ms;
}

StatsSnapshot::Lane AuthService::lane_stats(std::size_t lane) const {
  StatsSnapshot::Lane s;
  s.queue = queues_.at(lane)->stats();
  s.scheduler = scheduler_.lane_stats(lane);
  s.since_progress_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    scheduler_.lane_last_progress(lane))
          .count();
  // Stalled = work waiting AND no flush for the stall threshold. An idle
  // lane (empty queue) is never stalled, however long it sleeps.
  s.stalled =
      s.queue.depth > 0 &&
      s.since_progress_s >
          std::chrono::duration<double>(cfg_.watchdog_stall).count();
  return s;
}

std::size_t AuthService::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->stats().depth;
  return depth;
}

void AuthService::save_sessions(const std::string& path) const {
  sessions_.save_snapshot(path);
}

SessionTable::RestoreStatus AuthService::restore_sessions(
    const std::string& path, std::string* error) {
  return sessions_.restore_snapshot(path, error);
}

StatsSnapshot AuthService::stats() const {
  StatsSnapshot s;
  for (const auto& queue : queues_) {
    const common::QueueStats q = queue->stats();
    s.queue.depth += q.depth;
    s.queue.peak_depth += q.peak_depth;
    s.queue.pushed += q.pushed;
    s.queue.popped += q.popped;
    s.queue.dropped_oldest += q.dropped_oldest;
    s.queue.rejected += q.rejected;
    s.queue.would_block += q.would_block;
  }
  s.scheduler = scheduler_.stats();
  s.consumers = queues_.size();
  s.lanes.reserve(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    s.lanes.push_back(lane_stats(i));
    if (s.lanes.back().stalled) ++s.lanes_stalled;
  }
  s.sessions = sessions_.stats();
  const core::Authenticator::EpochInfo epoch = auth_.epoch_info();
  s.lifecycle.epoch = epoch.id;
  s.lifecycle.swaps_completed = auth_.swaps_completed();
  s.lifecycle.swaps_rolled_back = auth_.swaps_rolled_back();
  s.lifecycle.contexts = epoch.contexts;
  s.lifecycle.arena_bytes = epoch.arena_bytes;
  s.queue_budget = cfg_.queue_capacity;
  s.watchdog_stall_s =
      std::chrono::duration<double>(cfg_.watchdog_stall).count();
  s.process_rss_bytes = common::process_rss_bytes();
  std::vector<double> latencies;
  {
    // Lanes take this lock after every batch: copy the ring under it and
    // select percentiles after releasing it.
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.reports_classified = reports_classified_;
    if (started_) {
      const auto end =
          drained_ ? drained_at_ : std::chrono::steady_clock::now();
      s.wall_seconds = std::chrono::duration<double>(end - started_at_).count();
      if (s.wall_seconds > 0.0)
        s.throughput_rps =
            static_cast<double>(reports_classified_) / s.wall_seconds;
    }
    latencies = batch_latency_ms_;
    s.batch_latency_max_ms = batch_latency_max_ms_;
  }
  s.batch_latency_p50_ms = percentile_ms(latencies, 0.50);
  s.batch_latency_p99_ms = percentile_ms(latencies, 0.99);
  return s;
}

}  // namespace deepcsi::serving
