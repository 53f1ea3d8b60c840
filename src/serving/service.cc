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
    : auth_(auth), cfg_(cfg), sessions_(cfg_.sessions) {
  DEEPCSI_CHECK(cfg_.scheduler.max_batch >= 1);
  const std::size_t lanes = cfg_.consumers == 0 ? 1 : cfg_.consumers;
  // The configured capacity is the total in-flight budget; each lane gets
  // an even share (at least 1).
  const std::size_t per_lane =
      std::max<std::size_t>(1, cfg_.queue_capacity / lanes);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    lanes_.push_back(std::make_unique<Lane>(per_lane, cfg_.policy));
}

AuthService::~AuthService() { drain(); }

void AuthService::start() {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    DEEPCSI_CHECK(!started_);
    started_ = true;
    started_at_ = now;
  }
  for (const auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->last_progress = now;
    }
    lane->thread = std::thread([this, l = lane.get()] { run_lane(*l); });
  }
}

std::size_t AuthService::lane_for(const capture::MacAddress& station) const {
  // Same mixing as the session table: a station maps to exactly one lane,
  // so its reports are classified in submission order whatever the lane
  // count — the invariant every verdict guarantee rests on.
  return common::mix64(station.to_u64()) % lanes_.size();
}

bool AuthService::submit(const capture::ObservedFeedback& obs) {
  return lanes_[lane_for(obs.beamformee)]->queue.push(
      pending(obs.beamformee, obs.timestamp_s, obs.report));
}

bool AuthService::submit(capture::MacAddress station, double timestamp_s,
                         feedback::CompressedFeedbackReport report) {
  // `report` dies here, on the thread that built it.
  return lanes_[lane_for(station)]->queue.push(
      pending(station, timestamp_s, report));
}

common::PushStatus AuthService::try_submit(
    const capture::ObservedFeedback& obs) {
  PendingReport item = pending(obs.beamformee, obs.timestamp_s, obs.report);
  return lanes_[lane_for(item.station)]->queue.try_push(item);
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
  for (const auto& lane : lanes_) lane->queue.close();
  for (const auto& lane : lanes_)
    if (lane->thread.joinable()) lane->thread.join();
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (started_ && !drained_) {
    drained_ = true;
    drained_at_ = std::chrono::steady_clock::now();
  }
}

void AuthService::run_lane(Lane& lane) {
  const SchedulerConfig& sc = cfg_.scheduler;
  std::vector<PendingReport> batch;
  batch.reserve(sc.max_batch);
  PendingReport item;
  while (lane.queue.pop(item)) {
    // Gather: the first report starts the max_latency clock; the batch
    // flushes full (kItem), at that deadline (kTimeout) or on drain
    // (kClosed), whichever comes first.
    batch.push_back(std::move(item));
    const auto deadline = std::chrono::steady_clock::now() + sc.max_latency;
    common::PopStatus why = common::PopStatus::kItem;
    while (batch.size() < sc.max_batch) {
      why = lane.queue.pop_until(item, deadline);
      if (why != common::PopStatus::kItem) break;
      batch.push_back(std::move(item));
    }

    // Classify: a const forward through a leased InferenceContext; lanes
    // run concurrently against the one immutable SharedModel.
    const std::size_t n = batch.size();
    lane.codes.resize(n);
    lane.predictions.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      lane.codes[i] = std::move(batch[i].codes);
    auth_.classify_batch_into(lane.codes, std::span(lane.predictions));

    // Record, then the verdict and shadow callbacks, in queue order.
    for (std::size_t i = 0; i < n; ++i) {
      // The payload was moved out for classification; hand it back so
      // the shadow hook sees the full report without a copy on the
      // primary path.
      batch[i].codes = std::move(lane.codes[i]);
      const SessionTable::RecordResult r = sessions_.record(
          batch[i].station, lane.predictions[i], batch[i].timestamp_s);
      if (r.changed && verdict_cb_) verdict_cb_(r.verdict);
      if (shadow_cb_) shadow_cb_(batch[i], lane.predictions[i]);
    }

    const auto now = std::chrono::steady_clock::now();
    const std::chrono::duration<double, std::milli> latency =
        now - batch.front().enqueued_at;
    const double latency_ms = latency.count();
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (batch_latency_ms_.size() < kLatencyRing) {
        batch_latency_ms_.push_back(latency_ms);
      } else {
        batch_latency_ms_[latency_next_] = latency_ms;
        latency_next_ = (latency_next_ + 1) % kLatencyRing;
      }
      if (latency_ms > batch_latency_max_ms_)
        batch_latency_max_ms_ = latency_ms;
    }
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.last_progress = now;
    SchedulerStats& st = lane.stats;
    ++st.batches;
    st.items += n;
    st.max_batch_seen = std::max(st.max_batch_seen, n);
    switch (why) {
      case common::PopStatus::kItem: ++st.flush_full; break;
      case common::PopStatus::kTimeout: ++st.flush_deadline; break;
      case common::PopStatus::kClosed: ++st.flush_drain; break;
    }
  }
}

StatsSnapshot::Lane AuthService::lane_stats(std::size_t i) const {
  const Lane& lane = *lanes_.at(i);
  StatsSnapshot::Lane s;
  s.queue = lane.queue.stats();
  std::chrono::steady_clock::time_point last_progress;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    s.scheduler = lane.stats;
    last_progress = lane.last_progress;
  }
  const std::chrono::duration<double> since =
      std::chrono::steady_clock::now() - last_progress;
  s.since_progress_s = since.count();
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
  for (const auto& lane : lanes_) depth += lane->queue.stats().depth;
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
  s.consumers = lanes_.size();
  s.lanes.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const StatsSnapshot::Lane& l = s.lanes.emplace_back(lane_stats(i));
    s.queue.depth += l.queue.depth;
    s.queue.peak_depth += l.queue.peak_depth;
    s.queue.pushed += l.queue.pushed;
    s.queue.popped += l.queue.popped;
    s.queue.dropped_oldest += l.queue.dropped_oldest;
    s.queue.rejected += l.queue.rejected;
    s.queue.would_block += l.queue.would_block;
    s.scheduler.batches += l.scheduler.batches;
    s.scheduler.items += l.scheduler.items;
    s.scheduler.flush_full += l.scheduler.flush_full;
    s.scheduler.flush_deadline += l.scheduler.flush_deadline;
    s.scheduler.flush_drain += l.scheduler.flush_drain;
    s.scheduler.max_batch_seen =
        std::max(s.scheduler.max_batch_seen, l.scheduler.max_batch_seen);
    if (l.stalled) ++s.lanes_stalled;
  }
  s.reports_classified = s.scheduler.items;
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
    if (started_) {
      const auto end =
          drained_ ? drained_at_ : std::chrono::steady_clock::now();
      s.wall_seconds = std::chrono::duration<double>(end - started_at_).count();
      if (s.wall_seconds > 0.0)
        s.throughput_rps =
            static_cast<double>(s.reports_classified) / s.wall_seconds;
    }
    latencies = batch_latency_ms_;
    s.batch_latency_max_ms = batch_latency_max_ms_;
  }
  s.batch_latency_p50_ms = percentile_ms(latencies, 0.50);
  s.batch_latency_p99_ms = percentile_ms(latencies, 0.99);
  return s;
}

}  // namespace deepcsi::serving
