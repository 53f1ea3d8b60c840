#include "serving/shadow.h"

#include <span>
#include <utility>

namespace deepcsi::serving {

ShadowScorer::ShadowScorer(core::Authenticator candidate, ShadowConfig cfg)
    : candidate_(std::move(candidate)),
      cfg_(cfg),
      queue_(cfg.queue_capacity == 0 ? 1 : cfg.queue_capacity,
             common::OverflowPolicy::kDropOldest) {
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  thread_ = std::thread([this] { run(); });
}

ShadowScorer::~ShadowScorer() { stop(); }

void ShadowScorer::observe(const PendingReport& report,
                           const core::Authenticator::Prediction& primary) {
  const std::uint64_t n = seen_.fetch_add(1, std::memory_order_relaxed);
  if (n % cfg_.sample_every != 0) return;
  Sampled s;
  s.report = report;  // one-block copy: the primary path keeps its own
  s.primary = primary;
  // kDropOldest: a slow scorer sheds its own backlog, never the caller.
  queue_.push(std::move(s));
}

void ShadowScorer::run() {
  Sampled s;
  while (queue_.pop(s)) {
    const core::Authenticator::Prediction shadow =
        candidate_.classify(s.report.codes);
    std::lock_guard<std::mutex> lock(mu_);
    ++sampled_;
    confidence_delta_sum_ += shadow.confidence - s.primary.confidence;
    if (shadow.module_id != s.primary.module_id) {
      ++diverged_;
      diverging_stations_.insert(s.report.station.to_u64());
    }
  }
}

void ShadowScorer::stop() {
  queue_.close();
  if (thread_.joinable()) thread_.join();
}

StatsSnapshot::Shadow ShadowScorer::stats() const {
  StatsSnapshot::Shadow s;
  s.present = true;
  std::lock_guard<std::mutex> lock(mu_);
  s.sampled = sampled_;
  s.diverged = diverged_;
  s.stations_diverging = diverging_stations_.size();
  if (sampled_ > 0)
    s.mean_confidence_delta =
        confidence_delta_sum_ / static_cast<double>(sampled_);
  s.promoted = promoted_.load(std::memory_order_relaxed);
  return s;
}

bool ShadowScorer::promotable() const {
  if (cfg_.max_divergence < 0.0) return false;
  if (promoted_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (sampled_ < cfg_.min_samples) return false;
  return static_cast<double>(diverged_) / static_cast<double>(sampled_) <
         cfg_.max_divergence;
}

void ShadowScorer::mark_promoted() {
  promoted_.store(true, std::memory_order_relaxed);
}

}  // namespace deepcsi::serving
