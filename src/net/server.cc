#include "net/server.h"

#include <cstdio>
#include <exception>
#include <sys/stat.h>

namespace deepcsi::net {

VerdictMsg to_verdict_msg(const serving::StationVerdict& v) {
  VerdictMsg m;
  m.station = v.station;
  m.module_id = static_cast<std::int32_t>(v.module_id);
  m.votes = static_cast<std::uint32_t>(v.votes);
  m.window_size = static_cast<std::uint32_t>(v.window_size);
  m.total_reports = static_cast<std::uint64_t>(v.total_reports);
  m.mean_confidence = v.mean_confidence;
  m.last_timestamp_s = v.last_timestamp_s;
  return m;
}

bool shed_state(std::size_t depth, bool shedding, std::size_t high,
                std::size_t low) {
  if (!shedding && depth >= high) return true;
  if (shedding && depth <= low) return false;
  return shedding;
}

Server::Server(const serving::ServeOptions& o, core::Authenticator& auth,
               std::optional<core::Authenticator> shadow)
    : o_(o),
      auth_(auth),
      service_(auth, o.service),
      ingest_(ingest_config(), [this](capture::ObservedFeedback& obs) {
        return service_.try_submit(obs);
      }) {
  if (o_.publish) {
    PublisherConfig pcfg;
    pcfg.port = o_.publish_port;
    pcfg.max_conns = static_cast<std::size_t>(o_.max_conns);
    pub_.emplace(pcfg);
    service_.set_verdict_callback([this](const serving::StationVerdict& v) {
      pub_->publish(to_verdict_msg(v));
    });
  }
  if (shadow) {
    serving::ShadowConfig scfg;
    scfg.sample_every = static_cast<std::size_t>(o_.shadow_sample);
    scfg.max_divergence = o_.promote_below;
    scfg.min_samples = static_cast<std::uint64_t>(o_.promote_min);
    shadow_.emplace(std::move(*shadow), scfg);
    service_.set_shadow_callback(
        [this](const serving::PendingReport& r,
               const core::Authenticator::Prediction& p) {
          shadow_->observe(r, p);
        });
    std::printf("serve: shadow-scoring %s on 1-in-%d of the stream%s\n",
                o_.shadow_model.c_str(), o_.shadow_sample,
                o_.promote_below >= 0.0 ? " (auto-promote armed)" : "");
  }
}

bool Server::start(std::string* error) {
  if (!o_.state_file.empty()) {
    // Restore BEFORE any report flows: rolling majorities pick up where
    // the previous process (clean exit or kill -9) last snapshotted.
    switch (service_.restore_sessions(o_.state_file, error)) {
      case serving::SessionTable::RestoreStatus::kRestored:
        std::printf("serve: restored %zu station session(s) from %s\n",
                    service_.sessions().num_stations(),
                    o_.state_file.c_str());
        break;
      case serving::SessionTable::RestoreStatus::kNoFile:
        std::printf("serve: no session snapshot at %s, starting cold\n",
                    o_.state_file.c_str());
        break;
      case serving::SessionTable::RestoreStatus::kCorrupt:
        // A damaged snapshot is refused loudly, never half-loaded: the
        // operator decides whether to delete it and start cold.
        return false;
    }
  }
  if (pub_) pub_->start();
  service_.start();
  ingest_.start();
  last_save_ = last_watch_ = std::chrono::steady_clock::now();
  watch_prev_ = watch_attempted_ = stamp_of(o_.model);
  return true;
}

IngestConfig Server::ingest_config() {
  IngestConfig cfg;
  cfg.port = o_.listen_port;
  cfg.max_conns = static_cast<std::size_t>(o_.max_conns);
  // Refusing NEW connections is the cheapest work to sacrifice under
  // overload: established streams keep flowing and in-flight reports
  // keep classifying.
  cfg.accept_gate = [this] {
    const bool shed = shed_state(
        service_.queue_depth(), shedding_.load(std::memory_order_relaxed),
        static_cast<std::size_t>(o_.shed_high),
        static_cast<std::size_t>(o_.shed_low));
    shedding_.store(shed, std::memory_order_relaxed);
    return !shed;
  };
  return cfg;
}

Server::FileStamp Server::stamp_of(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              static_cast<std::int64_t>(st.st_mtim.tv_nsec),
          static_cast<std::int64_t>(st.st_size)};
}

bool Server::attempt_swap(const std::string& path, const char* trigger) {
  const core::Authenticator::SwapResult r = auth_.swap_model(path);
  if (r.ok()) {
    service_.on_model_swapped();  // drift EWMA re-warms under new weights
    std::printf("serve: model hot-swapped (%s) -> epoch %llu\n", trigger,
                static_cast<unsigned long long>(r.epoch));
    std::fflush(stdout);  // operators tail the log for this line
  } else {
    std::fprintf(stderr,
                 "serve: model swap REFUSED (%s): %s — still serving "
                 "epoch %llu\n",
                 trigger, r.error.c_str(),
                 static_cast<unsigned long long>(r.epoch));
  }
  return r.ok();
}

bool Server::swap_model(const char* trigger) {
  return attempt_swap(o_.model, trigger);
}

void Server::save_sessions(const char* what) {
  try {
    service_.save_sessions(o_.state_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: %s failed: %s\n", what, e.what());
  }
}

void Server::tick() {
  if (o_.model_watch_ms > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_watch_ >= std::chrono::milliseconds(o_.model_watch_ms)) {
      last_watch_ = now;
      // Swap only once the stamp is STABLE across two polls (changed
      // since the last attempt AND unchanged since the last look): our
      // own artifacts rename atomically, but external cp pipelines do
      // not, and half a weights file must never reach the loader.
      const FileStamp cur = stamp_of(o_.model);
      if (cur.mtime_ns >= 0 && cur != watch_attempted_ && cur == watch_prev_) {
        watch_attempted_ = cur;
        attempt_swap(o_.model, "watch");
      }
      watch_prev_ = cur;
    }
  }
  if (shadow_ && shadow_->promotable()) {
    // One promotion offer per candidate — win or lose, never retried on
    // every tick (a refused candidate stays in shadow, its stats keep
    // accumulating for the operator to inspect).
    shadow_->mark_promoted();
    attempt_swap(o_.shadow_model, "shadow-promotion");
  }
  if (!o_.state_file.empty()) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_save_ >= std::chrono::milliseconds(o_.state_interval_ms)) {
      save_sessions("session snapshot");
      last_save_ = now;
    }
  }
}

serving::StatsSnapshot Server::drain() {
  ingest_.stop();
  service_.drain();  // queued reports classify; verdict callbacks still fire
  // Final snapshot after the drain so a clean shutdown persists every
  // classified report, not just the last periodic cut.
  if (!o_.state_file.empty()) save_sessions("final session snapshot");

  serving::StatsSnapshot stats = service_.stats();
  if (shadow_) {
    // Lane threads are joined (drain), so the tap is quiet: score what is
    // still queued, then fold the tallies into the snapshot.
    shadow_->stop();
    stats.shadow = shadow_->stats();
  }
  stats.ingest = ingest_.stats();  // stopped above: the counts are final
  if (pub_) {
    // Authoritative end-of-run state: a full verdict snapshot (covers
    // subscribers that connected after early transitions), then the
    // snapshot itself as the last frame, flushed before the publisher
    // closes. Its publish section is the one thing the frame cannot
    // carry — it counts that frame — so it is set only afterwards.
    for (const serving::StationVerdict& v : service_.sessions().snapshot())
      pub_->publish(to_verdict_msg(v));
    pub_->publish_stats(stats.render_json());
    pub_->stop();
    stats.publish = pub_->stats();
  }
  return stats;
}

}  // namespace deepcsi::net
