// The streaming authentication service: the glue that turns the offline
// pipeline into a long-running multi-station observer (the deployment of
// Fig. 1 — a passive monitor fingerprinting every beamformee it can hear).
//
//   producers ──> shard by station MAC ──> lane queues ──> consumers
//   (capture /      (mix64(MAC) %           (bounded,        (one thread +
//    replay          consumers; one          backpressure     InferenceContext
//    threads)        station = one lane)     policy each)     per lane)
//                                                                │
//                              SessionTable (per-station  <──────┘
//                              rolling majority verdict)
//
// Any number of producer threads call submit(); each report is routed to
// the lane owning its station, and every lane classifies its batches
// through the shared Authenticator's context pool — concurrent const
// forward passes over one immutable SharedModel, no serialization between
// lanes. Because a station's reports always flow through exactly one lane
// in FIFO order, the per-station prediction sequence — and therefore every
// verdict, vote count and mean confidence — is identical for ANY consumer
// count, any DEEPCSI_THREADS and any batch timing (per-report predictions
// do not depend on batch composition). With a single producer this makes
// end-to-end verdicts fully reproducible.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "capture/monitor.h"
#include "common/report_queue.h"
#include "core/pipeline.h"
#include "serving/scheduler.h"
#include "serving/session_table.h"
#include "serving/stats.h"

namespace deepcsi::serving {

struct ServiceConfig {
  // Total queued-report budget, divided evenly across consumer lanes.
  std::size_t queue_capacity = 1024;
  common::OverflowPolicy policy = common::OverflowPolicy::kBlock;
  SchedulerConfig scheduler;  // max_batch / max_latency (per lane)
  SessionConfig sessions;     // verdict window / shard count
  // Consumer lanes. Each lane owns a queue, a scheduler thread and an
  // InferenceContext lease; stations are sharded across lanes by MAC.
  std::size_t consumers = 1;
  // A lane with queued work that has not flushed a batch for this long
  // is flagged stalled in stats() / lane_stats() — the watchdog signal
  // the serve stats block surfaces for a wedged consumer.
  std::chrono::milliseconds watchdog_stall{2000};
};

// One report waiting for the classifier, in the flat form: the producer
// thread flattens (and frees) the nested report in submit/try_submit, so
// a queued report is one heap block that the lane thread frees.
struct PendingReport {
  capture::MacAddress station;
  double timestamp_s = 0.0;
  feedback::AngleCodes codes;
  std::chrono::steady_clock::time_point enqueued_at{};
};

class AuthService {
 public:
  // The Authenticator must outlive the service; the service never mutates
  // its weights, it only runs const forward passes from the lane threads.
  AuthService(const core::Authenticator& auth, ServiceConfig cfg);
  ~AuthService();

  AuthService(const AuthService&) = delete;
  AuthService& operator=(const AuthService&) = delete;

  void start();

  // Producer entry points (thread-safe). Returns false when the report
  // was not accepted: service draining, or kReject policy with a full
  // lane queue. Under kDropOldest acceptance always succeeds but may evict
  // the oldest queued report of the same lane (counted in
  // stats().queue.dropped_oldest).
  bool submit(const capture::ObservedFeedback& obs);
  bool submit(capture::MacAddress station, double timestamp_s,
              feedback::CompressedFeedbackReport report);

  // Non-blocking producer entry for the network ingest path (which must
  // never park the event-loop thread). Never modifies `obs`: after
  // kWouldBlock (kBlock policy, lane queue full) the caller can hold the
  // report and retry — the ingest server turns that into a paused
  // connection (EPOLLIN off, TCP flow control).
  common::PushStatus try_submit(const capture::ObservedFeedback& obs);

  // Streams every verdict transition (majority module changed, or first
  // report of a station) to `cb`, invoked from lane threads under no
  // service lock — the callback must be thread-safe and fast (the
  // VerdictPublisher's publish() qualifies: it buffers and returns).
  // Set before start().
  using VerdictCallback = std::function<void(const StationVerdict&)>;
  void set_verdict_callback(VerdictCallback cb);

  // Observes EVERY classified report (not just verdict transitions):
  // station, timestamp, the flat report and the primary model's
  // prediction. Invoked from lane threads under no service lock, after
  // the prediction is folded into the SessionTable — the hook the shadow
  // scorer taps to mirror a sampled slice of the live stream onto a
  // candidate model without touching the primary path. Same rules as the
  // verdict callback: thread-safe, fast, set before start().
  using ShadowCallback = std::function<void(
      const PendingReport&, const core::Authenticator::Prediction&)>;
  void set_shadow_callback(ShadowCallback cb);

  // Tell the service the Authenticator it serves just published a new
  // epoch: resets every station's drift EWMA (confidence history under
  // the old weights says nothing about the new ones). Windows, votes and
  // lifetime counters are untouched — verdict continuity survives swaps.
  void on_model_swapped();

  // Stops intake, classifies everything still queued, and joins the
  // lane threads. Idempotent.
  void drain();

  // The consolidated observability snapshot: queue/scheduler aggregates,
  // per-lane breakdown, session-table occupancy + eviction counters,
  // configured context and process RSS — everything except the network
  // front ends (the socket owners copy those in; serving does not depend
  // on net).
  StatsSnapshot stats() const;
  std::size_t num_lanes() const { return queues_.size(); }
  StatsSnapshot::Lane lane_stats(std::size_t lane) const;
  const SessionTable& sessions() const { return sessions_; }

  // Total reports currently queued across lanes. Cheap (one short lock
  // per lane, no latency-ring sorting) — safe to poll from the ingest
  // accept path for load-shedding decisions.
  std::size_t queue_depth() const;

  // Crash-safe session persistence (see SessionTable::save_snapshot /
  // restore_snapshot). save may be called at any time — the snapshot is
  // a consistent per-station cut (each session serialized under its
  // shard lock). restore must happen before reports flow or the
  // restored windows would interleave with live ones mid-stream.
  void save_sessions(const std::string& path) const;
  SessionTable::RestoreStatus restore_sessions(const std::string& path,
                                               std::string* error = nullptr);

 private:
  void on_batch(std::vector<PendingReport>&& batch, FlushReason reason,
                std::size_t lane);
  std::size_t lane_for(const capture::MacAddress& station) const;

  const core::Authenticator& auth_;
  ServiceConfig cfg_;
  VerdictCallback verdict_cb_;  // set before start(), read by lane threads
  ShadowCallback shadow_cb_;    // ditto
  // One bounded queue per lane (ReportQueue is not movable, hence the
  // unique_ptr indirection).
  std::vector<std::unique_ptr<common::ReportQueue<PendingReport>>> queues_;
  SessionTable sessions_;
  BatchingScheduler<PendingReport> scheduler_;

  // Lane-thread scratch, reused across batches so a flush moves payloads
  // and reuses prediction storage instead of allocating.
  struct LaneScratch {
    std::vector<feedback::AngleCodes> reports;
    std::vector<core::Authenticator::Prediction> predictions;
  };
  std::vector<LaneScratch> lane_scratch_;

  mutable std::mutex stats_mu_;
  std::size_t reports_classified_ = 0;
  // Latency percentiles are computed over the most recent batches only —
  // a fixed-size ring, so a long-running service never grows this and a
  // stats() call stays O(ring size), not O(lifetime batches).
  static constexpr std::size_t kLatencyRing = 4096;
  std::vector<double> batch_latency_ms_;  // ring storage, <= kLatencyRing
  std::size_t latency_next_ = 0;          // ring write cursor
  double batch_latency_max_ms_ = 0.0;     // lifetime max, not windowed
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point drained_at_{};
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace deepcsi::serving
