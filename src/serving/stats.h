// The one observability surface of the serving stack: every counter the
// service, its queues, its scheduler lanes, the session table and the
// optional network front ends expose is collected into a single versioned
// StatsSnapshot, with one renderer for the human-facing `serve` end-of-run
// block and one for machine-readable JSON.
//
// It is the only stats schema, from the socket counters to the wire: the
// network front ends' own counter structs (net/stats.h) are held as they
// are, and the kStats frame a `serve --publish` run ends with carries
// render_json() as its payload. Earlier the same numbers lived in ad-hoc
// structs, hand-copied mirrors and a 13-field binary wire subset with a
// codec of its own, each consumer stitching its own view together. New
// counters (eviction, occupancy, RSS) land HERE, once, and every consumer
// — the end-of-run block, --stats-json and the stats frame — sees them.
//
// kVersion gates the JSON schema: any field removal or meaning change
// bumps it, additions do not (readers must tolerate unknown keys).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/report_queue.h"
#include "net/stats.h"
#include "serving/scheduler.h"
#include "serving/session_table.h"

namespace deepcsi::serving {

struct StatsSnapshot {
  static constexpr int kVersion = 1;

  // ------------------------------------------------ service core
  common::QueueStats queue;  // aggregated over lanes (peak_depth summed)
  SchedulerStats scheduler;  // aggregated over lanes
  std::size_t consumers = 1;
  std::size_t lanes_stalled = 0;  // watchdog: queued work, no progress
  std::size_t reports_classified = 0;
  double wall_seconds = 0.0;       // start() .. drain() (or "so far")
  double throughput_rps = 0.0;     // reports_classified / wall_seconds
  // Batch latency = enqueue of the batch's oldest report -> verdicts
  // recorded; the end-to-end staleness of the slowest report in a batch.
  double batch_latency_p50_ms = 0.0;
  double batch_latency_p99_ms = 0.0;
  double batch_latency_max_ms = 0.0;

  // Per-lane breakdown (same order as the lane queues).
  struct Lane {
    common::QueueStats queue;
    SchedulerStats scheduler;
    bool stalled = false;           // queued work, no flush for watchdog_stall
    double since_progress_s = 0.0;  // seconds since the lane last flushed
  };
  std::vector<Lane> lanes;

  // ------------------------------------------------ session table
  SessionTableStats sessions;  // occupancy, peaks, eviction counters

  // ------------------------------------------------ model lifecycle
  // Filled from the Authenticator the service classifies through. Epoch
  // starts at 1; each successful hot swap increments it, each refused one
  // (load error, spec mismatch, injected failpoint) counts a rollback.
  // contexts / arena_bytes describe the current epoch's context pool: the
  // inference contexts built so far and the bytes their arenas hold.
  struct Lifecycle {
    std::uint64_t epoch = 0;
    std::uint64_t swaps_completed = 0;
    std::uint64_t swaps_rolled_back = 0;
    std::size_t contexts = 0;
    std::size_t arena_bytes = 0;
  };
  Lifecycle lifecycle;

  // ------------------------------------------------ shadow scoring
  // Copied in by the owner of the ShadowScorer (net::Server), like the
  // network front ends below — present only when a candidate is loaded.
  struct Shadow {
    bool present = false;
    std::uint64_t sampled = 0;       // reports mirrored to the candidate
    std::uint64_t diverged = 0;      // candidate argmax != primary argmax
    double mean_confidence_delta = 0.0;  // mean(candidate - primary)
    std::uint64_t stations_diverging = 0;  // stations with any divergence
    bool promoted = false;           // candidate auto-promoted this run
  };
  Shadow shadow;

  // ------------------------------------------------ configured context
  std::size_t queue_budget = 0;    // total queued-report budget
  double watchdog_stall_s = 0.0;   // stall threshold behind lanes_stalled

  // ------------------------------------------------ producer tally
  // Filled by replay/fleet drivers (how much was offered at the front
  // door); 0/0 when the front end counts elsewhere (network ingest).
  std::size_t reports_offered = 0;
  std::size_t reports_accepted = 0;

  // ------------------------------------------------ network front ends
  // Set by the owner of the sockets (net::Server) to the front ends' own
  // counters; absent when the run has no network front end.
  std::optional<net::IngestStats> ingest;
  std::optional<net::PublisherStats> publish;

  // ------------------------------------------------ process
  std::size_t process_rss_bytes = 0;  // 0 when the platform can't say

  // The `serve` end-of-run block, byte-stable given equal inputs: one
  // line per subsystem, sections omitted when absent (no ingest line
  // without a network front end, no per-lane lines for one lane, no
  // session line when the table is empty AND unbounded).
  std::string render_text() const;

  // Single JSON object, all fields, stable key order, version tagged.
  std::string render_json() const;
};

}  // namespace deepcsi::serving
