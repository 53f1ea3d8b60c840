// Capture replay driver: feeds an observed-feedback sequence (usually a
// decoded pcap) through a running AuthService — optionally looped and
// rate-limited, from one or many producer threads. This is the harness
// behind `deepcsi serve` and the serving tests: it simulates the live
// monitor-mode firehose the service is built for without needing radio
// hardware in CI.
#pragma once

#include <cstddef>
#include <vector>

#include "capture/monitor.h"
#include "serving/service.h"

namespace deepcsi::serving {

struct ReplayConfig {
  int loops = 1;          // replay the sequence this many times in total
  // Producer threads; whole loops are dealt round-robin, so at most
  // `loops` producers can have work — the excess is clamped, and the
  // count actually used is reported in ReplayResult.
  int producers = 1;
  double rate_rps = 0.0;  // aggregate offered rate; 0 = as fast as possible
};

struct ReplayResult {
  std::size_t offered = 0;   // reports submitted
  std::size_t accepted = 0;  // submits the queue accepted
  int producers_used = 1;    // after clamping to the loop count
  double wall_seconds = 0.0; // first submit -> service drained
};

// Starts the service, replays `observed` through it, drains, and returns
// the producer-side tally (service-side numbers come from service.stats()).
// Each producer replays whole loops in sequence order, so with
// producers == 1 the service sees one fixed, deterministic report order.
ReplayResult replay_observed(AuthService& service,
                             const std::vector<capture::ObservedFeedback>& observed,
                             const ReplayConfig& cfg);

}  // namespace deepcsi::serving
