// Producer drivers: feed reports through a running AuthService from one
// or many producer threads. run_producers is the one driver; the capture
// replay (replay_observed, behind `deepcsi serve --pcap` and the serving
// tests) and the synthetic fleet (run_fleet in serving/fleet.h) are its
// two report sources. They simulate the live monitor-mode firehose the
// service is built for without needing radio hardware in CI.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "capture/monitor.h"
#include "serving/service.h"

namespace deepcsi::serving {

struct ReplayConfig {
  int loops = 1;          // replay the sequence this many times in total
  // Producer threads; whole loops are dealt round-robin, so at most
  // `loops` producers can have work — the excess is clamped.
  int producers = 1;
  double rate_rps = 0.0;  // aggregate offered rate; 0 = as fast as possible
};

struct ReplayResult {
  std::size_t offered = 0;   // reports submitted
  std::size_t accepted = 0;  // submits the queue accepted
};

// One producer's front door: forwards to AuthService::submit and counts
// what it offered and what the queue accepted. Owned by one thread.
class ProducerTally {
 public:
  explicit ProducerTally(AuthService& service) : service_(service) {}
  bool submit(const capture::ObservedFeedback& obs) {
    ++offered_;
    const bool ok = service_.submit(obs);
    if (ok) ++accepted_;
    return ok;
  }
  std::size_t offered() const { return offered_; }
  std::size_t accepted() const { return accepted_; }

 private:
  AuthService& service_;
  std::size_t offered_ = 0;
  std::size_t accepted_ = 0;
};

// Starts the service, runs produce(p, tally) for every producer p in
// [0, producers), joins, drains, and returns the summed tally
// (service-side numbers come from service.stats()). One producer runs on
// the calling thread, so its submission order is fixed and free of
// thread scheduling; more each get a thread of their own.
ReplayResult run_producers(AuthService& service, int producers,
                           const std::function<void(int, ProducerTally&)>& produce);

// Replays `observed` through the service. Each producer replays whole
// loops in sequence order, so with producers == 1 the service sees one
// fixed, deterministic report order.
ReplayResult replay_observed(AuthService& service,
                             const std::vector<capture::ObservedFeedback>& observed,
                             const ReplayConfig& cfg);

}  // namespace deepcsi::serving
