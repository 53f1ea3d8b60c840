#include "serving/replay.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"

namespace deepcsi::serving {

ReplayResult run_producers(
    AuthService& service, int producers,
    const std::function<void(int, ProducerTally&)>& produce) {
  DEEPCSI_CHECK(producers >= 1);
  service.start();
  std::vector<ProducerTally> tallies(static_cast<std::size_t>(producers),
                                     ProducerTally(service));
  if (producers == 1) {
    produce(0, tallies[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p)
      threads.emplace_back([&produce, &tallies, p] {
        produce(p, tallies[static_cast<std::size_t>(p)]);
      });
    for (std::thread& t : threads) t.join();
  }
  service.drain();

  ReplayResult result;
  for (const ProducerTally& t : tallies) {
    result.offered += t.offered();
    result.accepted += t.accepted();
  }
  return result;
}

ReplayResult replay_observed(
    AuthService& service,
    const std::vector<capture::ObservedFeedback>& observed,
    const ReplayConfig& cfg) {
  DEEPCSI_CHECK(cfg.loops >= 1 && cfg.producers >= 1);
  if (observed.empty()) return {};

  // Loops are dealt round-robin, so producers beyond the loop count would
  // have nothing to send — clamp rather than spawn idle threads that make
  // a "4-producer" run silently single-producer.
  const int producers_used = std::min(cfg.producers, cfg.loops);

  // Pacing: the aggregate target rate_rps is divided into global 1/rate
  // slots; producer p owns slots p, p+P, p+2P, ... Staggering by producer
  // index keeps the aggregate stream evenly spaced instead of all
  // producers bursting on the same deadline. Anchoring to the replay
  // start means a slow classify never lets a producer "catch up" in a
  // burst of its own.
  const double slot_s = cfg.rate_rps > 0.0 ? 1.0 / cfg.rate_rps : 0.0;
  const auto start = std::chrono::steady_clock::now();

  return run_producers(
      service, producers_used, [&](int producer_idx, ProducerTally& tally) {
        for (int loop = producer_idx; loop < cfg.loops;
             loop += producers_used) {
          for (const capture::ObservedFeedback& obs : observed) {
            if (slot_s > 0.0) {
              const double slot = static_cast<double>(producer_idx) +
                                  static_cast<double>(tally.offered()) *
                                      static_cast<double>(producers_used);
              const auto due =
                  start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(slot * slot_s));
              std::this_thread::sleep_until(due);
            }
            tally.submit(obs);
          }
        }
      });
}

}  // namespace deepcsi::serving
