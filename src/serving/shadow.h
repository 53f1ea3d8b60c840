// Shadow scoring: run a CANDIDATE model on a sampled slice of the live
// report stream and measure how far its verdicts diverge from the
// incumbent's — the safe way to qualify a retrained fingerprint model
// before promoting it into the serving path.
//
//   lane threads ──ShadowCallback──> sample 1-in-N ──> bounded queue
//                                                      (kDropOldest)
//                                                          │
//                                   scorer thread <────────┘
//                                   candidate.classify_batch
//                                   divergence / conf-delta tallies
//
// The shadow lane is deliberately SECOND-CLASS: the tap is one atomic
// counter + one kDropOldest push (never blocks a lane thread, never
// backpressures the primary path), the candidate classifies on its own
// thread through its own Authenticator (its own ContextPool — zero
// contention with serving leases), and nothing here ever touches the
// SessionTable. If the scorer falls behind, shadow coverage drops;
// primary verdicts are bit-identical with or without a shadow attached.
//
// Divergence is counted per report (candidate argmax != primary argmax)
// and per station (any divergence ever), and the mean confidence delta
// (candidate - primary, over sampled reports) shows whether the candidate
// is crisper or mushier where they agree. promotable() distills the
// verdict: enough samples, divergence fraction under the threshold.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/report_queue.h"
#include "core/pipeline.h"
#include "serving/service.h"
#include "serving/stats.h"

namespace deepcsi::serving {

struct ShadowConfig {
  std::size_t sample_every = 8;  // mirror 1 report in N (1 = every report)
  // promotable() gates: at least min_samples scored AND
  // diverged/sampled < max_divergence. max_divergence < 0 disables
  // auto-promotion (promotable() always false).
  double max_divergence = -1.0;
  std::uint64_t min_samples = 64;
};

class ShadowScorer {
 public:
  // Takes ownership of the candidate. The scorer thread starts
  // immediately; stop() (or destruction) drains and joins it.
  ShadowScorer(core::Authenticator candidate, ShadowConfig cfg);
  ~ShadowScorer();

  ShadowScorer(const ShadowScorer&) = delete;
  ShadowScorer& operator=(const ShadowScorer&) = delete;

  // The tap to install via AuthService::set_shadow_callback. Thread-safe,
  // O(1), never blocks: off-sample reports cost one fetch_add.
  void observe(const PendingReport& report,
               const core::Authenticator::Prediction& primary);

  // Stop sampling, score what is queued, join the thread. Idempotent.
  void stop();

  // Snapshot of the tallies (present=true, promoted as of the last
  // mark_promoted). Callable any time, including after stop().
  StatsSnapshot::Shadow stats() const;

  // True once the candidate has earned promotion under cfg: enough
  // samples and a divergence fraction strictly below max_divergence.
  bool promotable() const;
  // Record that the caller promoted (or tried to promote) the candidate,
  // so the serve loop offers it exactly once. Promotion itself is the
  // caller's job — swap_model on the PRIMARY Authenticator — because the
  // scorer only owns the shadow copy.
  void mark_promoted();
  bool promoted() const { return promoted_.load(std::memory_order_relaxed); }

  const core::Authenticator& candidate() const { return candidate_; }

 private:
  struct Sampled {
    PendingReport report;
    core::Authenticator::Prediction primary;
  };
  void run();

  core::Authenticator candidate_;
  ShadowConfig cfg_;
  common::ReportQueue<Sampled> queue_;
  std::atomic<std::uint64_t> seen_{0};  // reports observed (for sampling)
  std::atomic<bool> promoted_{false};

  mutable std::mutex mu_;  // guards the tallies below (scorer thread writes)
  std::uint64_t sampled_ = 0;
  std::uint64_t diverged_ = 0;
  double confidence_delta_sum_ = 0.0;
  std::unordered_set<std::uint64_t> diverging_stations_;

  std::thread thread_;
};

}  // namespace deepcsi::serving
