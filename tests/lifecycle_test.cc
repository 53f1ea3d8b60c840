// Model lifecycle: RCU hot swap (typed errors, rollback counters, and
// bit-exact serving across 100 swap cycles under concurrent classify
// load), the load_model_artifact trio loader, the shadow scorer, and the
// per-station drift EWMA. The concurrency test is the TSan acceptance
// gate for the zero-downtime contract: swaps never block classifies and
// classifies never block swaps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "capture/mac.h"
#include "common/failpoint.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "phy/impairments.h"
#include "serving/service.h"
#include "serving/session_table.h"
#include "serving/shadow.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using common::failpoints::ScopedSpec;
using core::Authenticator;
using core::ModelLoadStatus;
using tests::quick_authenticator;

std::vector<feedback::CompressedFeedbackReport> make_reports() {
  const dataset::Scale scale{3, 3, 4};
  std::vector<feedback::CompressedFeedbackReport> reports;
  for (int module : {0, 1, 2}) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(module, 1, 0, scale, {});
    for (const dataset::Snapshot& s : trace.snapshots)
      reports.push_back(s.report);
  }
  return reports;
}

// Persist the full deployable trio (weights + authoritative .meta) the
// way `deepcsi train` does, so swap_model can reload it.
std::string save_artifact(const core::Authenticator& auth, const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  auth.save(path);
  core::save_model_meta(
      path, {{"filters", core::quick_model_config().filters},
             {"stride", auth.input_spec().subcarrier_stride},
             {"classes", phy::kNumModules}});
  return path;
}

void remove_artifact(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
}

// ------------------------------------------------------- swap semantics

TEST(LifecycleTest, SwapToIdenticalWeightsKeepsPredictionsBitExact) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();
  const auto before = auth.classify_batch(reports);
  EXPECT_EQ(auth.epoch_info().id, 1u);

  const std::string path = save_artifact(auth, "swap-identical.model");
  const auto r = auth.swap_model(path);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(auth.epoch_info().id, 2u);
  EXPECT_EQ(auth.swaps_completed(), 1u);
  EXPECT_EQ(auth.swaps_rolled_back(), 0u);

  // Same weights on the new epoch: every prediction is bit-identical.
  const auto after = auth.classify_batch(reports);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].module_id, before[i].module_id) << i;
    EXPECT_EQ(after[i].confidence, before[i].confidence) << i;
  }
  remove_artifact(path);
}

TEST(LifecycleTest, EveryFailureModeRollsBackAndKeepsServingTheIncumbent) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();
  const auto before = auth.classify_batch(reports);
  const std::string good = save_artifact(auth, "swap-rollback.model");

  // 1. Missing weights file -> kLoadError.
  {
    const auto r = auth.swap_model(std::string(::testing::TempDir()) +
                                   "/no-such.model");
    EXPECT_EQ(r.status, Authenticator::SwapStatus::kLoadError);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.epoch, 1u);
  }
  // 2. A .meta whose geometry disagrees with the serving spec ->
  //    kSpecMismatch, diagnostic naming both specs.
  {
    const std::string bad = std::string(::testing::TempDir()) +
                            "/swap-badspec.model";
    auth.save(bad);
    core::save_model_meta(bad,
                          {{"filters", core::quick_model_config().filters},
                           {"stride", 8},
                           {"classes", phy::kNumModules}});
    const auto r = auth.swap_model(bad);
    EXPECT_EQ(r.status, Authenticator::SwapStatus::kSpecMismatch);
    EXPECT_NE(r.error.find("stride=8"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("stride=4"), std::string::npos) << r.error;
    remove_artifact(bad);
  }
  // 3. Injected load failure (the chaos site) -> kLoadError.
  {
    ScopedSpec fp("model.load=err(EIO,n=1)");
    const auto r = auth.swap_model(good);
    EXPECT_EQ(r.status, Authenticator::SwapStatus::kLoadError);
    EXPECT_NE(r.error.find("injected"), std::string::npos) << r.error;
  }
  // 4. Injected abort between staging and publish -> kAborted.
  {
    ScopedSpec fp("model.swap=reject(n=1)");
    const auto r = auth.swap_model(good);
    EXPECT_EQ(r.status, Authenticator::SwapStatus::kAborted);
  }

  // Four failures, four rollbacks, zero published epochs — and the
  // incumbent still serves the exact same predictions.
  EXPECT_EQ(auth.epoch_info().id, 1u);
  EXPECT_EQ(auth.swaps_completed(), 0u);
  EXPECT_EQ(auth.swaps_rolled_back(), 4u);
  const auto after = auth.classify_batch(reports);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].module_id, before[i].module_id);
    EXPECT_EQ(after[i].confidence, before[i].confidence);
  }
  // A later valid swap still works: rollback poisons nothing.
  EXPECT_TRUE(auth.swap_model(good).ok());
  EXPECT_EQ(auth.epoch_info().id, 2u);
  remove_artifact(good);
}

// The acceptance gate: 100 swap cycles while several threads classify
// continuously. Zero failed classifies, zero mismatched predictions
// (same weights both sides of every swap), every swap publishes.
TEST(LifecycleTest, HundredSwapCyclesUnderConcurrentClassifyLoad) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();
  const auto baseline = auth.classify_batch(reports);
  const std::string a = save_artifact(auth, "swap-cycle-a.model");
  const std::string b = save_artifact(auth, "swap-cycle-b.model");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> classified{0};
  std::atomic<std::uint64_t> mismatched{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto got = auth.classify_batch(reports);
        for (std::size_t i = 0; i < baseline.size(); ++i)
          if (got[i].module_id != baseline[i].module_id ||
              got[i].confidence != baseline[i].confidence)
            mismatched.fetch_add(1, std::memory_order_relaxed);
        classified.fetch_add(got.size(), std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t published = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    const auto r = auth.swap_model(cycle % 2 == 0 ? b : a);
    ASSERT_TRUE(r.ok()) << "cycle " << cycle << ": " << r.error;
    ++published;
    EXPECT_EQ(r.epoch, 1u + published);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  EXPECT_EQ(auth.epoch_info().id, 101u);
  EXPECT_EQ(auth.swaps_completed(), 100u);
  EXPECT_EQ(auth.swaps_rolled_back(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
  EXPECT_GT(classified.load(), 0u);
  remove_artifact(a);
  remove_artifact(b);
}

// ------------------------------------------------- load_model_artifact

TEST(LifecycleTest, ArtifactLoaderHonorsTheMetaSidecar) {
  // The .meta keys are authoritative: a 7-class model round-trips through
  // the loader without the caller re-passing any architecture flags.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator seven(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)), 7,
          core::quick_model_config()),
      spec);
  const std::string path =
      std::string(::testing::TempDir()) + "/seven-class.model";
  seven.save(path);
  core::save_model_meta(path,
                        {{"filters", core::quick_model_config().filters},
                         {"stride", 4},
                         {"classes", 7}});

  core::LoadedModel lm;
  std::string err;
  ASSERT_EQ(core::load_model_artifact(path, spec, core::quick_model_config(),
                                      &lm, &err),
            ModelLoadStatus::kOk)
      << err;
  EXPECT_EQ(lm.num_classes, 7);
  EXPECT_EQ(lm.spec.subcarrier_stride, 4);
  ASSERT_TRUE(lm.model.has_value());
  EXPECT_FALSE(lm.calibration.has_value());  // no .calib sidecar written

  // A nonsensical sidecar is an IO error, not a crash or a zero-filter
  // model.
  core::save_model_meta(path, {{"filters", 0}});
  EXPECT_EQ(core::load_model_artifact(path, spec, core::quick_model_config(),
                                      &lm, &err),
            ModelLoadStatus::kIoError);
  remove_artifact(path);
}

// ------------------------------------------------------- shadow scoring

serving::PendingReport pending(int station,
                               const feedback::CompressedFeedbackReport& r,
                               double t) {
  serving::PendingReport p;
  p.station = capture::MacAddress::for_station(station);
  p.timestamp_s = t;
  p.codes = feedback::AngleCodes(r);
  return p;
}

TEST(LifecycleTest, ShadowScorerSamplesOneInN) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const auto reports = make_reports();
  serving::ShadowConfig cfg;
  cfg.sample_every = 4;
  serving::ShadowScorer scorer(quick_authenticator(spec), cfg);
  for (int i = 0; i < 40; ++i)
    scorer.observe(pending(i % 3, reports[i % reports.size()], 0.01 * i),
                   {0, 0.5});
  scorer.stop();
  const auto s = scorer.stats();
  EXPECT_TRUE(s.present);
  EXPECT_EQ(s.sampled, 10u);  // every 4th observe, starting with the first
}

TEST(LifecycleTest, ShadowScorerCountsDivergenceAndPromotes) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const auto reports = make_reports();
  serving::ShadowConfig cfg;
  cfg.sample_every = 1;
  cfg.max_divergence = 0.5;
  cfg.min_samples = 8;
  serving::ShadowScorer scorer(quick_authenticator(spec), cfg);

  // The candidate is deterministic, so feeding ITS OWN prediction as the
  // "primary" verdict controls divergence exactly: agree on stations
  // 0..3, force disagreement on stations 4..5. The primary comes from the
  // nested report and the scorer classifies the flat one, so agreement
  // also checks the two forms predict identically.
  int fed = 0;
  for (int station = 0; station < 6; ++station) {
    for (int k = 0; k < 2; ++k) {
      const auto& r = reports[static_cast<std::size_t>(fed) % reports.size()];
      auto primary = scorer.candidate().classify(r);
      if (station >= 4)
        primary.module_id = (primary.module_id + 1) % phy::kNumModules;
      scorer.observe(pending(station, r, 0.01 * fed), primary);
      ++fed;
    }
  }
  // 12 sampled, 4 diverged (stations 4 and 5, twice each): fraction 1/3
  // is under the 0.5 gate with >= 8 samples, so the candidate qualifies.
  // stop() first: it drains the queue and joins the scorer thread, so
  // the counters below are the final tallies rather than a snapshot
  // racing the async scorer (live serve polls promotable() eventually-
  // consistently; this test needs the exact counts).
  scorer.stop();
  EXPECT_TRUE(scorer.promotable());
  EXPECT_FALSE(scorer.promoted());
  scorer.mark_promoted();
  EXPECT_TRUE(scorer.promoted());
  EXPECT_FALSE(scorer.promotable());  // offered exactly once

  const auto s = scorer.stats();
  EXPECT_EQ(s.sampled, 12u);
  EXPECT_EQ(s.diverged, 4u);
  EXPECT_EQ(s.stations_diverging, 2u);
  EXPECT_TRUE(s.promoted);
  // Where primary == candidate the confidence delta is exactly zero; the
  // forced divergences only changed module ids, not confidences.
  EXPECT_EQ(s.mean_confidence_delta, 0.0);
}

TEST(LifecycleTest, ShadowPromotionDisabledByDefault) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const auto reports = make_reports();
  serving::ShadowConfig cfg;  // max_divergence < 0: measurement only
  cfg.sample_every = 1;
  cfg.min_samples = 1;
  serving::ShadowScorer scorer(quick_authenticator(spec), cfg);
  for (int i = 0; i < 8; ++i) {
    const auto& r = reports[static_cast<std::size_t>(i) % reports.size()];
    scorer.observe(pending(0, r, 0.01 * i), scorer.candidate().classify(r));
  }
  scorer.stop();
  EXPECT_GE(scorer.stats().sampled, 1u);
  EXPECT_FALSE(scorer.promotable());
}

// ------------------------------------------------------------ drift EWMA

TEST(LifecycleTest, DriftEwmaFlagsRecoversAndResets) {
  serving::SessionConfig cfg;
  cfg.window = 5;
  cfg.drift_alpha = 0.5;
  cfg.drift_threshold = 0.6;
  cfg.drift_min_reports = 3;
  serving::SessionTable table(cfg);
  const auto mac = capture::MacAddress::for_station(0);
  const auto feed_conf = [&](double conf, double t) {
    core::Authenticator::Prediction p;
    p.module_id = 1;
    p.confidence = conf;
    table.record(mac, p, t);
  };

  // Two low-confidence reports: EWMA is already under the threshold but
  // min_reports keeps the flag down — no alarm off a cold start.
  feed_conf(0.3, 0.0);
  feed_conf(0.3, 0.1);
  EXPECT_FALSE(table.snapshot()[0].drifting);
  EXPECT_EQ(table.stats().stations_drifting, 0u);
  // Third report crosses min_reports: flagged.
  feed_conf(0.3, 0.2);
  EXPECT_TRUE(table.snapshot()[0].drifting);
  EXPECT_EQ(table.stats().stations_drifting, 1u);
  EXPECT_EQ(table.snapshot()[0].confidence_ewma, 0.3);  // seeded, constant

  // Confidence recovers: with alpha=0.5 two reports at 0.95 pull the EWMA
  // over 0.6 and the flag clears — drift is a condition, not a latch.
  feed_conf(0.95, 0.3);
  feed_conf(0.95, 0.4);
  EXPECT_FALSE(table.snapshot()[0].drifting);
  EXPECT_EQ(table.stats().stations_drifting, 0u);

  // Back under, then a model swap: reset_drift() re-warms from zero, so
  // the new model is judged on its own confidences only.
  for (int i = 0; i < 6; ++i) feed_conf(0.2, 0.5 + 0.1 * i);
  EXPECT_TRUE(table.snapshot()[0].drifting);
  table.reset_drift();
  EXPECT_FALSE(table.snapshot()[0].drifting);
  EXPECT_EQ(table.snapshot()[0].confidence_ewma, 0.0);
  EXPECT_EQ(table.stats().stations_drifting, 0u);
  // Windows and counters were untouched by the reset.
  EXPECT_EQ(table.snapshot()[0].total_reports, 11u);
}

// ------------------------------------------- service-level integration

TEST(LifecycleTest, ServiceStatsCarryLifecycleCountersAndShadowTapFires) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.consumers = 2;
  serving::AuthService service(auth, cfg);
  std::atomic<std::uint64_t> tapped{0};
  service.set_shadow_callback(
      [&](const serving::PendingReport&,
          const core::Authenticator::Prediction&) {
        tapped.fetch_add(1, std::memory_order_relaxed);
      });
  service.start();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    capture::ObservedFeedback obs;
    obs.timestamp_s = 0.01 * static_cast<double>(i);
    obs.beamformee = capture::MacAddress::for_station(static_cast<int>(i % 3));
    obs.beamformer = capture::MacAddress::for_module(0);
    obs.report = reports[i];
    ASSERT_TRUE(service.submit(obs));
  }
  service.drain();
  // Every classified report passed through the shadow tap exactly once.
  EXPECT_EQ(tapped.load(), reports.size());

  auto snap = service.stats();
  EXPECT_EQ(snap.lifecycle.epoch, 1u);
  EXPECT_EQ(snap.lifecycle.swaps_completed, 0u);
  // At most one context per lane, all of one size.
  EXPECT_GE(snap.lifecycle.contexts, 1u);
  EXPECT_LE(snap.lifecycle.contexts, cfg.consumers);
  EXPECT_GT(snap.lifecycle.arena_bytes, 0u);
  EXPECT_EQ(snap.lifecycle.arena_bytes % snap.lifecycle.contexts, 0u);

  const std::string path = save_artifact(auth, "service-swap.model");
  ASSERT_TRUE(auth.swap_model(path).ok());
  service.on_model_swapped();  // epoch-local drift state resets
  snap = service.stats();
  EXPECT_EQ(snap.lifecycle.epoch, 2u);
  EXPECT_EQ(snap.lifecycle.swaps_completed, 1u);
  EXPECT_EQ(snap.lifecycle.swaps_rolled_back, 0u);
  // The new epoch's pool holds just the context the swap warmed.
  EXPECT_EQ(snap.lifecycle.contexts, 1u);
  EXPECT_EQ(snap.lifecycle.arena_bytes, auth.epoch_info().arena_bytes);
  EXPECT_GT(snap.lifecycle.arena_bytes, 0u);
  EXPECT_EQ(service.sessions().stats().stations_drifting, 0u);
  remove_artifact(path);
}

}  // namespace
}  // namespace deepcsi
