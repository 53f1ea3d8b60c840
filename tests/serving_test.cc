// Streaming serving subsystem: queue backpressure semantics, the lanes'
// batch flush rules and watchdog, per-station majority verdicts, and the
// single-producer determinism contract (verdicts bit-identical for any
// DEEPCSI_THREADS).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "capture/monitor.h"
#include "common/parallel.h"
#include "common/report_queue.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "phy/impairments.h"
#include "serving/replay.h"
#include "serving/service.h"
#include "serving/session_table.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using common::OverflowPolicy;
using common::PopStatus;
using common::ReportQueue;
using tests::expect_identical;
using tests::quick_authenticator;
using tests::ThreadGuard;

// ------------------------------------------------------------- ReportQueue

TEST(ReportQueueTest, BlockPolicyWaitsForSpaceAndKeepsFifoOrder) {
  ReportQueue<int> q(2, OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(0));
  ASSERT_TRUE(q.push(1));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // must block until the consumer makes room
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());

  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());

  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);

  const common::QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 3u);
  EXPECT_EQ(s.popped, 3u);
  EXPECT_EQ(s.dropped_oldest, 0u);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(ReportQueueTest, DropOldestPolicyEvictsTheOldestUndrainedItem) {
  ReportQueue<int> q(3, OverflowPolicy::kDropOldest);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(i));  // push always succeeds

  const common::QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 8u);
  EXPECT_EQ(s.dropped_oldest, 5u);
  EXPECT_EQ(s.depth, 3u);

  int v = -1;
  for (int expect : {5, 6, 7}) {  // freshest three survive, in order
    ASSERT_EQ(q.pop_until(v, std::chrono::steady_clock::now()),
              PopStatus::kItem);
    EXPECT_EQ(v, expect);
  }
  EXPECT_EQ(q.pop_until(v, std::chrono::steady_clock::now()),
            PopStatus::kTimeout);
}

TEST(ReportQueueTest, RejectPolicyRefusesWhenFull) {
  ReportQueue<int> q(3, OverflowPolicy::kReject);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 3; i < 8; ++i) EXPECT_FALSE(q.push(i));

  const common::QueueStats s = q.stats();
  EXPECT_EQ(s.pushed, 3u);
  EXPECT_EQ(s.rejected, 5u);
  EXPECT_EQ(s.dropped_oldest, 0u);

  int v = -1;
  for (int expect : {0, 1, 2}) {  // the oldest items are the ones kept
    ASSERT_EQ(q.pop_until(v, std::chrono::steady_clock::now()),
              PopStatus::kItem);
    EXPECT_EQ(v, expect);
  }
}

TEST(ReportQueueTest, TryPushOnAFullQueueFollowsEachPolicy) {
  // A genuinely full queue, no failpoint: kBlock refuses without waiting
  // and leaves the item with the caller, kDropOldest evicts the oldest
  // item, kReject refuses and counts it.
  using common::PushStatus;
  {
    ReportQueue<std::vector<int>> q(2, OverflowPolicy::kBlock);
    for (int i = 0; i < 2; ++i) {
      std::vector<int> item{i};
      ASSERT_EQ(q.try_push(item), PushStatus::kAccepted);
    }
    std::vector<int> item{7, 8, 9};
    EXPECT_EQ(q.try_push(item), PushStatus::kWouldBlock);
    EXPECT_EQ(item, (std::vector<int>{7, 8, 9}));  // not moved from
    const common::QueueStats s = q.stats();
    EXPECT_EQ(s.would_block, 1u);
    EXPECT_EQ(s.pushed, 2u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.depth, 2u);
  }
  {
    ReportQueue<int> q(2, OverflowPolicy::kDropOldest);
    for (int i = 0; i < 3; ++i) {
      int item = i;
      ASSERT_EQ(q.try_push(item), PushStatus::kAccepted);
    }
    const common::QueueStats s = q.stats();
    EXPECT_EQ(s.dropped_oldest, 1u);
    EXPECT_EQ(s.would_block, 0u);
    int v = -1;
    for (int expect : {1, 2}) {
      ASSERT_EQ(q.pop_until(v, std::chrono::steady_clock::now()),
                PopStatus::kItem);
      EXPECT_EQ(v, expect);
    }
  }
  {
    ReportQueue<int> q(2, OverflowPolicy::kReject);
    for (int i = 0; i < 2; ++i) {
      int item = i;
      ASSERT_EQ(q.try_push(item), PushStatus::kAccepted);
    }
    int item = 2;
    EXPECT_EQ(q.try_push(item), PushStatus::kRejected);
    const common::QueueStats s = q.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.would_block, 0u);
    EXPECT_EQ(s.depth, 2u);
  }
}

TEST(ReportQueueTest, CloseReleasesABlockedPushWhichFails) {
  ReportQueue<int> q(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(0));
  std::atomic<int> result{-1};
  std::thread producer([&] { result = q.push(1) ? 1 : 0; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // parked on the full queue
  q.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);
  const common::QueueStats s = q.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.pushed, 1u);
}

TEST(ReportQueueTest, CloseDrainsPendingItemsThenReportsClosed) {
  ReportQueue<int> q(8, OverflowPolicy::kBlock);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // intake stops immediately

  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // closed and drained
  EXPECT_EQ(q.stats().rejected, 1u);
}

// ------------------------------------------------------------ SessionTable

core::Authenticator::Prediction pred(int module, double confidence = 0.9) {
  return core::Authenticator::Prediction{module, confidence};
}

TEST(SessionTableTest, RollingWindowMajorityEvictsOldVotes) {
  serving::SessionConfig cfg;
  cfg.window = 5;
  serving::SessionTable table(cfg);
  const capture::MacAddress mac = capture::MacAddress::for_station(1);

  for (int i = 0; i < 5; ++i) table.record(mac, pred(2), 0.1 * i);
  auto v = table.verdict(mac);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->module_id, 2);
  EXPECT_EQ(v->votes, 5u);

  // Three newer votes for module 7 push out three of the 2s: 7 wins 3-2.
  for (int i = 0; i < 3; ++i) table.record(mac, pred(7), 1.0 + 0.1 * i);
  v = table.verdict(mac);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->module_id, 7);
  EXPECT_EQ(v->votes, 3u);
  EXPECT_EQ(v->window_size, 5u);
  EXPECT_EQ(v->total_reports, 8u);
  EXPECT_DOUBLE_EQ(v->last_timestamp_s, 1.2);
}

TEST(SessionTableTest, TieBreaksTowardLowestModuleId) {
  serving::SessionConfig cfg;
  cfg.window = 4;
  serving::SessionTable table(cfg);
  const capture::MacAddress mac = capture::MacAddress::for_station(2);
  for (int module : {7, 2, 7, 2}) table.record(mac, pred(module), 0.0);
  const auto v = table.verdict(mac);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->module_id, 2);
  EXPECT_EQ(v->votes, 2u);
}

TEST(SessionTableTest, SnapshotIsSortedByMacAndKeepsStationsApart) {
  serving::SessionTable table({/*window=*/8, /*num_shards=*/4});
  for (int s = 9; s >= 0; --s)
    table.record(capture::MacAddress::for_station(s), pred(s % 3), 1.0 * s);
  EXPECT_EQ(table.num_stations(), 10u);

  const auto snapshot = table.snapshot();
  ASSERT_EQ(snapshot.size(), 10u);
  for (int s = 0; s < 10; ++s) {
    EXPECT_EQ(snapshot[static_cast<std::size_t>(s)].station,
              capture::MacAddress::for_station(s));
    EXPECT_EQ(snapshot[static_cast<std::size_t>(s)].module_id, s % 3);
  }
  EXPECT_FALSE(table.verdict(capture::MacAddress::for_station(11)).has_value());
}

// ------------------------------------------------------------- AuthService

// An interleaved two-station stream: station 0 emits module-0 reports,
// station 1 emits module-1 reports, alternating frame by frame.
std::vector<capture::ObservedFeedback> make_two_station_stream() {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = 6;
  std::vector<std::vector<feedback::CompressedFeedbackReport>> per_station;
  for (int module : {0, 1}) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(module, 1, 0, scale, {});
    std::vector<feedback::CompressedFeedbackReport> reports;
    for (const dataset::Snapshot& s : trace.snapshots)
      reports.push_back(s.report);
    per_station.push_back(std::move(reports));
  }
  std::vector<capture::ObservedFeedback> stream;
  for (std::size_t i = 0; i < per_station[0].size(); ++i) {
    for (int station : {0, 1}) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = 0.01 * static_cast<double>(stream.size());
      obs.beamformee = capture::MacAddress::for_station(station);
      obs.beamformer = capture::MacAddress::for_module(0);
      obs.report = per_station[static_cast<std::size_t>(station)][i];
      stream.push_back(std::move(obs));
    }
  }
  return stream;
}

serving::ServiceConfig small_service_config() {
  serving::ServiceConfig cfg;
  cfg.queue_capacity = 256;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_latency = std::chrono::milliseconds(2);
  cfg.sessions.window = 31;
  return cfg;
}

TEST(AuthServiceTest, PerStationVerdictsMatchOfflineMajority) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();

  serving::AuthService service(auth, small_service_config());
  service.start();
  for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
  service.drain();

  const serving::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.reports_classified, stream.size());
  EXPECT_EQ(service.sessions().num_stations(), 2u);

  // Offline reference: per-report classify + majority vote per station.
  for (int station : {0, 1}) {
    const capture::MacAddress mac = capture::MacAddress::for_station(station);
    std::map<int, std::size_t> votes;
    std::size_t n = 0;
    for (const auto& obs : stream) {
      if (!(obs.beamformee == mac)) continue;
      ++votes[auth.classify(obs.report).module_id];
      ++n;
    }
    int best = -1;
    std::size_t best_votes = 0;
    for (const auto& [id, count] : votes)
      if (count > best_votes) {
        best = id;
        best_votes = count;
      }
    const auto v = service.sessions().verdict(mac);
    ASSERT_TRUE(v.has_value()) << "station " << station;
    EXPECT_EQ(v->module_id, best) << "station " << station;
    EXPECT_EQ(v->votes, best_votes) << "station " << station;
    EXPECT_EQ(v->window_size, n) << "station " << station;
    EXPECT_EQ(v->total_reports, n) << "station " << station;
  }
}

TEST(AuthServiceTest, SingleProducerVerdictsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();

  auto run_once = [&] {
    serving::AuthService service(auth, small_service_config());
    serving::ReplayConfig replay;  // one producer, one loop, unpaced
    const serving::ReplayResult rr =
        serving::replay_observed(service, stream, replay);
    EXPECT_EQ(rr.accepted, stream.size());
    return service.sessions().snapshot();
  };

  common::set_num_threads(1);
  const auto verdicts_1t = run_once();
  common::set_num_threads(4);
  const auto verdicts_4t = run_once();

  ASSERT_EQ(verdicts_1t.size(), 2u);
  // Bit-identical, not approximately equal: same stream order => same
  // accumulation order => the same doubles.
  expect_identical(verdicts_4t, verdicts_1t);
}

TEST(AuthServiceTest, MultiConsumerVerdictsMatchSingleConsumer) {
  // The tentpole guarantee: sharding stations across N consumer lanes
  // changes throughput, never verdicts. Every field — including the
  // mean-confidence double — must match the single-consumer run exactly.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(6, 6);

  auto run_with_consumers = [&](std::size_t consumers) {
    serving::ServiceConfig cfg = small_service_config();
    cfg.consumers = consumers;
    serving::AuthService service(auth, cfg);
    serving::ReplayConfig replay;  // one producer, one loop, unpaced
    const serving::ReplayResult rr =
        serving::replay_observed(service, stream, replay);
    EXPECT_EQ(rr.accepted, stream.size());
    EXPECT_EQ(service.num_lanes(), consumers);
    const serving::StatsSnapshot stats = service.stats();
    EXPECT_EQ(stats.reports_classified, stream.size());
    EXPECT_EQ(stats.consumers, consumers);
    // Per-lane scheduler items must add up to the whole stream.
    std::size_t lane_items = 0;
    for (std::size_t lane = 0; lane < service.num_lanes(); ++lane)
      lane_items += service.lane_stats(lane).scheduler.items;
    EXPECT_EQ(lane_items, stream.size());
    return service.sessions().snapshot();
  };

  const auto single = run_with_consumers(1);
  ASSERT_EQ(single.size(), 6u);
  for (const std::size_t consumers : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << consumers << " consumers");
    // Bit-identical: one station's predictions arrive in stream order on
    // one lane, so the confidence accumulation order is fixed.
    expect_identical(run_with_consumers(consumers), single);
  }
}

TEST(AuthServiceTest, RejectPolicyShedsLoadWithoutLosingAcceptedReports) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();

  serving::ServiceConfig cfg = small_service_config();
  cfg.queue_capacity = 2;  // force rejects: producers outrun the classifier
  cfg.policy = common::OverflowPolicy::kReject;
  serving::AuthService service(auth, cfg);
  service.start();
  std::size_t accepted = 0;
  for (const auto& obs : stream)
    if (service.submit(obs)) ++accepted;
  service.drain();

  const serving::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.reports_classified, accepted);
  EXPECT_EQ(stats.queue.rejected + accepted, stream.size());
  EXPECT_GE(accepted, 1u);  // at least the first submit fit the empty queue
}

TEST(AuthServiceTest, LaneFlushesFullBatchesThenDrainsTheRest) {
  // Nine reports queued before start() on one lane: with a deadline that
  // cannot fire, the lane flushes 4 and 4 at max_batch and the last one
  // when drain() closes the queue.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();
  ASSERT_GE(stream.size(), 9u);

  serving::ServiceConfig cfg = small_service_config();
  cfg.scheduler.max_batch = 4;
  cfg.scheduler.max_latency = std::chrono::seconds(3600);
  serving::AuthService service(auth, cfg);
  for (std::size_t i = 0; i < 9; ++i) ASSERT_TRUE(service.submit(stream[i]));
  service.start();
  service.drain();

  const serving::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.scheduler.batches, 3u);
  EXPECT_EQ(stats.scheduler.items, 9u);
  EXPECT_EQ(stats.scheduler.flush_full, 2u);
  EXPECT_EQ(stats.scheduler.flush_deadline, 0u);
  EXPECT_EQ(stats.scheduler.flush_drain, 1u);
  EXPECT_EQ(stats.scheduler.max_batch_seen, 4u);
  EXPECT_EQ(stats.reports_classified, 9u);
}

TEST(AuthServiceTest, LaneFlushesAPartialBatchAtTheDeadline) {
  // Three queued reports against max_batch 64: only the 25 ms deadline
  // can flush them, and it must flush all three together.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();

  serving::ServiceConfig cfg = small_service_config();
  cfg.scheduler.max_batch = 64;
  cfg.scheduler.max_latency = std::chrono::milliseconds(25);
  serving::AuthService service(auth, cfg);
  for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(service.submit(stream[i]));
  service.start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().scheduler.batches == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.drain();

  const serving::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.scheduler.batches, 1u);
  EXPECT_EQ(stats.scheduler.items, 3u);
  EXPECT_EQ(stats.scheduler.flush_deadline, 1u);
  EXPECT_EQ(stats.scheduler.max_batch_seen, 3u);
}

TEST(AuthServiceTest, LanesClassifyInFifoOrderAndTheirCountsAddUp) {
  // Two lanes: every lane's items add up to the aggregate, which is the
  // classified count, and each station's reports reach the shadow hook
  // in submission order whichever lane owns it. Queued before start()
  // against max_batch 8, each batch holds several reports per station.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = tests::multi_station_stream(6, 6);

  serving::ServiceConfig cfg = small_service_config();
  cfg.consumers = 2;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.max_latency = std::chrono::seconds(3600);
  serving::AuthService service(auth, cfg);
  std::mutex mu;
  std::map<std::uint64_t, std::vector<double>> seen;  // station -> stamps
  service.set_shadow_callback([&](const serving::PendingReport& r,
                                  const core::Authenticator::Prediction&) {
    std::lock_guard<std::mutex> lock(mu);
    seen[r.station.to_u64()].push_back(r.timestamp_s);
  });
  for (const auto& obs : stream) ASSERT_TRUE(service.submit(obs));
  service.start();
  service.drain();

  const serving::StatsSnapshot stats = service.stats();
  ASSERT_EQ(service.num_lanes(), 2u);
  std::size_t lane_items = 0, lane_batches = 0;
  for (std::size_t lane = 0; lane < service.num_lanes(); ++lane) {
    lane_items += service.lane_stats(lane).scheduler.items;
    lane_batches += service.lane_stats(lane).scheduler.batches;
  }
  EXPECT_EQ(lane_items, stats.scheduler.items);
  EXPECT_EQ(lane_batches, stats.scheduler.batches);
  EXPECT_EQ(stats.scheduler.items, stats.reports_classified);
  EXPECT_EQ(stats.reports_classified, stream.size());

  std::map<std::uint64_t, std::vector<double>> submitted;
  for (const auto& obs : stream)
    submitted[obs.beamformee.to_u64()].push_back(obs.timestamp_s);
  EXPECT_EQ(seen, submitted);
}

TEST(AuthServiceTest, WatchdogFlagsALaneHeldInsideItsVerdictCallback) {
  // The lane's first report fires a verdict callback that blocks on a
  // latch. With more reports queued and no flush for longer than
  // watchdog_stall, the lane must read stalled; once released and
  // drained, it must read healthy again.
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto stream = make_two_station_stream();

  serving::ServiceConfig cfg = small_service_config();
  cfg.scheduler.max_batch = 1;
  cfg.watchdog_stall = std::chrono::milliseconds(50);
  serving::AuthService service(auth, cfg);
  std::atomic<bool> held{false};
  std::latch release(1);
  service.set_verdict_callback([&](const serving::StationVerdict&) {
    held = true;
    release.wait();
  });
  service.start();
  // EXPECT, not ASSERT: an early return would leave the lane on the latch.
  for (const auto& obs : stream) EXPECT_TRUE(service.submit(obs));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!service.lane_stats(0).stalled &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(held.load());
  const serving::StatsSnapshot::Lane lane = service.lane_stats(0);
  EXPECT_TRUE(lane.stalled);
  EXPECT_GT(lane.queue.depth, 0u);
  EXPECT_GE(lane.since_progress_s, 0.05);
  EXPECT_EQ(service.stats().lanes_stalled, 1u);

  release.count_down();
  service.drain();
  const serving::StatsSnapshot::Lane after = service.lane_stats(0);
  EXPECT_FALSE(after.stalled);
  EXPECT_LT(after.since_progress_s, lane.since_progress_s);  // it flushed
  const serving::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.lanes_stalled, 0u);
  EXPECT_EQ(stats.reports_classified, stream.size());
}

}  // namespace
}  // namespace deepcsi
