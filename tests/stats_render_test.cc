// Golden output of the two StatsSnapshot renderers. The `serve` end-of-run
// block, the --stats-json file and the stats wire frame are all produced
// from these two functions, so their exact bytes for a fixed snapshot are
// pinned here: a refactor of the snapshot's structs must leave both
// strings unchanged.
#include <gtest/gtest.h>

#include <string>

#include "serving/stats.h"

namespace deepcsi::serving {
namespace {

// Every section present: two lanes (one stalled), a bounded session table,
// a swap with two built contexts, the shadow lane and both network front
// ends.
StatsSnapshot full_snapshot() {
  StatsSnapshot s;
  s.queue = {.depth = 2,
             .peak_depth = 40,
             .pushed = 1000,
             .popped = 998,
             .dropped_oldest = 3,
             .rejected = 7,
             .would_block = 11};
  s.scheduler = {.batches = 20,
                 .items = 998,
                 .flush_full = 12,
                 .flush_deadline = 6,
                 .flush_drain = 2,
                 .max_batch_seen = 64};
  s.consumers = 2;
  s.lanes_stalled = 1;
  s.reports_classified = 998;
  s.wall_seconds = 2.5;
  s.throughput_rps = 399.2;
  s.batch_latency_p50_ms = 1.25;
  s.batch_latency_p99_ms = 7.5;
  s.batch_latency_max_ms = 9.75;

  StatsSnapshot::Lane lane0;
  lane0.queue = {.depth = 0, .peak_depth = 25, .dropped_oldest = 1,
                 .rejected = 4};
  lane0.scheduler = {.batches = 12, .items = 600, .flush_full = 8,
                     .flush_deadline = 3, .flush_drain = 1};
  lane0.since_progress_s = 0.125;
  StatsSnapshot::Lane lane1;
  lane1.queue = {.depth = 2, .peak_depth = 15, .dropped_oldest = 2,
                 .rejected = 3};
  lane1.scheduler = {.batches = 8, .items = 398, .flush_full = 4,
                     .flush_deadline = 3, .flush_drain = 1};
  lane1.stalled = true;
  lane1.since_progress_s = 1.5;
  s.lanes = {lane0, lane1};

  s.sessions = {.stations = 5,
                .peak_stations = 6,
                .evicted_ttl = 1,
                .evicted_lru = 2,
                .approx_bytes = 3u << 20,
                .station_ceiling = 8,
                .stations_drifting = 1};
  s.lifecycle = {.epoch = 2,
                 .swaps_completed = 1,
                 .swaps_rolled_back = 0,
                 .contexts = 2,
                 .arena_bytes = 4372480};
  s.shadow = {.present = true,
              .sampled = 100,
              .diverged = 4,
              .mean_confidence_delta = -0.0625,
              .stations_diverging = 2,
              .promoted = true};
  s.queue_budget = 256;
  s.watchdog_stall_s = 0.5;

  // The front ends' counters are held whole; the ones the renderers do
  // not print (conns_open, subscribers_rejected/open, partial_writes) are
  // set too, so an extra key or field would show up as a diff.
  s.ingest = net::IngestStats{.conns_accepted = 4,
                              .conns_rejected = 1,
                              .conns_shed = 2,
                              .conns_open = 3,
                              .frames = 1003,
                              .reports_submitted = 1000,
                              .reports_dropped = 0,
                              .malformed_payloads = 1,
                              .protocol_errors = 2,
                              .pauses = 5};
  s.publish = net::PublisherStats{.subscribers_accepted = 1,
                                  .subscribers_rejected = 6,
                                  .subscribers_open = 1,
                                  .frames_published = 21,
                                  .frames_dropped = 0,
                                  .bytes_sent = 4096,
                                  .partial_writes = 7};

  s.process_rss_bytes = 64u << 20;
  return s;
}

// The optional sections absent: one healthy lane, an empty unbounded
// session table, no swap, no shadow, no network front ends — and a
// producer tally, which switches the throughput line's form.
StatsSnapshot minimal_snapshot() {
  StatsSnapshot s;
  s.queue = {.peak_depth = 9, .pushed = 50, .popped = 50};
  s.scheduler = {.batches = 3, .items = 50, .flush_full = 0,
                 .flush_deadline = 2, .flush_drain = 1,
                 .max_batch_seen = 32};
  s.reports_classified = 50;
  s.wall_seconds = 0.25;
  s.throughput_rps = 200.0;
  s.batch_latency_p50_ms = 3.5;
  s.batch_latency_p99_ms = 4.0;
  s.batch_latency_max_ms = 4.0;
  StatsSnapshot::Lane lane;
  lane.queue = {.peak_depth = 9, .pushed = 50, .popped = 50};
  lane.scheduler = s.scheduler;
  s.lanes = {lane};
  s.lifecycle = {.epoch = 1};
  s.queue_budget = 64;
  s.watchdog_stall_s = 2.0;
  s.reports_offered = 52;
  s.reports_accepted = 50;
  return s;
}

TEST(StatsRenderTest, FullSnapshotText) {
  EXPECT_EQ(
      full_snapshot().render_text(),
      "--- serve stats ------------------------------------------\n"
      "ingest       4 conn(s) (1 refused, 2 shed), 1003 frames, 1000 "
      "submitted, 0 dropped, 1 malformed, 2 protocol errors, 5 pauses\n"
      "throughput   998 classified in 2.500s (399 reports/s)\n"
      "batches      20 total: by-size=12 by-deadline=6 drain=2, largest=64\n"
      "latency      batch p50=1.25ms p99=7.50ms max=9.75ms\n"
      "queue        peak depth 40 (budget 256), drops: dropped-oldest=3 "
      "rejected=7, would-block=11\n"
      "sessions     5 station(s) (peak 6, ceiling 8), evicted: ttl=1 lru=2, "
      "table ~3.0 MiB, DRIFTING 1, rss 64.0 MiB\n"
      "lifecycle    epoch 2, swaps: completed=1 rolled-back=0\n"
      "contexts     2 built, arenas 4.2 MiB\n"
      "shadow       100 sampled, 4 diverged (2 station(s)), mean conf delta "
      "-0.0625, PROMOTED\n"
      "watchdog     1 of 2 lane(s) STALLED (>500ms without progress while "
      "work is queued):\n"
      "  lane 1     depth 2, last progress 1.5s ago\n"
      "  lane 0     600 reports in 12 batches (size/deadline/drain=8/3/1), "
      "queue peak 25, dropped=1 rejected=4\n"
      "  lane 1     398 reports in 8 batches (size/deadline/drain=4/3/1), "
      "queue peak 15, dropped=2 rejected=3\n"
      "publish      1 subscriber(s), 21 frames, 0 slow-subscriber drops, "
      "4096 bytes\n"
      "----------------------------------------------------------\n");
}

TEST(StatsRenderTest, FullSnapshotJson) {
  EXPECT_EQ(
      full_snapshot().render_json(),
      "{\"version\":1"
      ",\"throughput\":{\"reports_classified\":998,\"wall_seconds\":2.500000,"
      "\"reports_per_s\":399.200,\"reports_offered\":0,"
      "\"reports_accepted\":0}"
      ",\"latency_ms\":{\"batch_p50\":1.2500,\"batch_p99\":7.5000,"
      "\"batch_max\":9.7500}"
      ",\"queue\":{\"budget\":256,\"depth\":2,\"peak_depth\":40,"
      "\"pushed\":1000,\"popped\":998,\"dropped_oldest\":3,\"rejected\":7,"
      "\"would_block\":11}"
      ",\"scheduler\":{\"batches\":20,\"items\":998,\"flush_full\":12,"
      "\"flush_deadline\":6,\"flush_drain\":2,\"max_batch_seen\":64}"
      ",\"sessions\":{\"stations\":5,\"peak_stations\":6,"
      "\"station_ceiling\":8,\"evicted_ttl\":1,\"evicted_lru\":2,"
      "\"approx_bytes\":3145728,\"stations_drifting\":1}"
      ",\"lifecycle\":{\"epoch\":2,\"swaps_completed\":1,"
      "\"swaps_rolled_back\":0,\"contexts\":2,\"arena_bytes\":4372480}"
      ",\"watchdog\":{\"consumers\":2,\"lanes_stalled\":1,"
      "\"stall_threshold_s\":0.500}"
      ",\"lanes\":[{\"queue_peak\":25,\"depth\":0,\"batches\":12,"
      "\"items\":600,\"stalled\":false,\"since_progress_s\":0.125},"
      "{\"queue_peak\":15,\"depth\":2,\"batches\":8,\"items\":398,"
      "\"stalled\":true,\"since_progress_s\":1.500}]"
      ",\"ingest\":{\"conns_accepted\":4,\"conns_rejected\":1,"
      "\"conns_shed\":2,\"frames\":1003,\"reports_submitted\":1000,"
      "\"reports_dropped\":0,\"malformed_payloads\":1,"
      "\"protocol_errors\":2,\"pauses\":5}"
      ",\"publish\":{\"subscribers_accepted\":1,\"frames_published\":21,"
      "\"frames_dropped\":0,\"bytes_sent\":4096}"
      ",\"shadow\":{\"sampled\":100,\"diverged\":4,"
      "\"stations_diverging\":2,\"mean_confidence_delta\":-0.062500,"
      "\"promoted\":true}"
      ",\"process_rss_bytes\":67108864}\n");
}

TEST(StatsRenderTest, MinimalSnapshotText) {
  EXPECT_EQ(
      minimal_snapshot().render_text(),
      "--- serve stats ------------------------------------------\n"
      "throughput   50/52 reports accepted, 50 classified in 0.250s "
      "(200 reports/s)\n"
      "batches      3 total: by-size=0 by-deadline=2 drain=1, largest=32\n"
      "latency      batch p50=3.50ms p99=4.00ms max=4.00ms\n"
      "queue        peak depth 9 (budget 64), drops: dropped-oldest=0 "
      "rejected=0, would-block=0\n"
      "watchdog     all 1 lane(s) healthy\n"
      "----------------------------------------------------------\n");
}

TEST(StatsRenderTest, MinimalSnapshotJson) {
  EXPECT_EQ(
      minimal_snapshot().render_json(),
      "{\"version\":1"
      ",\"throughput\":{\"reports_classified\":50,\"wall_seconds\":0.250000,"
      "\"reports_per_s\":200.000,\"reports_offered\":52,"
      "\"reports_accepted\":50}"
      ",\"latency_ms\":{\"batch_p50\":3.5000,\"batch_p99\":4.0000,"
      "\"batch_max\":4.0000}"
      ",\"queue\":{\"budget\":64,\"depth\":0,\"peak_depth\":9,"
      "\"pushed\":50,\"popped\":50,\"dropped_oldest\":0,\"rejected\":0,"
      "\"would_block\":0}"
      ",\"scheduler\":{\"batches\":3,\"items\":50,\"flush_full\":0,"
      "\"flush_deadline\":2,\"flush_drain\":1,\"max_batch_seen\":32}"
      ",\"sessions\":{\"stations\":0,\"peak_stations\":0,"
      "\"station_ceiling\":0,\"evicted_ttl\":0,\"evicted_lru\":0,"
      "\"approx_bytes\":0,\"stations_drifting\":0}"
      ",\"lifecycle\":{\"epoch\":1,\"swaps_completed\":0,"
      "\"swaps_rolled_back\":0,\"contexts\":0,\"arena_bytes\":0}"
      ",\"watchdog\":{\"consumers\":1,\"lanes_stalled\":0,"
      "\"stall_threshold_s\":2.000}"
      ",\"lanes\":[{\"queue_peak\":9,\"depth\":0,\"batches\":3,"
      "\"items\":50,\"stalled\":false,\"since_progress_s\":0.000}]"
      ",\"process_rss_bytes\":0}\n");
}

}  // namespace
}  // namespace deepcsi::serving
