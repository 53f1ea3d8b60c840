// ServeOptions is THE parse-and-validate path for serving knobs — the
// CLI's serve/fleet verbs and any harness building a ServiceConfig from
// strings go through it. These tests pin the contract: defaults, every
// rejection (as an error string, never an exit), the eviction knobs'
// unit conversions, and the front-specific rules.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "serving/options.h"

namespace deepcsi {
namespace {

using serving::ServeOptions;

using Flags = std::map<std::string, std::string>;

std::optional<ServeOptions> parse(Flags flags,
                                  ServeOptions::Front front,
                                  std::string* err) {
  return ServeOptions::parse(flags, front, err);
}

TEST(ServeOptionsTest, ReplayDefaults) {
  std::string err;
  const auto o = parse({{"model", "m.bin"}, {"pcap", "c.pcap"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->model, "m.bin");
  EXPECT_EQ(o->pcap, "c.pcap");
  EXPECT_FALSE(o->listen);
  EXPECT_EQ(o->service.queue_capacity, 1024u);
  EXPECT_EQ(o->service.scheduler.max_batch, 64u);
  EXPECT_EQ(o->service.scheduler.max_latency,
            std::chrono::microseconds(2000));
  EXPECT_EQ(o->service.sessions.window, 31u);
  EXPECT_EQ(o->service.sessions.num_shards, 8u);
  EXPECT_EQ(o->service.sessions.ttl_s, 0.0);
  EXPECT_EQ(o->service.sessions.max_stations, 0u);
  EXPECT_EQ(o->service.sessions.max_bytes, 0u);
  EXPECT_EQ(o->service.consumers, 1u);
  EXPECT_EQ(o->service.policy, common::OverflowPolicy::kBlock);
  EXPECT_EQ(o->loops, 1);
  EXPECT_EQ(o->producers, 1);
  EXPECT_EQ(o->rate_rps, 0.0);
}

TEST(ServeOptionsTest, ModelIsRequired) {
  std::string err;
  EXPECT_FALSE(
      parse({{"pcap", "c.pcap"}}, ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--model"), std::string::npos);
}

TEST(ServeOptionsTest, ServeNeedsExactlyOneFrontEnd) {
  std::string err;
  EXPECT_FALSE(parse({{"model", "m"}}, ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--pcap"), std::string::npos);

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"listen", "9000"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("mutually exclusive"), std::string::npos);
}

TEST(ServeOptionsTest, MalformedNumbersAreErrorsNotExits) {
  std::string err;
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"queue", "abc"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid integer for --queue"), std::string::npos);

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"queue", "12x"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--queue"), std::string::npos);

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"ttl", "1.5q"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid number for --ttl"), std::string::npos);
}

TEST(ServeOptionsTest, RangeViolationsAreRejected) {
  std::string err;
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"queue", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"shards", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"latency-us", "-1"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"ttl", "-2"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"policy", "banana"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("banana"), std::string::npos);
}

TEST(ServeOptionsTest, EvictionKnobsLandInSessionConfig) {
  std::string err;
  const auto o = parse({{"model", "m"},
                        {"pcap", "c"},
                        {"ttl", "30.5"},
                        {"max-stations", "100000"},
                        {"max-session-mb", "64"},
                        {"shards", "32"},
                        {"window", "15"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->service.sessions.ttl_s, 30.5);
  EXPECT_EQ(o->service.sessions.max_stations, 100000u);
  EXPECT_EQ(o->service.sessions.max_bytes, 64u * 1024u * 1024u);
  EXPECT_EQ(o->service.sessions.num_shards, 32u);
  EXPECT_EQ(o->service.sessions.window, 15u);
}

TEST(ServeOptionsTest, ListenBranchDefaultsShedWatermarksFromQueue) {
  std::string err;
  const auto o = parse(
      {{"model", "m"}, {"listen", "9000"}, {"queue", "1000"}},
      ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_TRUE(o->listen);
  EXPECT_EQ(o->listen_port, 9000);
  EXPECT_FALSE(o->publish);
  EXPECT_EQ(o->shed_high, 900);  // 90% of the queue budget
  EXPECT_EQ(o->shed_low, 700);   // 70%

  // Explicit watermarks must keep the hysteresis invariant.
  EXPECT_FALSE(parse({{"model", "m"},
                      {"listen", "9000"},
                      {"shed-high", "10"},
                      {"shed-low", "20"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("shed-low"), std::string::npos);
}

TEST(ServeOptionsTest, PortValidation) {
  std::string err;
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid port for --listen"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "70000"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "9000"}, {"publish", "-1"}},
                     ServeOptions::Front::kServe, &err));
}

TEST(ServeOptionsTest, FleetForbidsFrontEndFlagsAndNeedsOnlyModel) {
  std::string err;
  const auto o = parse({{"model", "m"}, {"ttl", "5"}, {"max-stations", "9"}},
                       ServeOptions::Front::kFleet, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->service.sessions.ttl_s, 5.0);
  EXPECT_EQ(o->service.sessions.max_stations, 9u);

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}},
                     ServeOptions::Front::kFleet, &err));
  EXPECT_NE(err.find("fleet"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "9000"}},
                     ServeOptions::Front::kFleet, &err));
}

TEST(ServeOptionsTest, DriftKnobsLandInSessionConfigAndAreRangeChecked) {
  std::string err;
  const auto o = parse({{"model", "m"},
                        {"pcap", "c"},
                        {"drift-alpha", "0.25"},
                        {"drift-threshold", "0.4"},
                        {"drift-min-reports", "16"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->service.sessions.drift_alpha, 0.25);
  EXPECT_EQ(o->service.sessions.drift_threshold, 0.4);
  EXPECT_EQ(o->service.sessions.drift_min_reports, 16u);
  // Defaults: detection disabled (threshold 0), EWMA knobs sane.
  const auto d = parse({{"model", "m"}, {"pcap", "c"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_EQ(d->service.sessions.drift_threshold, 0.0);

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"drift-alpha", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--drift-alpha"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"drift-alpha", "1.5"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(
      parse({{"model", "m"}, {"pcap", "c"}, {"drift-threshold", "1.2"}},
            ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(
      parse({{"model", "m"}, {"pcap", "c"}, {"drift-min-reports", "0"}},
            ServeOptions::Front::kServe, &err));
}

TEST(ServeOptionsTest, LifecycleKnobsValidateTheirDependencies) {
  std::string err;
  const auto o = parse({{"model", "m"},
                        {"listen", "9000"},
                        {"model-watch", "500"},
                        {"shadow-model", "cand.bin"},
                        {"shadow-sample", "4"},
                        {"promote-below", "0.05"},
                        {"promote-min", "128"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->model_watch_ms, 500);
  EXPECT_EQ(o->shadow_model, "cand.bin");
  EXPECT_EQ(o->shadow_sample, 4);
  EXPECT_EQ(o->promote_below, 0.05);
  EXPECT_EQ(o->promote_min, 128);

  // --model-watch only makes sense with a long-lived network front end.
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"model-watch", "500"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--model-watch requires --listen"), std::string::npos);
  // Promotion gates are meaningless without a candidate to promote.
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"promote-below", "0.1"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--promote-below requires --shadow-model"),
            std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"shadow-sample", "4"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--shadow-sample requires --shadow-model"),
            std::string::npos);
  // Ranges.
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "9000"}, {"model-watch", "-1"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_FALSE(parse({{"model", "m"},
                      {"listen", "9000"},
                      {"shadow-model", "c"},
                      {"shadow-sample", "0"}},
                     ServeOptions::Front::kServe, &err));
}

TEST(ServeOptionsTest, FleetHasNoLiveModelLifecycle) {
  std::string err;
  EXPECT_FALSE(parse({{"model", "m"}, {"shadow-model", "c.bin"}},
                     ServeOptions::Front::kFleet, &err));
  EXPECT_NE(err.find("fleet has no live model lifecycle"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"model-watch", "500"}},
                     ServeOptions::Front::kFleet, &err));
  // Drift detection, by contrast, is a SessionTable feature and works
  // anywhere sessions do — including the fleet simulator.
  const auto o = parse({{"model", "m"}, {"drift-threshold", "0.5"}},
                       ServeOptions::Front::kFleet, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->service.sessions.drift_threshold, 0.5);
}

TEST(ServeOptionsTest, UnknownKeysAreIgnored) {
  // Verbs own their extra flags (fleet's --stations, drive's knobs); the
  // shared parser must not reject them.
  std::string err;
  const auto o = parse(
      {{"model", "m"}, {"pcap", "c"}, {"stations", "100000"}, {"zzz", "1"}},
      ServeOptions::Front::kServe, &err);
  EXPECT_TRUE(o.has_value()) << err;
}

TEST(ServeOptionsTest, StatsJsonPathPassesThrough) {
  std::string err;
  const auto o =
      parse({{"model", "m"}, {"pcap", "c"}, {"stats-json", "/tmp/s.json"}},
            ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->stats_json, "/tmp/s.json");
}

TEST(ServeOptionsTest, NonFiniteNumbersAreRejected) {
  // stod accepts "nan"/"inf"; NaN then compares false against every
  // range check, so each double flag must refuse them at parse time.
  const std::vector<std::string> keys = {"ttl", "max-session-mb",
                                         "drift-alpha", "drift-threshold",
                                         "promote-below", "rate"};
  const std::vector<std::string> values = {"nan", "inf", "-inf", "NAN"};
  std::string err;
  for (const std::string& key : keys) {
    for (const std::string& value : values) {
      SCOPED_TRACE(::testing::Message() << "--" << key << " " << value);
      err.clear();
      EXPECT_FALSE(parse({{"model", "m"},
                          {"pcap", "c"},
                          {"shadow-model", "s"},
                          {key, value}},
                         ServeOptions::Front::kServe, &err));
      EXPECT_NE(err.find("invalid number for --" + key), std::string::npos)
          << err;
    }
  }
  // Finite but past what a size_t byte count holds.
  EXPECT_FALSE(
      parse({{"model", "m"}, {"pcap", "c"}, {"max-session-mb", "1e300"}},
            ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--max-session-mb"), std::string::npos);
}

TEST(ServeOptionsTest, ShedDefaultsHoldForTheLargestQueueBudget) {
  std::string err;
  const auto o = parse(
      {{"model", "m"}, {"listen", "9000"}, {"queue", "300000000"}},
      ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->shed_high, 270000000);
  EXPECT_EQ(o->shed_low, 210000000);
  const auto max = parse(
      {{"model", "m"}, {"listen", "9000"}, {"queue", "2147483647"}},
      ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(max.has_value()) << err;
  EXPECT_EQ(max->shed_high, 1932735282);
  EXPECT_EQ(max->shed_low, 1503238552);
}

TEST(ServeOptionsTest, WatchdogMsLandsInServiceConfig) {
  std::string err;
  const auto d = parse({{"model", "m"}, {"pcap", "c"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_EQ(d->service.watchdog_stall, std::chrono::milliseconds(2000));
  const auto o = parse({{"model", "m"}, {"pcap", "c"}, {"watchdog-ms", "50"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->service.watchdog_stall, std::chrono::milliseconds(50));

  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"watchdog-ms", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--watchdog-ms must be >= 1"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"watchdog-ms", "5s"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid integer for --watchdog-ms"), std::string::npos);
}

TEST(ServeOptionsTest, ReplayDriverKnobsAreParsedAndRangeChecked) {
  std::string err;
  const auto o = parse({{"model", "m"},
                        {"pcap", "c"},
                        {"loop", "8"},
                        {"producers", "2"},
                        {"rate", "1000.5"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->loops, 8);
  EXPECT_EQ(o->producers, 2);
  EXPECT_EQ(o->rate_rps, 1000.5);

  const Flags out_of_range = {
      {"loop", "0"}, {"producers", "0"}, {"rate", "-1"}};
  for (const auto& [key, value] : out_of_range) {
    SCOPED_TRACE(key);
    EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {key, value}},
                       ServeOptions::Front::kServe, &err));
    EXPECT_NE(err.find("--loop/--producers/--rate out of range"),
              std::string::npos);
  }
  EXPECT_FALSE(parse({{"model", "m"}, {"pcap", "c"}, {"producers", "two"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid integer for --producers"), std::string::npos);
}

TEST(ServeOptionsTest, ListenConnectionKnobsAreParsed) {
  std::string err;
  const auto d = parse({{"model", "m"}, {"listen", "9000"}},
                       ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_EQ(d->max_conns, 64);
  EXPECT_FALSE(d->once);

  const auto o = parse(
      {{"model", "m"}, {"listen", "9000"}, {"max-conns", "4"}, {"once", "1"}},
      ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(o.has_value()) << err;
  EXPECT_EQ(o->max_conns, 4);
  EXPECT_TRUE(o->once);
  const auto off = parse({{"model", "m"}, {"listen", "9000"}, {"once", "0"}},
                         ServeOptions::Front::kServe, &err);
  ASSERT_TRUE(off.has_value()) << err;
  EXPECT_FALSE(off->once);

  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "9000"}, {"max-conns", "0"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("--max-conns must be >= 1"), std::string::npos);
  EXPECT_FALSE(parse({{"model", "m"}, {"listen", "9000"}, {"once", "yes"}},
                     ServeOptions::Front::kServe, &err));
  EXPECT_NE(err.find("invalid integer for --once"), std::string::npos);
}

}  // namespace
}  // namespace deepcsi
