#include "serving/options.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace deepcsi::serving {

namespace {

// Local strict parsers: full-string consumption or bust, errors reported
// as strings (never exceptions out, never exit — the CLI layers usage on
// top, tests assert on the message).
bool parse_int(const std::map<std::string, std::string>& flags,
               const std::string& key, int* out, std::string* error) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  try {
    std::size_t consumed = 0;
    const int value = std::stoi(it->second, &consumed);
    if (consumed != it->second.size())
      throw std::invalid_argument("trailing characters");
    *out = value;
    return true;
  } catch (const std::exception&) {
    *error = "invalid integer for --" + key + ": '" + it->second + "'";
    return false;
  }
}

bool parse_double(const std::map<std::string, std::string>& flags,
                  const std::string& key, double* out, std::string* error) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size())
      throw std::invalid_argument("trailing characters");
    // stod takes "nan" and "inf"; NaN slips past every range check below
    // (all its comparisons are false).
    if (!std::isfinite(value)) throw std::invalid_argument("not finite");
    *out = value;
    return true;
  } catch (const std::exception&) {
    *error = "invalid number for --" + key + ": '" + it->second + "'";
    return false;
  }
}

bool parse_port(const std::map<std::string, std::string>& flags,
                const std::string& key, std::uint16_t* out,
                std::string* error) {
  int port = 0;
  if (!parse_int(flags, key, &port, error)) return false;
  // TCP ports live in [1, 65535]; 0 (ephemeral) is excluded on purpose —
  // CI needs a port it can hand to the driver.
  if (port < 1 || port > 65535) {
    *error = "invalid port for --" + key + ": " + std::to_string(port) +
             " (expected 1..65535)";
    return false;
  }
  *out = static_cast<std::uint16_t>(port);
  return true;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key) {
  const auto it = flags.find(key);
  return it == flags.end() ? std::string() : it->second;
}

}  // namespace

std::optional<ServeOptions> ServeOptions::parse(
    const std::map<std::string, std::string>& flags, Front front,
    std::string* error) {
  std::string local_err;
  std::string& err = error ? *error : local_err;
  const auto fail = [&](const std::string& why) {
    err = why;
    return std::nullopt;
  };

  ServeOptions o;
  o.model = get(flags, "model");
  if (o.model.empty()) return fail("--model is required");

  // ------------------------------------------------ service core
  int queue = 1024, batch = 64, latency_us = 2000, window = 31,
      consumers = 1, watchdog_ms = 2000, shards = 8;
  if (!parse_int(flags, "queue", &queue, &err) ||
      !parse_int(flags, "batch", &batch, &err) ||
      !parse_int(flags, "latency-us", &latency_us, &err) ||
      !parse_int(flags, "window", &window, &err) ||
      !parse_int(flags, "consumers", &consumers, &err) ||
      !parse_int(flags, "watchdog-ms", &watchdog_ms, &err) ||
      !parse_int(flags, "shards", &shards, &err))
    return std::nullopt;
  if (queue < 1 || batch < 1 || window < 1 || consumers < 1 || shards < 1)
    return fail(
        "--queue/--batch/--window/--consumers/--shards must be >= 1");
  if (latency_us < 0) return fail("--latency-us must be >= 0");
  if (watchdog_ms < 1) return fail("--watchdog-ms must be >= 1");
  o.service.queue_capacity = static_cast<std::size_t>(queue);
  o.service.scheduler.max_batch = static_cast<std::size_t>(batch);
  o.service.scheduler.max_latency = std::chrono::microseconds(latency_us);
  o.service.sessions.window = static_cast<std::size_t>(window);
  o.service.sessions.num_shards = static_cast<std::size_t>(shards);
  o.service.consumers = static_cast<std::size_t>(consumers);
  o.service.watchdog_stall = std::chrono::milliseconds(watchdog_ms);

  const std::string policy = flags.count("policy") ? flags.at("policy")
                                                   : std::string("block");
  if (policy == "block") {
    o.service.policy = common::OverflowPolicy::kBlock;
  } else if (policy == "drop-oldest") {
    o.service.policy = common::OverflowPolicy::kDropOldest;
  } else if (policy == "reject") {
    o.service.policy = common::OverflowPolicy::kReject;
  } else {
    return fail("unknown --policy '" + policy + "'");
  }

  // ------------------------------------------------ eviction
  double ttl_s = 0.0, max_session_mb = 0.0;
  int max_stations = 0;
  if (!parse_double(flags, "ttl", &ttl_s, &err) ||
      !parse_int(flags, "max-stations", &max_stations, &err) ||
      !parse_double(flags, "max-session-mb", &max_session_mb, &err))
    return std::nullopt;
  if (ttl_s < 0.0 || max_stations < 0 || max_session_mb < 0.0)
    return fail("--ttl/--max-stations/--max-session-mb must be >= 0");
  const double max_session_bytes = max_session_mb * 1024.0 * 1024.0;
  // Converting a double at or past 2^64 to size_t is undefined.
  if (max_session_bytes >=
      static_cast<double>(std::numeric_limits<std::size_t>::max()))
    return fail("--max-session-mb is too large");
  o.service.sessions.ttl_s = ttl_s;
  o.service.sessions.max_stations = static_cast<std::size_t>(max_stations);
  o.service.sessions.max_bytes = static_cast<std::size_t>(max_session_bytes);

  // ------------------------------------------------ drift detection
  double drift_alpha = o.service.sessions.drift_alpha;
  double drift_threshold = o.service.sessions.drift_threshold;
  int drift_min = static_cast<int>(o.service.sessions.drift_min_reports);
  if (!parse_double(flags, "drift-alpha", &drift_alpha, &err) ||
      !parse_double(flags, "drift-threshold", &drift_threshold, &err) ||
      !parse_int(flags, "drift-min-reports", &drift_min, &err))
    return std::nullopt;
  if (drift_alpha <= 0.0 || drift_alpha > 1.0)
    return fail("--drift-alpha must be in (0, 1]");
  if (drift_threshold < 0.0 || drift_threshold > 1.0)
    return fail("--drift-threshold must be in [0, 1] (0 disables)");
  if (drift_min < 1) return fail("--drift-min-reports must be >= 1");
  o.service.sessions.drift_alpha = drift_alpha;
  o.service.sessions.drift_threshold = drift_threshold;
  o.service.sessions.drift_min_reports = static_cast<std::size_t>(drift_min);

  // ------------------------------------------------ model lifecycle
  if (!parse_int(flags, "model-watch", &o.model_watch_ms, &err) ||
      !parse_int(flags, "shadow-sample", &o.shadow_sample, &err) ||
      !parse_double(flags, "promote-below", &o.promote_below, &err) ||
      !parse_int(flags, "promote-min", &o.promote_min, &err))
    return std::nullopt;
  o.shadow_model = get(flags, "shadow-model");
  if (o.model_watch_ms < 0) return fail("--model-watch must be >= 0 ms");
  if (o.shadow_sample < 1) return fail("--shadow-sample must be >= 1");
  if (o.promote_min < 1) return fail("--promote-min must be >= 1");
  if (o.promote_below >= 0.0 && o.shadow_model.empty())
    return fail("--promote-below requires --shadow-model");
  if (flags.count("shadow-sample") > 0 && o.shadow_model.empty())
    return fail("--shadow-sample requires --shadow-model");

  o.stats_json = get(flags, "stats-json");

  // ------------------------------------------------ front ends
  const bool has_pcap = flags.count("pcap") > 0;
  const bool has_listen = flags.count("listen") > 0;
  if (front == Front::kFleet) {
    if (has_pcap || has_listen)
      return fail("fleet generates its own traffic: --pcap/--listen do not "
                  "apply");
    if (!o.shadow_model.empty() || o.model_watch_ms > 0)
      return fail("fleet has no live model lifecycle: "
                  "--shadow-model/--model-watch do not apply");
    return o;
  }
  if (o.model_watch_ms > 0 && !has_listen)
    return fail("--model-watch requires --listen (replay runs end before a "
                "watch matters; use SIGHUP-free restart instead)");
  if (!has_pcap && !has_listen)
    return fail("serve needs --pcap (replay) or --listen (network ingest)");
  if (has_pcap && has_listen)
    return fail("--pcap and --listen are mutually exclusive");

  if (has_pcap) {
    o.pcap = flags.at("pcap");
    if (!parse_int(flags, "loop", &o.loops, &err) ||
        !parse_int(flags, "producers", &o.producers, &err) ||
        !parse_double(flags, "rate", &o.rate_rps, &err))
      return std::nullopt;
    if (o.loops < 1 || o.producers < 1 || o.rate_rps < 0.0)
      return fail("--loop/--producers/--rate out of range");
    return o;
  }

  o.listen = true;
  if (!parse_port(flags, "listen", &o.listen_port, &err)) return std::nullopt;
  if (flags.count("publish") > 0) {
    o.publish = true;
    if (!parse_port(flags, "publish", &o.publish_port, &err))
      return std::nullopt;
  }
  int once = 0;
  if (!parse_int(flags, "max-conns", &o.max_conns, &err) ||
      !parse_int(flags, "once", &once, &err) ||
      !parse_int(flags, "state-interval-ms", &o.state_interval_ms, &err))
    return std::nullopt;
  if (o.max_conns < 1) return fail("--max-conns must be >= 1");
  if (o.state_interval_ms < 1) return fail("--state-interval-ms must be >= 1");
  o.once = once != 0;
  o.port_file = get(flags, "port-file");
  o.state_file = get(flags, "state-file");
  // Shedding watermarks with hysteresis, defaulted from the queue budget
  // so a depth hovering at the threshold does not flap the accept gate.
  // Widened: queue * 9 overflows int for budgets above ~238M.
  o.shed_high = static_cast<int>(std::int64_t{queue} * 9 / 10);
  o.shed_low = static_cast<int>(std::int64_t{queue} * 7 / 10);
  if (!parse_int(flags, "shed-high", &o.shed_high, &err) ||
      !parse_int(flags, "shed-low", &o.shed_low, &err))
    return std::nullopt;
  if (o.shed_high < 1 || o.shed_low < 0 || o.shed_low > o.shed_high)
    return fail("need 0 <= --shed-low <= --shed-high and --shed-high >= 1");
  return o;
}

}  // namespace deepcsi::serving
