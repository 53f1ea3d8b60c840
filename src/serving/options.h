// ServeOptions: the single parse-and-validate path for every serving
// knob. The CLI's `serve` and `fleet` verbs, the benches and the tests
// all build their ServiceConfig through here, so "what does --queue
// accept" has exactly one answer and a malformed value fails the same
// way everywhere (error string out, caller prints usage and exits 2 —
// the DEEPCSI_SIMD / DEEPCSI_FAILPOINTS convention).
//
// This replaced the knob sprawl where cmd_serve validated nine flags
// inline, cmd_serve_listen validated six more, and any test wanting the
// same rules had to re-implement them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "serving/service.h"

namespace deepcsi::serving {

struct ServeOptions {
  // Which front end the flags are validated for:
  //   kServe — the CLI `serve` verb: requires --model and exactly one of
  //            --pcap (replay) / --listen (network ingest).
  //   kFleet — the CLI `fleet` verb and embedded harnesses: requires
  //            --model only; the caller supplies its own traffic.
  enum class Front { kServe, kFleet };

  // The consolidated service configuration (queue budget + policy,
  // scheduler, session window/shards/eviction, consumers, watchdog).
  ServiceConfig service;

  std::string model;

  // Replay front end (--pcap).
  std::string pcap;
  int loops = 1;
  int producers = 1;
  double rate_rps = 0.0;

  // Network front end (--listen).
  bool listen = false;
  std::uint16_t listen_port = 0;
  bool publish = false;
  std::uint16_t publish_port = 0;
  int max_conns = 64;
  bool once = false;
  std::string port_file;
  std::string state_file;
  int state_interval_ms = 1000;
  // Queue-depth watermarks for accept-gate load shedding; defaulted from
  // the queue budget (90% / 70%) when the flags are absent.
  int shed_high = 0;
  int shed_low = 0;

  // Model lifecycle (serve fronts only). --model-watch polls the weights
  // file's mtime/size every N ms and hot-swaps when it settles (requires
  // --listen; SIGHUP always triggers an immediate swap attempt there).
  int model_watch_ms = 0;  // 0 = disabled
  // Shadow scoring: candidate model mirrored onto a 1-in-N sample of the
  // live stream. --promote-below enables auto-promotion once the
  // candidate's verdict-divergence fraction is strictly below the bound
  // (after at least --promote-min sampled reports).
  std::string shadow_model;
  int shadow_sample = 8;
  double promote_below = -1.0;  // < 0 = never auto-promote
  int promote_min = 64;

  // Optional machine-readable end-of-run stats (StatsSnapshot JSON).
  std::string stats_json;

  // Validates `flags` (the CLI's --key value map) and returns the
  // aggregate, or nullopt with a one-line diagnostic in *error. Unknown
  // keys are ignored — verbs own their extra flags (fleet's --stations,
  // drive-style knobs); known keys with malformed or out-of-range values
  // are errors. Never exits and never prints: the caller owns the
  // usage-line-and-exit-2 behaviour.
  static std::optional<ServeOptions> parse(
      const std::map<std::string, std::string>& flags, Front front,
      std::string* error);
};

// The strict number parsers behind ServeOptions::parse, shared with the
// CLI's other verbs so every numeric flag follows one rule: the whole
// value must parse, and a double must be finite (std::stod alone takes
// "nan" and "inf", and NaN passes every range check). An absent key
// leaves *out untouched and returns true; a bad value returns false with
// "invalid integer for --key: 'value'" (or "invalid number ...") in
// *error.
bool parse_int(const std::map<std::string, std::string>& flags,
               const std::string& key, int* out, std::string* error);
bool parse_double(const std::map<std::string, std::string>& flags,
                  const std::string& key, double* out, std::string* error);

}  // namespace deepcsi::serving
