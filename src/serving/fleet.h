// Synthetic fleet driver: feedback traffic for 10^5..10^6 DISTINCT
// beamformees, generated through the real PHY stack and replayed through
// a running AuthService — the scale harness behind `deepcsi fleet` and
// perf_gate_test's fleet soak.
//
// Generating a full channel->sounding->SVD->quantization pass per station
// would melt at a million stations, so the generator works from a
// TEMPLATE POOL: every (module, position, station-class, snapshot) combo
// is synthesized once through the genuine pipeline (phy::ChannelModel,
// estimate_cfr with per-class BeamformeeProfile impairments,
// feedback::beamforming_v, compress_v_series), and each station is a
// deterministic hash-mapping onto that pool — its own MAC, its own
// module ground truth, its own position/mobility/confusion draw, its own
// report timeline. The session table cannot tell the difference: every
// report is a bit-exact product of the real pipeline, and two stations
// mapped to the same template still exercise distinct sessions, shards,
// lanes and eviction slots.
//
// Scenario knobs model the paper's multi-beamformee figures: static vs
// mobile mixes (position churn per report, figs 14/17), and
// cross-beamformee confusion (a fraction of stations interleave a
// neighbouring module's reports, figs 9-11) — the traffic that makes
// verdict windows flap and eviction policies earn their keep.
//
// Everything is deterministic from FleetConfig alone: station i's j-th
// report (bytes, timestamp, MAC) is a pure function of (cfg, i, j), so a
// fleet replay is exactly reproducible across runs, producer counts and
// machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capture/monitor.h"
#include "serving/replay.h"
#include "serving/service.h"

namespace deepcsi::serving {

struct FleetConfig {
  std::uint64_t stations = 100000;      // distinct beamformees
  std::size_t reports_per_station = 2;  // reports each station transmits
  int modules = 10;                     // beamformer fingerprints in play
  int positions = 3;                    // Fig. 6 grid positions used (1..P)
  int station_classes = 4;              // distinct beamformee RF profiles
  double mobile_fraction = 0.1;         // stations that churn position
  double confusion_fraction = 0.0;      // stations mixing a neighbour module
  int snapshots_per_template = 1;       // pipeline passes per pool combo
  int environment = 0;                  // Scene environment id
  double snr_db = 30.0;
  std::uint64_t seed = 17;
  double report_interval_s = 0.05;      // stream-time spacing per station
};

class FleetGenerator {
 public:
  // Builds the template pool through the real PHY pipeline (parallelized
  // over combos; a few hundred passes even at full knobs).
  explicit FleetGenerator(FleetConfig cfg);

  const FleetConfig& config() const { return cfg_; }
  std::size_t num_templates() const { return pool_.size(); }

  // Station `station`'s j-th report: fleet MAC, deterministic stream
  // timestamp, and the template its scenario draw selects. Pure function
  // of (config, station, j); thread-safe.
  capture::ObservedFeedback report(std::uint64_t station,
                                   std::size_t j) const;

  // Ground-truth module for a station (what a perfect classifier's
  // majority should settle on).
  int expected_module(std::uint64_t station) const;
  bool is_mobile(std::uint64_t station) const;
  bool is_confused(std::uint64_t station) const;

 private:
  std::uint64_t station_hash(std::uint64_t station) const;
  std::size_t pool_index(int module, int position, int station_class,
                         int snapshot) const;

  FleetConfig cfg_;
  std::vector<feedback::CompressedFeedbackReport> pool_;
};

// Streams the whole fleet through `service` (which must not be started
// yet — run_fleet starts and drains it, through run_producers):
// `producers` threads each own a contiguous station range and interleave
// rounds (every station's report j before any report j+1), so
// per-station submission order — the verdict determinism invariant —
// holds for any producer count.
ReplayResult run_fleet(AuthService& service, const FleetGenerator& gen,
                       int producers);

}  // namespace deepcsi::serving
