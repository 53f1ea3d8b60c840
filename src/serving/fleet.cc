#include "serving/fleet.h"

#include <algorithm>
#include <random>

#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "feedback/angles.h"
#include "feedback/bitpack.h"
#include "phy/channel.h"
#include "phy/geometry.h"
#include "phy/impairments.h"
#include "phy/sounding.h"

namespace deepcsi::serving {

namespace {

// Sec. IV implementation limit, same as the dataset generators.
constexpr int kFleetTxAntennas = 3;
// Fleet beamformees run N = NSS = 2, the D1 configuration.
constexpr int kFleetRxAntennas = 2;

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return common::mix64(a ^ common::mix64(b));
}

}  // namespace

std::size_t FleetGenerator::pool_index(int module, int position,
                                       int station_class,
                                       int snapshot) const {
  return static_cast<std::size_t>(
      ((module * cfg_.positions + (position - 1)) * cfg_.station_classes +
       station_class) *
          cfg_.snapshots_per_template +
      snapshot);
}

FleetGenerator::FleetGenerator(FleetConfig cfg) : cfg_(cfg) {
  DEEPCSI_CHECK(cfg_.stations >= 1);
  DEEPCSI_CHECK(cfg_.reports_per_station >= 1);
  DEEPCSI_CHECK(cfg_.modules >= 1 && cfg_.modules <= phy::kNumModules);
  DEEPCSI_CHECK(cfg_.positions >= 1 &&
                cfg_.positions <= phy::kNumBeamformeePositions);
  DEEPCSI_CHECK(cfg_.station_classes >= 1);
  DEEPCSI_CHECK(cfg_.snapshots_per_template >= 1);
  DEEPCSI_CHECK(cfg_.mobile_fraction >= 0.0 && cfg_.mobile_fraction <= 1.0);
  DEEPCSI_CHECK(cfg_.confusion_fraction >= 0.0 &&
                cfg_.confusion_fraction <= 1.0);
  DEEPCSI_CHECK(cfg_.report_interval_s > 0.0);

  const phy::Scene scene(cfg_.environment);
  const phy::ChannelModel channel(scene);
  const std::vector<int>& subcarriers = phy::vht80_sounded_subcarriers();
  const phy::Point ap = scene.ap_position_a();

  const std::size_t combos = static_cast<std::size_t>(cfg_.modules) *
                             cfg_.positions * cfg_.station_classes *
                             cfg_.snapshots_per_template;
  pool_.resize(combos);
  // One full pipeline pass per combo; combos are independent, so the pool
  // fills in parallel with each entry written by exactly one chunk.
  common::parallel_for(0, combos, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      std::size_t rest = idx;
      const int snapshot =
          static_cast<int>(rest % cfg_.snapshots_per_template);
      rest /= cfg_.snapshots_per_template;
      const int station_class = static_cast<int>(rest % cfg_.station_classes);
      rest /= cfg_.station_classes;
      const int position = static_cast<int>(rest % cfg_.positions) + 1;
      const int module = static_cast<int>(rest / cfg_.positions);

      const phy::ModuleProfile module_profile =
          phy::make_module_profile(module, kFleetTxAntennas);
      // Class ids start past the two testbed beamformees so a fleet class
      // never aliases their measured profiles.
      const phy::BeamformeeProfile bf_profile =
          phy::make_beamformee_profile(1000 + station_class,
                                       kFleetRxAntennas);
      const std::uint64_t combo_seed =
          mix2(cfg_.seed, mix2(static_cast<std::uint64_t>(module),
                               mix2(static_cast<std::uint64_t>(position),
                                    static_cast<std::uint64_t>(
                                        station_class * 131 + snapshot))));
      const phy::TraceContext trace_ctx =
          phy::make_trace_context(module_profile, combo_seed);
      const phy::Point bf_pos =
          scene.fleet_station_position(station_class, position);

      std::mt19937_64 rng(common::mix64(combo_seed));
      const phy::FadingParams fading;
      const phy::Cfr truth =
          channel.cfr(ap, bf_pos, kFleetTxAntennas, kFleetRxAntennas,
                      subcarriers, /*extra=*/{}, fading, rng);
      phy::SoundingNoise noise;
      noise.snr_db = cfg_.snr_db;
      const phy::Cfr est =
          phy::estimate_cfr(module_profile, trace_ctx, bf_profile, truth,
                            kFleetTxAntennas, kFleetRxAntennas, noise, rng);
      const std::vector<linalg::CMat> v =
          feedback::beamforming_v(est.h, /*nss=*/kFleetRxAntennas);
      const feedback::QuantConfig quant;
      pool_[idx] = feedback::compress_v_series(v, subcarriers, quant);
    }
  });
}

std::uint64_t FleetGenerator::station_hash(std::uint64_t station) const {
  return mix2(station, cfg_.seed);
}

int FleetGenerator::expected_module(std::uint64_t station) const {
  return static_cast<int>(station % static_cast<std::uint64_t>(cfg_.modules));
}

bool FleetGenerator::is_mobile(std::uint64_t station) const {
  const std::uint64_t h = common::mix64(station_hash(station) ^ 0x0B11Eull);
  return static_cast<double>(h % 1000000) <
         cfg_.mobile_fraction * 1000000.0;
}

bool FleetGenerator::is_confused(std::uint64_t station) const {
  const std::uint64_t h = common::mix64(station_hash(station) ^ 0xC0F0ull);
  return static_cast<double>(h % 1000000) <
         cfg_.confusion_fraction * 1000000.0;
}

capture::ObservedFeedback FleetGenerator::report(std::uint64_t station,
                                                 std::size_t j) const {
  DEEPCSI_CHECK(station < cfg_.stations);
  const std::uint64_t h = station_hash(station);
  const int module_true = expected_module(station);
  // A confused station interleaves the NEXT module's reports on odd
  // rounds — the cross-beamformee contamination of figs 9-11. Ground
  // truth (expected_module) stays the even-round module, which an odd
  // window's majority still recovers.
  const int module_used =
      (is_confused(station) && (j % 2 == 1))
          ? (module_true + 1) % cfg_.modules
          : module_true;
  const int home_position =
      1 + static_cast<int>(common::mix64(h ^ 0x90511ull) %
                           static_cast<std::uint64_t>(cfg_.positions));
  // Mobile stations walk the position grid one step per report.
  const int position =
      is_mobile(station)
          ? 1 + static_cast<int>((home_position - 1 + j) %
                                 static_cast<std::size_t>(cfg_.positions))
          : home_position;
  const int station_class = static_cast<int>(
      h % static_cast<std::uint64_t>(cfg_.station_classes));
  const int snapshot = static_cast<int>(
      mix2(h, j) % static_cast<std::uint64_t>(cfg_.snapshots_per_template));

  capture::ObservedFeedback obs;
  obs.beamformee = capture::MacAddress::for_fleet_station(station);
  obs.beamformer = capture::MacAddress::for_module(module_used);
  // Per-station phase offset spreads last-seen times across the interval
  // so TTL sweeps see a realistic age distribution, not one cliff.
  const double phase =
      static_cast<double>(common::mix64(h ^ 0x7153ull) % 1000) / 1000.0;
  obs.timestamp_s =
      (static_cast<double>(j) + phase) * cfg_.report_interval_s;
  obs.report = pool_[pool_index(module_used, position, station_class,
                                snapshot)];
  return obs;
}

ReplayResult run_fleet(AuthService& service, const FleetGenerator& gen,
                       int producers) {
  DEEPCSI_CHECK(producers >= 1);
  const FleetConfig& cfg = gen.config();
  const std::uint64_t n = cfg.stations;
  const std::uint64_t chunk =
      (n + static_cast<std::uint64_t>(producers) - 1) /
      static_cast<std::uint64_t>(producers);
  return run_producers(service, producers, [&](int p, ProducerTally& tally) {
    const std::uint64_t begin = static_cast<std::uint64_t>(p) * chunk;
    const std::uint64_t end = std::min(n, begin + chunk);
    // Rounds, not stations, in the outer loop: the whole fleet finishes
    // report j before any station sends j+1 — the traffic shape a real
    // beacon-paced deployment would show, and the one that makes the
    // LRU tail age by station, not by producer chunk.
    for (std::size_t j = 0; j < cfg.reports_per_station; ++j)
      for (std::uint64_t s = begin; s < end; ++s)
        tally.submit(gen.report(s, j));
  });
}

}  // namespace deepcsi::serving
