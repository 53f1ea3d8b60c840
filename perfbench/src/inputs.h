// Seeded, non-repeating report streams. Every report comes out of
// serving::FleetGenerator (the real PHY pipeline), then a few of its
// angle codes are nudged by a hash of (seed, sequence index) so no two
// reports in a run carry the same payload: live feedback never repeats,
// and a content-keyed cache must not look good here. All of it happens
// before any timed region.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "capture/monitor.h"
#include "serving/fleet.h"

namespace perfbench {

enum class Encoding {
  kAir,   // 802.11 VHT compressed beamforming action frame (what a monitor hears)
  kWire,  // net protocol feedback-report frame (what NetClient sends)
};

// Report i of a run carries stream timestamp (i + 1) ms; the live hooks
// recover i from it. Timestamp 0 marks the set-up warm-up report.
double timestamp_of(std::size_t index);
// -1 for the warm-up report.
long index_of(double timestamp_s);

struct ReportStream {
  std::vector<std::vector<std::uint8_t>> bytes;  // one encoded report each
  std::vector<std::uint64_t> station;            // fleet station index
  std::vector<int> truth;                        // station's ground-truth module
  double distinct_frac = 0.0;                    // distinct payloads / reports
};

// Reports [0, count) of the stream: report i is station (i % stations)'s
// (i / stations)-th report, with payload perturbed by (seed, i).
ReportStream make_stream(const deepcsi::serving::FleetGenerator& gen,
                         std::uint64_t seed, std::size_t count,
                         std::uint64_t stations, Encoding enc);

// The warm-up report: a station outside [0, stations), timestamp 0.
std::vector<std::uint8_t> make_warmup(const deepcsi::serving::FleetGenerator& gen,
                                      std::uint64_t seed, std::uint64_t station,
                                      Encoding enc);

// The monitor's front end for an air frame: BeamformingActionFrame::parse
// then feedback::unpack_report. nullopt for a frame that does not parse.
std::optional<deepcsi::capture::ObservedFeedback> decode_air(
    const std::vector<std::uint8_t>& frame, double timestamp_s);

// Either front end, by encoding.
std::optional<deepcsi::capture::ObservedFeedback> decode(const std::vector<std::uint8_t>& bytes,
                                                         Encoding enc, double timestamp_s);

}  // namespace perfbench
