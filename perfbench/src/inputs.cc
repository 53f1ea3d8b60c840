#include "inputs.h"

#include <cmath>
#include <span>
#include <unordered_set>

#include "capture/vht_frame.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "feedback/bitpack.h"
#include "net/protocol.h"
#include "phy/ofdm.h"

namespace perfbench {

using namespace deepcsi;

namespace {

constexpr int kNudges = 6;  // angle codes nudged per report

void perturb(feedback::CompressedFeedbackReport& r, std::uint64_t seed,
             std::size_t index) {
  const std::size_t k = r.per_subcarrier.size();
  for (int n = 0; n < kNudges; ++n) {
    const std::uint64_t h = common::mix64(seed * 0x9e3779b97f4a7c15ull ^
                                          (static_cast<std::uint64_t>(index) << 8) ^
                                          static_cast<std::uint64_t>(n));
    feedback::QuantizedAngles& q = r.per_subcarrier[h % k];
    const bool phi = ((h >> 32) & 1u) != 0 || q.q_psi.empty();
    std::vector<std::uint16_t>& codes = phi ? q.q_phi : q.q_psi;
    if (codes.empty()) continue;
    const int bits = phi ? r.quant.b_phi : r.quant.b_psi;
    std::uint16_t& c = codes[(h >> 40) % codes.size()];
    c = static_cast<std::uint16_t>((c + 1 + ((h >> 48) & 1u)) & ((1u << bits) - 1u));
  }
}

capture::ObservedFeedback make_report(const serving::FleetGenerator& gen,
                                      std::uint64_t seed, std::uint64_t station,
                                      std::size_t j, std::size_t index,
                                      double timestamp_s) {
  capture::ObservedFeedback obs = gen.report(station, j);
  perturb(obs.report, seed, index);
  obs.timestamp_s = timestamp_s;
  return obs;
}

// The 802.11 VHT compressed beamforming action frame a monitor would hear.
std::vector<std::uint8_t> encode_air(const capture::ObservedFeedback& obs,
                                     std::size_t index) {
  capture::BeamformingActionFrame f;
  f.ra = obs.beamformer;
  f.ta = obs.beamformee;
  f.bssid = obs.beamformer;
  f.sequence = static_cast<std::uint16_t>(index & 0xfffu);
  f.mimo_control.nc = obs.report.nss;
  f.mimo_control.nr = obs.report.m;
  f.mimo_control.bandwidth = 2;
  f.mimo_control.mu_feedback = true;
  f.mimo_control.codebook_high = obs.report.quant == feedback::mu_mimo_codebook_high();
  f.report = feedback::pack_report(obs.report);
  return f.serialize();
}

std::vector<std::uint8_t> encode(const capture::ObservedFeedback& obs,
                                 std::size_t index, Encoding enc) {
  return enc == Encoding::kWire ? net::encode_report_frame(obs) : encode_air(obs, index);
}

}  // namespace

double timestamp_of(std::size_t index) { return 1e-3 * static_cast<double>(index + 1); }

long index_of(double timestamp_s) { return std::lround(timestamp_s * 1e3) - 1; }

std::optional<capture::ObservedFeedback> decode_air(const std::vector<std::uint8_t>& frame,
                                                    double timestamp_s) {
  const auto f = capture::BeamformingActionFrame::parse(frame);
  if (!f) return std::nullopt;
  const capture::VhtMimoControl& mc = f->mimo_control;
  static const std::vector<int> k80 = phy::vht80_subband(phy::Band::k80MHz);
  const std::vector<int>& subcarriers =
      mc.band() == phy::Band::k80MHz ? k80 : phy::vht80_subband(mc.band());
  capture::ObservedFeedback obs;
  obs.timestamp_s = timestamp_s;
  obs.beamformee = f->ta;
  obs.beamformer = f->ra;
  obs.report = feedback::unpack_report(f->report, mc.nr, mc.nc, subcarriers,
                                       mc.quant_config());
  return obs;
}

std::optional<capture::ObservedFeedback> decode(const std::vector<std::uint8_t>& bytes,
                                                Encoding enc, double timestamp_s) {
  if (enc == Encoding::kAir) return decode_air(bytes, timestamp_s);
  if (bytes.size() < net::kHeaderBytes) return std::nullopt;
  auto obs = net::decode_report(std::span(bytes).subspan(net::kHeaderBytes));
  if (obs) obs->timestamp_s = timestamp_s;
  return obs;
}

ReportStream make_stream(const serving::FleetGenerator& gen, std::uint64_t seed,
                         std::size_t count, std::uint64_t stations, Encoding enc) {
  ReportStream s;
  s.bytes.resize(count);
  s.station.resize(count);
  s.truth.resize(count);
  std::vector<std::uint64_t> payload_hash(count);
  common::parallel_for(0, count, 256, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t st = i % stations;
      const capture::ObservedFeedback obs =
          make_report(gen, seed, st, i / stations, i, timestamp_of(i));
      s.bytes[i] = encode(obs, i, enc);
      s.station[i] = st;
      s.truth[i] = gen.expected_module(st);
      // Distinctness is judged on the packed angle payload alone — the
      // MACs, sequence numbers and timestamps differ anyway.
      const std::vector<std::uint8_t> packed = feedback::pack_report(obs.report);
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (const std::uint8_t b : packed) h = (h ^ b) * 0x100000001b3ull;
      payload_hash[i] = h;
    }
  });
  std::unordered_set<std::uint64_t> distinct(payload_hash.begin(), payload_hash.end());
  s.distinct_frac = count == 0 ? 1.0
                               : static_cast<double>(distinct.size()) /
                                     static_cast<double>(count);
  return s;
}

std::vector<std::uint8_t> make_warmup(const serving::FleetGenerator& gen,
                                      std::uint64_t seed, std::uint64_t station,
                                      Encoding enc) {
  const capture::ObservedFeedback obs =
      make_report(gen, seed ^ 0x5eedull, station, 0, 0, 0.0);
  return encode(obs, 0, enc);
}

}  // namespace perfbench
