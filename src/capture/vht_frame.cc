#include "capture/vht_frame.h"

#include "common/check.h"
#include "common/crc32.h"

namespace deepcsi::capture {
namespace {

// Management / Action No Ack (type 0, subtype 14), protocol version 0.
constexpr std::uint16_t kFrameControl = 0x00E0;
constexpr std::uint8_t kCategoryVht = 21;
constexpr std::uint8_t kActionCompressedBeamforming = 0;
constexpr std::size_t kHeaderBytes = 24;  // FC..SeqCtl

void put_u16le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16le(const std::vector<std::uint8_t>& in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] | (in[at + 1] << 8));
}

}  // namespace

feedback::QuantConfig VhtMimoControl::quant_config() const {
  return codebook_high ? feedback::mu_mimo_codebook_high()
                       : feedback::mu_mimo_codebook_low();
}

phy::Band VhtMimoControl::band() const {
  switch (bandwidth) {
    case 0: return phy::Band::k20MHz;
    case 1: return phy::Band::k40MHz;
    default: return phy::Band::k80MHz;
  }
}

std::array<std::uint8_t, 3> VhtMimoControl::pack() const {
  DEEPCSI_CHECK(nc >= 1 && nc <= 8 && nr >= 1 && nr <= 8);
  DEEPCSI_CHECK(bandwidth >= 0 && bandwidth <= 3);
  DEEPCSI_CHECK(sounding_token >= 0 && sounding_token < 64);
  // Bit layout (LSB first): Nc-1 (3) | Nr-1 (3) | BW (2) | ...
  // ... MU (1) | codebook (1) | token (6).
  std::uint32_t v = 0;
  v |= static_cast<std::uint32_t>(nc - 1);
  v |= static_cast<std::uint32_t>(nr - 1) << 3;
  v |= static_cast<std::uint32_t>(bandwidth) << 6;
  v |= static_cast<std::uint32_t>(mu_feedback ? 1 : 0) << 8;
  v |= static_cast<std::uint32_t>(codebook_high ? 1 : 0) << 9;
  v |= static_cast<std::uint32_t>(sounding_token) << 10;
  return {static_cast<std::uint8_t>(v & 0xFF),
          static_cast<std::uint8_t>((v >> 8) & 0xFF),
          static_cast<std::uint8_t>((v >> 16) & 0xFF)};
}

VhtMimoControl VhtMimoControl::unpack(const std::array<std::uint8_t, 3>& b) {
  const std::uint32_t v = static_cast<std::uint32_t>(b[0]) |
                          (static_cast<std::uint32_t>(b[1]) << 8) |
                          (static_cast<std::uint32_t>(b[2]) << 16);
  VhtMimoControl c;
  c.nc = static_cast<int>(v & 0x7) + 1;
  c.nr = static_cast<int>((v >> 3) & 0x7) + 1;
  c.bandwidth = static_cast<int>((v >> 6) & 0x3);
  c.mu_feedback = ((v >> 8) & 1u) != 0;
  c.codebook_high = ((v >> 9) & 1u) != 0;
  c.sounding_token = static_cast<int>((v >> 10) & 0x3F);
  return c;
}

std::vector<std::uint8_t> BeamformingActionFrame::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + 2 + 3 + report.size() + 4);
  put_u16le(out, kFrameControl);
  put_u16le(out, 0);  // duration
  for (auto o : ra.octets) out.push_back(o);
  for (auto o : ta.octets) out.push_back(o);
  for (auto o : bssid.octets) out.push_back(o);
  put_u16le(out, static_cast<std::uint16_t>(sequence << 4));
  out.push_back(kCategoryVht);
  out.push_back(kActionCompressedBeamforming);
  const auto mc = mimo_control.pack();
  out.insert(out.end(), mc.begin(), mc.end());
  out.insert(out.end(), report.begin(), report.end());
  const std::uint32_t fcs = common::crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF));
  return out;
}

std::optional<BeamformingActionFrame> BeamformingActionFrame::parse(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes + 2 + 3 + 4) return std::nullopt;
  if (get_u16le(bytes, 0) != kFrameControl) return std::nullopt;
  if (bytes[kHeaderBytes] != kCategoryVht) return std::nullopt;
  if (bytes[kHeaderBytes + 1] != kActionCompressedBeamforming)
    return std::nullopt;

  // FCS check over everything but the trailing 4 bytes.
  const std::size_t body = bytes.size() - 4;
  std::uint32_t fcs = 0;
  for (int i = 3; i >= 0; --i) fcs = (fcs << 8) | bytes[body + static_cast<std::size_t>(i)];
  if (common::crc32(bytes.data(), body) != fcs) return std::nullopt;

  BeamformingActionFrame f;
  std::size_t at = 4;
  for (auto& o : f.ra.octets) o = bytes[at++];
  for (auto& o : f.ta.octets) o = bytes[at++];
  for (auto& o : f.bssid.octets) o = bytes[at++];
  f.sequence = static_cast<std::uint16_t>(get_u16le(bytes, at) >> 4);
  at += 2;
  at += 2;  // category + action, already validated
  std::array<std::uint8_t, 3> mc{bytes[at], bytes[at + 1], bytes[at + 2]};
  f.mimo_control = VhtMimoControl::unpack(mc);
  at += 3;
  f.report.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(body));
  return f;
}

}  // namespace deepcsi::capture
