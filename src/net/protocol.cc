#include "net/protocol.h"

#include <bit>
#include <cstring>
#include <exception>

#include "feedback/quantizer.h"

namespace deepcsi::net {

namespace {

// Decode-side sanity bounds: anything outside these is a corrupt or
// hostile payload, not a configuration this system can produce.
constexpr int kMaxAntennas = 8;
constexpr int kMaxCodebookBits = 16;
constexpr std::size_t kMaxSubcarriers = 1024;

}  // namespace

// ------------------------------------------------------- encode primitives

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_mac(std::vector<std::uint8_t>& out, const capture::MacAddress& mac) {
  out.insert(out.end(), mac.octets.begin(), mac.octets.end());
}

bool ByteReader::bytes(std::uint8_t* out, std::size_t n) {
  if (remaining() < n) return false;
  std::memcpy(out, data_.data() + off_, n);
  off_ += n;
  return true;
}

bool ByteReader::u8(std::uint8_t& v) { return bytes(&v, 1); }

bool ByteReader::u16(std::uint16_t& v) {
  std::uint8_t b[2];
  if (!bytes(b, 2)) return false;
  v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  return true;
}

bool ByteReader::u32(std::uint32_t& v) {
  std::uint8_t b[4];
  if (!bytes(b, 4)) return false;
  v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return true;
}

bool ByteReader::u64(std::uint64_t& v) {
  std::uint8_t b[8];
  if (!bytes(b, 8)) return false;
  v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return true;
}

bool ByteReader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::mac(capture::MacAddress& v) {
  return bytes(v.octets.data(), v.octets.size());
}

// --------------------------------------------------------------- messages

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kMagic);
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // flags
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> encode_report_frame(
    const capture::ObservedFeedback& obs) {
  const feedback::CompressedFeedbackReport& r = obs.report;
  std::vector<std::uint8_t> payload;
  put_mac(payload, obs.beamformee);
  put_mac(payload, obs.beamformer);
  put_f64(payload, obs.timestamp_s);
  put_u8(payload, static_cast<std::uint8_t>(r.quant.b_phi));
  put_u8(payload, static_cast<std::uint8_t>(r.quant.b_psi));
  put_u8(payload, static_cast<std::uint8_t>(r.m));
  put_u8(payload, static_cast<std::uint8_t>(r.nss));
  put_u16(payload, static_cast<std::uint16_t>(r.subcarriers.size()));
  for (const int sc : r.subcarriers)
    put_u16(payload, static_cast<std::uint16_t>(static_cast<std::int16_t>(sc)));
  const std::vector<std::uint8_t> packed = feedback::pack_report(r);
  put_u32(payload, static_cast<std::uint32_t>(packed.size()));
  payload.insert(payload.end(), packed.begin(), packed.end());
  return encode_frame(FrameType::kFeedbackReport, payload);
}

std::optional<capture::ObservedFeedback> decode_report(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  capture::ObservedFeedback obs;
  std::uint8_t b_phi = 0, b_psi = 0, m = 0, nss = 0;
  std::uint16_t num_sc = 0;
  if (!in.mac(obs.beamformee) || !in.mac(obs.beamformer) ||
      !in.f64(obs.timestamp_s) || !in.u8(b_phi) || !in.u8(b_psi) ||
      !in.u8(m) || !in.u8(nss) || !in.u16(num_sc))
    return std::nullopt;
  if (nss < 1 || m < nss || m > kMaxAntennas) return std::nullopt;
  if (b_phi < 1 || b_phi > kMaxCodebookBits || b_psi < 1 ||
      b_psi > kMaxCodebookBits)
    return std::nullopt;
  if (num_sc < 1 || num_sc > kMaxSubcarriers) return std::nullopt;

  std::vector<int> subcarriers(num_sc);
  for (std::uint16_t i = 0; i < num_sc; ++i) {
    std::uint16_t raw = 0;
    if (!in.u16(raw)) return std::nullopt;
    subcarriers[i] = static_cast<std::int16_t>(raw);
  }
  const feedback::QuantConfig cfg{b_phi, b_psi};
  std::uint32_t packed_len = 0;
  if (!in.u32(packed_len)) return std::nullopt;
  // The packed length is fully determined by the geometry: a mismatched
  // prefix means the stream is corrupt, whatever bytes follow.
  if (packed_len != feedback::report_payload_bytes(m, nss, num_sc, cfg))
    return std::nullopt;
  if (in.remaining() != packed_len) return std::nullopt;
  std::vector<std::uint8_t> packed(packed_len);
  if (packed_len > 0 && !in.bytes(packed.data(), packed_len))
    return std::nullopt;
  try {
    obs.report = feedback::unpack_report(packed, m, nss, subcarriers, cfg);
  } catch (const std::exception&) {
    return std::nullopt;  // BitReader overrun on a short final byte etc.
  }
  return obs;
}

std::vector<std::uint8_t> encode_verdict_frame(const VerdictMsg& msg) {
  std::vector<std::uint8_t> payload;
  put_mac(payload, msg.station);
  put_u32(payload, static_cast<std::uint32_t>(msg.module_id));
  put_u32(payload, msg.votes);
  put_u32(payload, msg.window_size);
  put_u64(payload, msg.total_reports);
  put_f64(payload, msg.mean_confidence);
  put_f64(payload, msg.last_timestamp_s);
  return encode_frame(FrameType::kVerdictUpdate, payload);
}

std::optional<VerdictMsg> decode_verdict(
    std::span<const std::uint8_t> payload) {
  ByteReader in(payload);
  VerdictMsg msg;
  std::uint32_t module = 0;
  if (!in.mac(msg.station) || !in.u32(module) || !in.u32(msg.votes) ||
      !in.u32(msg.window_size) || !in.u64(msg.total_reports) ||
      !in.f64(msg.mean_confidence) || !in.f64(msg.last_timestamp_s) ||
      !in.done())
    return std::nullopt;
  msg.module_id = static_cast<std::int32_t>(module);
  return msg;
}

// ---------------------------------------------------------- reassembly

void FrameAssembler::append(const std::uint8_t* data, std::size_t n) {
  if (error_ != Error::kNone) return;  // poisoned: stop buffering
  buffer_.insert(buffer_.end(), data, data + n);
}

bool FrameAssembler::next(Frame& out) {
  if (error_ != Error::kNone) return false;
  // Compact once the consumed prefix dominates, so a long-lived
  // connection doesn't grow its buffer without bound.
  if (off_ > 0 && (off_ >= buffer_.size() || off_ > 65536)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  if (buffer_.size() - off_ < kHeaderBytes) return false;
  ByteReader header(std::span(buffer_.data() + off_, kHeaderBytes));
  std::uint32_t magic = 0, payload_len = 0;
  std::uint8_t version = 0, type = 0;
  std::uint16_t flags = 0;
  header.u32(magic);
  header.u8(version);
  header.u8(type);
  header.u16(flags);
  header.u32(payload_len);
  if (magic != kMagic) {
    error_ = Error::kBadMagic;
    return false;
  }
  if (version != kVersion) {
    error_ = Error::kBadVersion;
    return false;
  }
  if (payload_len > kMaxPayloadBytes) {
    error_ = Error::kOversized;
    return false;
  }
  if (buffer_.size() - off_ < kHeaderBytes + payload_len) return false;
  out.type = type;
  out.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(off_ + kHeaderBytes),
      buffer_.begin() +
          static_cast<std::ptrdiff_t>(off_ + kHeaderBytes + payload_len));
  off_ += kHeaderBytes + payload_len;
  return true;
}

const char* error_name(FrameAssembler::Error e) {
  switch (e) {
    case FrameAssembler::Error::kNone: return "none";
    case FrameAssembler::Error::kBadMagic: return "bad-magic";
    case FrameAssembler::Error::kBadVersion: return "bad-version";
    case FrameAssembler::Error::kOversized: return "oversized-length";
  }
  return "?";
}

}  // namespace deepcsi::net
