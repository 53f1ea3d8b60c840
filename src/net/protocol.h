// The DeepCSI wire protocol: a compact length-prefixed binary framing
// shared by the ingest front end, the verdict publisher and the client.
//
// Every frame is a fixed 12-byte header followed by a payload, all fields
// little-endian on the wire (explicit encode/decode helpers below — the
// codec never type-puns through host structs, so it is byte-order and
// padding safe by construction):
//
//   offset  size  field
//        0     4  magic        0x44435349 ("ISCD" as bytes on the wire)
//        4     1  version      1
//        5     1  type         FrameType
//        6     2  flags        0 (reserved)
//        8     4  payload_len  bytes following the header (<= 1 MiB)
//
// Frame types:
//   kFeedbackReport (client -> server): one observed compressed
//     beamforming feedback report — station/beamformer MACs, timestamp,
//     geometry + codebook, the sounded sub-carrier list, and the packed
//     angle payload exactly as it appears in the VHT action frame
//     (feedback::pack_report bytes).
//   kVerdictUpdate (server -> subscriber): one station's current rolling
//     verdict (module, votes, window, confidence).
//   kStats (server -> subscriber): the end-of-run serving::StatsSnapshot,
//     its payload the UTF-8 bytes of StatsSnapshot::render_json() — a
//     versioned JSON object whose readers skip unknown keys, so the
//     frame needs no codec of its own.
//
// Malformed input is a result, never a crash: decoders return
// std::nullopt and the FrameAssembler reports a typed error for bad
// magic/version/oversized lengths, so a hostile or corrupt peer can be
// dropped cleanly (the ASan/UBSan CI legs run the full malformed-input
// suite in tests/net_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "capture/mac.h"
#include "capture/monitor.h"
#include "feedback/bitpack.h"

namespace deepcsi::net {

inline constexpr std::uint32_t kMagic = 0x44435349u;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;
// Generous ceiling: the largest legal report (m=nss=8, 9-bit angles,
// 512 sub-carriers) packs well under 64 KiB; anything near the cap is a
// corrupt or hostile length prefix, not data.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kFeedbackReport = 1,
  kVerdictUpdate = 2,
  kStats = 3,
};

// ------------------------------------------------------- encode primitives

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);
void put_mac(std::vector<std::uint8_t>& out, const capture::MacAddress& mac);

// Bounds-checked little-endian reader over a payload span. Every read
// returns false once the span is exhausted; decoders turn that into
// std::nullopt instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool f64(double& v);
  bool mac(capture::MacAddress& v);
  bool bytes(std::uint8_t* out, std::size_t n);

  std::size_t remaining() const { return data_.size() - off_; }
  bool done() const { return off_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
};

// --------------------------------------------------------------- messages

// Prepends a header to `payload` and returns the full wire frame.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);

// One observed feedback report (payload layout, all LE):
//   mac station[6], mac beamformer[6], f64 timestamp_s,
//   u8 b_phi, u8 b_psi, u8 m, u8 nss, u16 num_subcarriers,
//   i16 subcarrier[num_subcarriers],
//   u32 packed_len, u8 packed_report[packed_len]  (pack_report bytes)
std::vector<std::uint8_t> encode_report_frame(
    const capture::ObservedFeedback& obs);
// Validates geometry (1 <= nss <= m <= 8, codebook bits in [1, 16],
// sub-carrier count in [1, 1024]) and that packed_len is exactly the
// size the geometry implies, then unpacks the angles. nullopt on any
// violation or truncation.
std::optional<capture::ObservedFeedback> decode_report(
    std::span<const std::uint8_t> payload);

// One station's rolling verdict (payload layout, all LE):
//   mac station[6], i32 module_id, u32 votes, u32 window_size,
//   u64 total_reports, f64 mean_confidence, f64 last_timestamp_s
struct VerdictMsg {
  capture::MacAddress station;
  std::int32_t module_id = -1;
  std::uint32_t votes = 0;
  std::uint32_t window_size = 0;
  std::uint64_t total_reports = 0;
  double mean_confidence = 0.0;
  double last_timestamp_s = 0.0;
  bool operator==(const VerdictMsg&) const = default;
};
std::vector<std::uint8_t> encode_verdict_frame(const VerdictMsg& msg);
std::optional<VerdictMsg> decode_verdict(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------- reassembly

// Reassembles frames from an arbitrary byte stream: feed whatever read()
// returned (down to one byte at a time — the unit tests do exactly that)
// and pull complete frames out with next(). The first malformed header
// poisons the assembler (error() != kNone, next() refuses); framing
// cannot be trusted past that point, so the owner should drop the peer.
class FrameAssembler {
 public:
  enum class Error { kNone, kBadMagic, kBadVersion, kOversized };

  struct Frame {
    std::uint8_t type = 0;  // raw on-wire type; unknown values pass through
    std::vector<std::uint8_t> payload;
  };

  void append(const std::uint8_t* data, std::size_t n);

  // True while a complete frame was extracted into `out`. False means
  // "need more bytes" — or a poisoned stream; check error().
  bool next(Frame& out);

  Error error() const { return error_; }
  std::size_t buffered_bytes() const { return buffer_.size() - off_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t off_ = 0;  // consumed prefix, compacted periodically
  Error error_ = Error::kNone;
};

const char* error_name(FrameAssembler::Error e);

}  // namespace deepcsi::net
