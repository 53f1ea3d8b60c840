// Seeded deterministic fuzz of the wire-facing decode path: the
// FrameAssembler and decode_report are the two components a hostile or
// corrupt peer talks to directly, so they must turn ANY byte sequence
// into a typed result — a frame, "need more bytes", a typed assembler
// error, or std::nullopt — and never crash, overflow, or read out of
// bounds (the ASan/UBSan CI leg runs this suite). Every case derives
// from an explicit seed through mix64, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "capture/monitor.h"
#include "common/hash.h"
#include "dataset/traces.h"
#include "net/protocol.h"
#include "serving/stats.h"

namespace deepcsi {
namespace {

// Counter-stream RNG over mix64: cheap, stateless between tests, and
// fully determined by the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t next() { return common::mix64(seed_ + 0x9E3779B97F4A7C15ull * ++ctr_); }
  // Uniform in [0, n). Modulo bias is irrelevant for fuzzing.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t seed_;
  std::uint64_t ctr_ = 0;
};

// Real reports are expensive to synthesize (channel model + quantizer),
// so build a small pool once and vary only the cheap envelope fields.
const std::vector<feedback::CompressedFeedbackReport>& report_pool() {
  static const auto* pool = [] {
    auto* reports = new std::vector<feedback::CompressedFeedbackReport>;
    dataset::Scale scale;
    scale.d1_snapshots_per_trace = 1;
    for (int module = 0; module < 3; ++module) {
      const dataset::Trace trace =
          dataset::generate_d1_trace(module, 1, 0, scale, {});
      reports->push_back(trace.snapshots.front().report);
    }
    return reports;
  }();
  return *pool;
}

capture::ObservedFeedback observed_from(Rng& rng) {
  capture::ObservedFeedback obs;
  obs.timestamp_s = static_cast<double>(rng.below(100000)) * 0.001;
  obs.beamformee =
      capture::MacAddress::for_station(static_cast<int>(rng.below(64)));
  obs.beamformer =
      capture::MacAddress::for_module(static_cast<int>(rng.below(8)));
  obs.report = report_pool()[rng.below(report_pool().size())];
  return obs;
}

// A small mixed-type wire stream plus the expected report envelopes.
std::vector<std::uint8_t> build_stream(
    Rng& rng, std::vector<capture::ObservedFeedback>* reports_out) {
  std::vector<std::uint8_t> stream;
  const std::size_t frames = 1 + rng.below(4);
  for (std::size_t i = 0; i < frames; ++i) {
    switch (rng.below(4)) {
      case 0: {
        net::VerdictMsg v;
        v.module_id = static_cast<std::int32_t>(rng.below(10));
        v.votes = static_cast<std::uint32_t>(rng.below(31));
        const auto f = net::encode_verdict_frame(v);
        stream.insert(stream.end(), f.begin(), f.end());
        break;
      }
      case 1: {
        const std::string json = serving::StatsSnapshot{}.render_json();
        const auto f = net::encode_frame(
            net::FrameType::kStats,
            std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                      json.size()));
        stream.insert(stream.end(), f.begin(), f.end());
        break;
      }
      default: {
        const capture::ObservedFeedback obs = observed_from(rng);
        if (reports_out) reports_out->push_back(obs);
        const auto f = net::encode_report_frame(obs);
        stream.insert(stream.end(), f.begin(), f.end());
        break;
      }
    }
  }
  return stream;
}

TEST(FrameFuzzTest, ArbitraryFragmentationNeverLosesOrReordersFrames) {
  // 1000 seeds x random chunk sizes down to a single byte: reassembly
  // must recover every frame intact whatever read() boundaries the
  // kernel (or a failpoint-shortened recv) produces.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    std::vector<capture::ObservedFeedback> sent;
    const std::vector<std::uint8_t> stream = build_stream(rng, &sent);

    net::FrameAssembler assembler;
    std::size_t off = 0;
    std::vector<capture::ObservedFeedback> got;
    while (off < stream.size()) {
      const std::size_t n =
          std::min(stream.size() - off, 1 + rng.below(1 + rng.below(200)));
      assembler.append(stream.data() + off, n);
      off += n;
      net::FrameAssembler::Frame frame;
      while (assembler.next(frame)) {
        if (frame.type ==
            static_cast<std::uint8_t>(net::FrameType::kFeedbackReport)) {
          const auto obs = net::decode_report(std::span<const std::uint8_t>(
              frame.payload.data(), frame.payload.size()));
          ASSERT_TRUE(obs.has_value()) << "seed " << seed;
          got.push_back(*obs);
        }
      }
      ASSERT_EQ(assembler.error(), net::FrameAssembler::Error::kNone)
          << "seed " << seed;
    }
    ASSERT_EQ(assembler.buffered_bytes(), 0u) << "seed " << seed;
    ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].beamformee, sent[i].beamformee) << "seed " << seed;
      EXPECT_EQ(got[i].beamformer, sent[i].beamformer) << "seed " << seed;
      EXPECT_EQ(got[i].timestamp_s, sent[i].timestamp_s) << "seed " << seed;
      EXPECT_EQ(got[i].report.subcarriers, sent[i].report.subcarriers)
          << "seed " << seed;
      // Byte-level identity of the angle payload: repacking the decoded
      // report must reproduce the exact on-air bytes.
      EXPECT_EQ(feedback::pack_report(got[i].report),
                feedback::pack_report(sent[i].report))
          << "seed " << seed;
    }
  }
}

TEST(FrameFuzzTest, CorruptedStreamsProduceOnlyTypedErrors) {
  // 3000 seeds: take a valid stream, then flip bytes, truncate, or
  // splice garbage. The assembler must end in kNone (still waiting or
  // all frames happened to survive) or a typed error — and every
  // surviving kFeedbackReport payload must decode to a report or to
  // nullopt. No other outcome exists.
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> stream = build_stream(rng, nullptr);

    const std::size_t mutations = 1 + rng.below(8);
    for (std::size_t m = 0; m < mutations && !stream.empty(); ++m) {
      switch (rng.below(4)) {
        case 0:  // flip bits somewhere (headers included)
          stream[rng.below(stream.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
          break;
        case 1:  // truncate
          stream.resize(rng.below(stream.size() + 1));
          break;
        case 2: {  // splice garbage into the middle
          std::vector<std::uint8_t> junk(rng.below(40));
          for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
          const std::size_t at = rng.below(stream.size() + 1);
          stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                        junk.begin(), junk.end());
          break;
        }
        default:  // drop a span
          if (stream.size() > 2) {
            const std::size_t from = rng.below(stream.size() - 1);
            const std::size_t len = 1 + rng.below(stream.size() - from);
            stream.erase(
                stream.begin() + static_cast<std::ptrdiff_t>(from),
                stream.begin() + static_cast<std::ptrdiff_t>(from + len));
          }
          break;
      }
    }

    net::FrameAssembler assembler;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min(stream.size() - off, 1 + rng.below(300));
      assembler.append(stream.data() + off, n);
      off += n;
      net::FrameAssembler::Frame frame;
      while (assembler.next(frame)) {
        if (frame.type ==
            static_cast<std::uint8_t>(net::FrameType::kFeedbackReport)) {
          // Either outcome is legal; crashing or sanitizer faults are not.
          (void)net::decode_report(std::span<const std::uint8_t>(
              frame.payload.data(), frame.payload.size()));
        }
      }
      if (assembler.error() != net::FrameAssembler::Error::kNone) break;
    }
    // The poisoned-stream contract: after an error, next() keeps
    // refusing instead of resynchronizing on attacker-controlled bytes.
    if (assembler.error() != net::FrameAssembler::Error::kNone) {
      net::FrameAssembler::Frame frame;
      EXPECT_FALSE(assembler.next(frame)) << "seed " << seed;
    }
  }
}

TEST(FrameFuzzTest, DecodeReportSurvivesRandomAndMutatedPayloads) {
  // Pure payload fuzz, no framing: random bytes and slightly-damaged
  // valid payloads pushed straight into the strictest decoder. The
  // geometry validation (nss <= m <= 8, codebook bits, sub-carrier
  // bounds, exact packed length) is what stands between a corrupt
  // length field and an out-of-bounds unpack.
  Rng pool_rng(42);
  const auto valid_frame = net::encode_report_frame(observed_from(pool_rng));
  const std::vector<std::uint8_t> valid_payload(
      valid_frame.begin() + static_cast<std::ptrdiff_t>(net::kHeaderBytes),
      valid_frame.end());

  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> payload;
    if (seed % 2 == 0) {
      payload.resize(rng.below(300));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    } else {
      payload = valid_payload;
      const std::size_t mutations = 1 + rng.below(6);
      for (std::size_t m = 0; m < mutations; ++m)
        payload[rng.below(payload.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      if (rng.below(4) == 0) payload.resize(rng.below(payload.size() + 1));
    }
    (void)net::decode_report(
        std::span<const std::uint8_t>(payload.data(), payload.size()));
  }

  // Sanity: the decoder is strict, not just crash-free — the untouched
  // payload still decodes.
  const auto ok = net::decode_report(std::span<const std::uint8_t>(
      valid_payload.data(), valid_payload.size()));
  EXPECT_TRUE(ok.has_value());
}

}  // namespace
}  // namespace deepcsi
