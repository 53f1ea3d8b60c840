// Wire protocol: frame codec roundtrips, byte-stream reassembly down to
// one-byte reads, malformed-input rejection (truncated frames, bad
// magic/version, oversized length prefixes), and the publisher's bounded
// write buffers (short-write resumption, slow-subscriber drops).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstdint>
#include <netinet/in.h>
#include <span>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "capture/monitor.h"
#include "dataset/traces.h"
#include "feedback/bitpack.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/publisher.h"
#include "net/socket.h"
#include "serving/stats.h"

namespace deepcsi {
namespace {

using net::FrameAssembler;
using net::FrameType;

capture::ObservedFeedback make_observed(int module, double timestamp_s) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = 1;
  const dataset::Trace trace =
      dataset::generate_d1_trace(module, 1, 0, scale, {});
  capture::ObservedFeedback obs;
  obs.timestamp_s = timestamp_s;
  obs.beamformee = capture::MacAddress::for_station(module);
  obs.beamformer = capture::MacAddress::for_module(module);
  obs.report = trace.snapshots.front().report;
  return obs;
}

// Reports carry no operator==; the packed wire bytes ARE the identity the
// whole pipeline runs on, so compare those.
void expect_same_report(const feedback::CompressedFeedbackReport& a,
                        const feedback::CompressedFeedbackReport& b) {
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.nss, b.nss);
  EXPECT_EQ(a.quant.b_phi, b.quant.b_phi);
  EXPECT_EQ(a.quant.b_psi, b.quant.b_psi);
  EXPECT_EQ(a.subcarriers, b.subcarriers);
  EXPECT_EQ(feedback::pack_report(a), feedback::pack_report(b));
}

// ---------------------------------------------------------------- roundtrips

TEST(NetProtocolTest, ReportFrameRoundTripsBitExactly) {
  const capture::ObservedFeedback obs = make_observed(3, 12.625);
  const std::vector<std::uint8_t> frame = net::encode_report_frame(obs);

  FrameAssembler asm_;
  asm_.append(frame.data(), frame.size());
  FrameAssembler::Frame out;
  ASSERT_TRUE(asm_.next(out));
  EXPECT_EQ(out.type, static_cast<std::uint8_t>(FrameType::kFeedbackReport));

  const auto decoded = net::decode_report(
      std::span<const std::uint8_t>(out.payload.data(), out.payload.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->beamformee, obs.beamformee);
  EXPECT_EQ(decoded->beamformer, obs.beamformer);
  EXPECT_EQ(decoded->timestamp_s, obs.timestamp_s);
  expect_same_report(decoded->report, obs.report);
  EXPECT_FALSE(asm_.next(out));  // exactly one frame
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kNone);
}

TEST(NetProtocolTest, VerdictAndStatsFramesRoundTrip) {
  net::VerdictMsg v;
  v.station = capture::MacAddress::for_station(7);
  v.module_id = 4;
  v.votes = 17;
  v.window_size = 31;
  v.total_reports = 123456789ull;
  v.mean_confidence = 0.8125;
  v.last_timestamp_s = -3.5;
  const auto vframe = net::encode_verdict_frame(v);
  FrameAssembler asm_;
  asm_.append(vframe.data(), vframe.size());
  FrameAssembler::Frame out;
  ASSERT_TRUE(asm_.next(out));
  EXPECT_EQ(out.type, static_cast<std::uint8_t>(FrameType::kVerdictUpdate));
  const auto dv = net::decode_verdict(
      std::span<const std::uint8_t>(out.payload.data(), out.payload.size()));
  ASSERT_TRUE(dv.has_value());
  EXPECT_EQ(*dv, v);

  // A kStats frame carries a StatsSnapshot JSON object verbatim.
  serving::StatsSnapshot snap;
  snap.reports_classified = 1000;
  snap.queue.dropped_oldest = 3;
  snap.queue.rejected = 7;
  snap.throughput_rps = 1234.5;
  snap.batch_latency_p99_ms = 0.75;
  const std::string json = snap.render_json();
  const auto sframe = net::encode_frame(
      FrameType::kStats,
      std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                json.size()));
  asm_.append(sframe.data(), sframe.size());
  ASSERT_TRUE(asm_.next(out));
  EXPECT_EQ(out.type, static_cast<std::uint8_t>(FrameType::kStats));
  EXPECT_EQ(std::string(out.payload.begin(), out.payload.end()), json);
}

// --------------------------------------------------------------- reassembly

TEST(NetProtocolTest, AssemblerSurvivesOneByteReads) {
  // Worst-case fragmentation: three frames delivered one byte at a time,
  // as a pathological TCP stream could.
  std::vector<std::uint8_t> stream;
  std::vector<capture::ObservedFeedback> sent;
  for (int module = 0; module < 3; ++module) {
    sent.push_back(make_observed(module, static_cast<double>(module)));
    const auto frame = net::encode_report_frame(sent.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  FrameAssembler asm_;
  std::vector<capture::ObservedFeedback> got;
  for (const std::uint8_t byte : stream) {
    asm_.append(&byte, 1);
    FrameAssembler::Frame out;
    while (asm_.next(out)) {
      const auto decoded = net::decode_report(std::span<const std::uint8_t>(
          out.payload.data(), out.payload.size()));
      ASSERT_TRUE(decoded.has_value());
      got.push_back(*decoded);
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].beamformee, sent[i].beamformee);
    EXPECT_EQ(got[i].timestamp_s, sent[i].timestamp_s);
    expect_same_report(got[i].report, sent[i].report);
  }
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kNone);
  EXPECT_EQ(asm_.buffered_bytes(), 0u);
}

TEST(NetProtocolTest, TruncatedFrameIsNotAFrameAndNotAnError) {
  const auto frame = net::encode_report_frame(make_observed(0, 1.0));
  FrameAssembler asm_;
  asm_.append(frame.data(), frame.size() - 1);  // one byte short
  FrameAssembler::Frame out;
  EXPECT_FALSE(asm_.next(out));  // incomplete, waiting for more bytes
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kNone);
  const std::uint8_t last = frame.back();
  asm_.append(&last, 1);
  EXPECT_TRUE(asm_.next(out));  // arrives once the byte does
}

TEST(NetProtocolTest, BadMagicPoisonsTheStream) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  FrameAssembler asm_;
  asm_.append(junk.data(), junk.size());
  FrameAssembler::Frame out;
  EXPECT_FALSE(asm_.next(out));
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kBadMagic);
  // Poisoned: even a valid frame appended afterwards is refused, because
  // framing can't be trusted past corruption.
  const auto frame = net::encode_report_frame(make_observed(0, 1.0));
  asm_.append(frame.data(), frame.size());
  EXPECT_FALSE(asm_.next(out));
  EXPECT_STREQ(net::error_name(asm_.error()), "bad-magic");
}

TEST(NetProtocolTest, BadVersionAndOversizedLengthAreTypedErrors) {
  {
    auto frame = net::encode_frame(FrameType::kStats, {});
    frame[4] = 99;  // version byte
    FrameAssembler asm_;
    asm_.append(frame.data(), frame.size());
    FrameAssembler::Frame out;
    EXPECT_FALSE(asm_.next(out));
    EXPECT_EQ(asm_.error(), FrameAssembler::Error::kBadVersion);
  }
  {
    // A hostile length prefix larger than any legal payload must be
    // rejected from the header alone — never allocated or waited on.
    std::vector<std::uint8_t> header;
    net::put_u32(header, net::kMagic);
    net::put_u8(header, net::kVersion);
    net::put_u8(header, static_cast<std::uint8_t>(FrameType::kFeedbackReport));
    net::put_u16(header, 0);
    net::put_u32(header, static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1);
    FrameAssembler asm_;
    asm_.append(header.data(), header.size());
    FrameAssembler::Frame out;
    EXPECT_FALSE(asm_.next(out));
    EXPECT_EQ(asm_.error(), FrameAssembler::Error::kOversized);
  }
}

// ------------------------------------------------------ malformed payloads

TEST(NetProtocolTest, DecodeReportRejectsCorruptPayloads) {
  const capture::ObservedFeedback obs = make_observed(1, 2.0);
  const auto frame = net::encode_report_frame(obs);
  const std::vector<std::uint8_t> payload(frame.begin() + net::kHeaderBytes,
                                          frame.end());
  auto view = [](const std::vector<std::uint8_t>& v) {
    return std::span<const std::uint8_t>(v.data(), v.size());
  };
  ASSERT_TRUE(net::decode_report(view(payload)).has_value());

  // Truncation at every prefix length must fail cleanly, never read OOB
  // (the sanitizer legs make that a hard guarantee, not a hope).
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> shorter(payload.begin(),
                                            payload.begin() +
                                                static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(net::decode_report(view(shorter)).has_value()) << cut;
  }

  {
    auto bad = payload;
    bad[12 + 8 + 2] = 0;  // m = 0: impossible geometry
    EXPECT_FALSE(net::decode_report(view(bad)).has_value());
  }
  {
    auto bad = payload;
    bad[12 + 8 + 3] = 9;  // nss = 9 > kMaxAntennas
    EXPECT_FALSE(net::decode_report(view(bad)).has_value());
  }
  {
    auto bad = payload;
    bad[12 + 8] = 0;  // b_phi = 0: no such codebook
    EXPECT_FALSE(net::decode_report(view(bad)).has_value());
  }
  {
    // Trailing garbage after the packed report: length bookkeeping must
    // notice the surplus.
    auto bad = payload;
    bad.push_back(0xFF);
    EXPECT_FALSE(net::decode_report(view(bad)).has_value());
  }
}

TEST(NetProtocolTest, DecodeVerdictRejectsWrongSizes) {
  const auto vframe = net::encode_verdict_frame(net::VerdictMsg{});
  std::vector<std::uint8_t> vpayload(vframe.begin() + net::kHeaderBytes,
                                     vframe.end());
  vpayload.pop_back();
  EXPECT_FALSE(net::decode_verdict(
                   std::span<const std::uint8_t>(vpayload.data(),
                                                 vpayload.size()))
                   .has_value());
  vpayload.push_back(0);
  vpayload.push_back(0);
  EXPECT_FALSE(net::decode_verdict(
                   std::span<const std::uint8_t>(vpayload.data(),
                                                 vpayload.size()))
                   .has_value());
}

// ------------------------------------------------------------- publisher

// A raw subscriber socket with a deliberately tiny receive buffer so TCP
// flow control kicks in after a few KB — forcing the publisher down its
// partial-write path without megabytes of traffic.
int connect_tiny_subscriber(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

net::VerdictMsg numbered_verdict(std::uint64_t i) {
  net::VerdictMsg v;
  v.station = capture::MacAddress::for_station(static_cast<int>(i % 256));
  v.module_id = static_cast<std::int32_t>(i % 7);
  v.total_reports = i;  // sequence number: lets the reader check ordering
  return v;
}

TEST(NetPublisherTest, ShortWritesResumeWithoutCorruptingTheStream) {
  net::PublisherConfig cfg;
  cfg.sndbuf_bytes = 4096;  // with the tiny peer rcvbuf: EAGAIN after ~16KB
  net::VerdictPublisher pub(cfg);
  pub.start();
  const int fd = connect_tiny_subscriber(pub.port());
  while (pub.subscriber_count() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Publish ~56KB without reading a byte: far beyond both socket buffers,
  // so flushes MUST hit EAGAIN and park remainders (buffer budget 1 MiB —
  // nothing may be dropped, this test is about resumption).
  constexpr std::uint64_t kFrames = 1000;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    pub.publish(numbered_verdict(i));
  EXPECT_EQ(pub.stats().frames_dropped, 0u);

  // Now drain the stream and verify every frame arrives, intact and in
  // publish order, across all the partial-write seams. Generous flush
  // budget: sanitizer legs run this too.
  std::thread stopper(
      [&] { pub.stop(std::chrono::milliseconds(30000)); });
  FrameAssembler asm_;
  std::uint64_t next = 0;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;  // publisher flushed everything and closed
    asm_.append(buf, static_cast<std::size_t>(r));
    FrameAssembler::Frame frame;
    while (asm_.next(frame)) {
      const auto v = net::decode_verdict(std::span<const std::uint8_t>(
          frame.payload.data(), frame.payload.size()));
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->total_reports, next);
      ++next;
    }
  }
  stopper.join();
  ::close(fd);
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kNone);
  EXPECT_GE(pub.stats().partial_writes, 1u);
}

TEST(NetPublisherTest, SlowSubscriberDropsWholeFramesNeverBytes) {
  net::PublisherConfig cfg;
  cfg.max_buffer_bytes = 2048;  // a few dozen frames, then drops
  cfg.sndbuf_bytes = 4096;
  net::VerdictPublisher pub(cfg);
  pub.start();
  const int fd = connect_tiny_subscriber(pub.port());
  while (pub.subscriber_count() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  constexpr std::uint64_t kFrames = 5000;
  for (std::uint64_t i = 0; i < kFrames; ++i)
    pub.publish(numbered_verdict(i));
  const net::PublisherStats mid = pub.stats();
  EXPECT_GT(mid.frames_dropped, 0u);   // the slow reader shed load...
  EXPECT_LT(mid.frames_dropped, kFrames);  // ...but not everything

  std::thread stopper(
      [&] { pub.stop(std::chrono::milliseconds(30000)); });
  FrameAssembler asm_;
  std::uint64_t received = 0, last_seq = 0;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    asm_.append(buf, static_cast<std::size_t>(r));
    FrameAssembler::Frame frame;
    while (asm_.next(frame)) {
      const auto v = net::decode_verdict(std::span<const std::uint8_t>(
          frame.payload.data(), frame.payload.size()));
      // Drops must be whole frames: everything that does arrive decodes,
      // and sequence numbers only ever move forward.
      ASSERT_TRUE(v.has_value());
      if (received > 0) {
        EXPECT_GT(v->total_reports, last_seq);
      }
      last_seq = v->total_reports;
      ++received;
    }
  }
  stopper.join();
  ::close(fd);
  EXPECT_EQ(asm_.error(), FrameAssembler::Error::kNone);
  EXPECT_GT(received, 0u);
  EXPECT_EQ(received + pub.stats().frames_dropped, kFrames);
}

}  // namespace
}  // namespace deepcsi
