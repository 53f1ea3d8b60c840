// Observer-side codec: MAC addresses, CRC-32, VHT MIMO Control packing,
// Action frame round trips, pcap files and monitor filtering.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "capture/monitor.h"
#include "capture/pcap.h"
#include "capture/vht_frame.h"
#include "common/crc32.h"
#include "linalg/svd.h"
#include "phy/ofdm.h"

namespace deepcsi::capture {
namespace {

TEST(MacAddressTest, FormatsLowercaseColonHex) {
  const MacAddress mac{{0x04, 0xf0, 0x21, 0xde, 0xef, 0x07}};
  EXPECT_EQ(mac.to_string(), "04:f0:21:de:ef:07");
}

TEST(MacAddressTest, TestbedAddressing) {
  EXPECT_NE(MacAddress::for_module(0), MacAddress::for_module(1));
  EXPECT_NE(MacAddress::for_station(0), MacAddress::for_module(0));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::vector<std::uint8_t> data{'1', '2', '3', '4', '5',
                                       '6', '7', '8', '9'};
  EXPECT_EQ(common::crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(VhtMimoControlTest, PackUnpackAllFields) {
  for (int nc : {1, 2, 4}) {
    for (int nr : {1, 3, 8}) {
      for (int bw : {0, 1, 2}) {
        for (bool high : {false, true}) {
          VhtMimoControl c;
          c.nc = nc;
          c.nr = nr;
          c.bandwidth = bw;
          c.mu_feedback = true;
          c.codebook_high = high;
          c.sounding_token = 37;
          EXPECT_EQ(VhtMimoControl::unpack(c.pack()), c);
        }
      }
    }
  }
}

TEST(VhtMimoControlTest, QuantConfigFollowsCodebook) {
  VhtMimoControl c;
  c.codebook_high = true;
  EXPECT_EQ(c.quant_config().b_phi, 9);
  c.codebook_high = false;
  EXPECT_EQ(c.quant_config().b_phi, 7);
}

BeamformingActionFrame make_test_frame(int module = 2, int station = 0,
                                       bool full_band = false) {
  std::mt19937_64 rng(7);
  std::vector<int> subcarriers;
  if (full_band) {
    subcarriers = phy::vht80_sounded_subcarriers();
  } else {
    for (int k = -4; k < 4; ++k) subcarriers.push_back(k);
  }
  std::vector<linalg::CMat> v;
  for (std::size_t i = 0; i < subcarriers.size(); ++i)
    v.push_back(
        linalg::svd(linalg::CMat::random_gaussian(3, 3, rng)).v.first_columns(2));
  const auto report = feedback::compress_v_series(
      v, subcarriers, feedback::mu_mimo_codebook_high());

  BeamformingActionFrame f;
  f.ra = MacAddress::for_module(module);
  f.ta = MacAddress::for_station(station);
  f.bssid = f.ra;
  f.sequence = 1234;
  f.mimo_control.nc = 2;
  f.mimo_control.nr = 3;
  f.mimo_control.bandwidth = 2;
  f.mimo_control.sounding_token = 5;
  f.report = feedback::pack_report(report);
  return f;
}

TEST(ActionFrameTest, SerializeParseRoundTrip) {
  const BeamformingActionFrame f = make_test_frame();
  const auto bytes = f.serialize();
  const auto parsed = BeamformingActionFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ra, f.ra);
  EXPECT_EQ(parsed->ta, f.ta);
  EXPECT_EQ(parsed->bssid, f.bssid);
  EXPECT_EQ(parsed->sequence, f.sequence);
  EXPECT_EQ(parsed->mimo_control, f.mimo_control);
  EXPECT_EQ(parsed->report, f.report);
}

TEST(ActionFrameTest, CorruptedFcsRejected) {
  auto bytes = make_test_frame().serialize();
  bytes[10] ^= 0x40;  // flip a bit in the TA
  EXPECT_FALSE(BeamformingActionFrame::parse(bytes).has_value());
}

TEST(ActionFrameTest, OtherTrafficRejected) {
  EXPECT_FALSE(BeamformingActionFrame::parse({0x08, 0x00, 0x01}).has_value());
  std::vector<std::uint8_t> data_frame(64, 0);
  data_frame[0] = 0x08;  // data frame, not management
  EXPECT_FALSE(BeamformingActionFrame::parse(data_frame).has_value());
}

TEST(PcapTest, WriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/deepcsi_test.pcap";
  std::vector<CapturedPacket> packets;
  for (int i = 0; i < 5; ++i) {
    CapturedPacket p;
    p.timestamp_s = 100.0 + i * 0.25;
    p.bytes = make_test_frame(i % 3).serialize();
    packets.push_back(p);
  }
  write_pcap(path, packets);
  const auto loaded = read_pcap(path);
  ASSERT_EQ(loaded.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_NEAR(loaded[i].timestamp_s, packets[i].timestamp_s, 1e-5);
    EXPECT_EQ(loaded[i].bytes, packets[i].bytes);
  }
  std::remove(path.c_str());
}

TEST(PcapTest, ReadRejectsNonPcap) {
  const std::string path = ::testing::TempDir() + "/deepcsi_not_a.pcap";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("hello world, definitely not pcap", f);
  std::fclose(f);
  EXPECT_THROW(read_pcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(MonitorTest, FiltersBySourceAddress) {
  std::vector<CapturedPacket> packets;
  for (int i = 0; i < 6; ++i) {
    CapturedPacket p;
    p.timestamp_s = i;
    p.bytes = make_test_frame(/*module=*/1, /*station=*/i % 2,
                              /*full_band=*/true)
                  .serialize();
    packets.push_back(p);
  }
  // Add junk the monitor must skip.
  packets.push_back({3.5, {1, 2, 3, 4}});

  const auto all = observe_feedback(packets, std::nullopt);
  EXPECT_EQ(all.size(), 6u);
  const auto sta0 =
      observe_feedback(packets, MacAddress::for_station(0));
  EXPECT_EQ(sta0.size(), 3u);
  for (const auto& obs : sta0) {
    EXPECT_EQ(obs.beamformee, MacAddress::for_station(0));
    EXPECT_EQ(obs.beamformer, MacAddress::for_module(1));
  }
}

TEST(MonitorTest, ReportAnglesSurviveTheAirInterface) {
  // End-to-end: compress -> frame -> serialize -> parse -> unpack must
  // return the exact quantized angles (the observer's data = the
  // beamformee's data; this is why DeepCSI needs no SDR).
  std::mt19937_64 rng(9);
  std::vector<int> subcarriers;
  std::vector<linalg::CMat> v;
  for (int k = -4; k < 4; ++k) {
    subcarriers.push_back(k);
    v.push_back(
        linalg::svd(linalg::CMat::random_gaussian(3, 3, rng)).v.first_columns(2));
  }
  const auto report = feedback::compress_v_series(
      v, subcarriers, feedback::mu_mimo_codebook_high());

  BeamformingActionFrame f = make_test_frame();
  f.report = feedback::pack_report(report);
  const auto parsed = BeamformingActionFrame::parse(f.serialize());
  ASSERT_TRUE(parsed.has_value());
  const auto unpacked = feedback::unpack_report(
      parsed->report, 3, 2, subcarriers, feedback::mu_mimo_codebook_high());
  for (std::size_t k = 0; k < report.per_subcarrier.size(); ++k) {
    EXPECT_EQ(unpacked.per_subcarrier[k].q_phi, report.per_subcarrier[k].q_phi);
    EXPECT_EQ(unpacked.per_subcarrier[k].q_psi, report.per_subcarrier[k].q_psi);
  }
}

}  // namespace
}  // namespace deepcsi::capture
