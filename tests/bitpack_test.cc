// Bit-level report packing: writer/reader primitives and full-report
// round trips for every geometry/codebook combination.
#include <gtest/gtest.h>

#include <random>

#include "feedback/bitpack.h"
#include "linalg/svd.h"

namespace deepcsi::feedback {
namespace {

TEST(BitWriterReaderTest, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0x5, 3);
  w.write(0x1FF, 9);
  w.write(0x00, 2);
  w.write(0x7F, 7);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), (3u + 9 + 2 + 7 + 7) / 8);
  BitReader r(bytes);
  EXPECT_EQ(r.read(3), 0x5u);
  EXPECT_EQ(r.read(9), 0x1FFu);
  EXPECT_EQ(r.read(2), 0x0u);
  EXPECT_EQ(r.read(7), 0x7Fu);
}

TEST(BitWriterReaderTest, RandomizedRoundTrip) {
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<std::pair<std::uint32_t, int>> values;
    for (int i = 0; i < 100; ++i) {
      const int bits = 1 + static_cast<int>(rng() % 16);
      const std::uint32_t v = static_cast<std::uint32_t>(rng()) &
                              ((1u << bits) - 1u);
      values.emplace_back(v, bits);
      w.write(v, bits);
    }
    const auto bytes = w.finish();
    BitReader r(bytes);
    for (const auto& [v, bits] : values) EXPECT_EQ(r.read(bits), v);
  }
}

// The reader loads at most three bytes per field; check it against a
// bit-at-a-time reference on random buffers, including fields that end
// exactly on the last byte and a read one bit past it.
TEST(BitReaderTest, MatchesBitByBitReference) {
  const auto reference = [](const std::vector<std::uint8_t>& bytes,
                            std::size_t at, int bits) {
    std::uint32_t out = 0;
    for (int i = 0; i < bits; ++i) {
      const std::size_t bit = at + static_cast<std::size_t>(i);
      out |= static_cast<std::uint32_t>((bytes[bit / 8] >> (bit % 8)) & 1u)
             << i;
    }
    return out;
  };
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> bytes(1 + rng() % 12);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    const std::size_t total = bytes.size() * 8;
    BitReader r(bytes);
    std::size_t at = 0;
    while (at < total) {
      int bits = 1 + static_cast<int>(rng() % 16);
      // Every other trial lands its last field exactly on the final bit.
      if (trial % 2 == 0 && at + static_cast<std::size_t>(bits) > total)
        bits = static_cast<int>(total - at);
      if (at + static_cast<std::size_t>(bits) > total) {
        EXPECT_THROW(r.read(bits), std::out_of_range);
        break;
      }
      ASSERT_EQ(r.read(bits), reference(bytes, at, bits))
          << "trial " << trial << " at bit " << at << " width " << bits;
      at += static_cast<std::size_t>(bits);
      EXPECT_EQ(r.bits_read(), at);
    }
    if (at == total) {
      EXPECT_THROW(r.read(1), std::out_of_range);
    }
  }
}

TEST(BitWriterTest, RejectsOversizedValues) {
  BitWriter w;
  EXPECT_THROW(w.write(8, 3), std::logic_error);
  EXPECT_THROW(w.write(1, 0), std::logic_error);
}

TEST(BitReaderTest, ThrowsPastEnd) {
  BitWriter w;
  w.write(0x3, 2);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.read(2), 0x3u);
  r.read(6);  // padding of the final byte
  EXPECT_THROW(r.read(1), std::out_of_range);
}

TEST(ReportSizeTest, MatchesAngleCountTimesBits) {
  // (M=3, NSS=2): 3 phi + 3 psi per sub-carrier; (9+7)*... bits.
  const QuantConfig cfg = mu_mimo_codebook_high();
  const std::size_t bits_per_sc = 3 * 9 + 3 * 7;
  EXPECT_EQ(report_payload_bytes(3, 2, 234, cfg),
            (bits_per_sc * 234 + 7) / 8);
  // (M=3, NSS=1): 2 phi + 2 psi.
  EXPECT_EQ(report_payload_bytes(3, 1, 234, cfg), (234 * (2 * 9 + 2 * 7) + 7) / 8);
}

class ReportRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ReportRoundTripTest, PackUnpackIsIdentity) {
  const auto [m, nss, high] = GetParam();
  const QuantConfig cfg = high ? mu_mimo_codebook_high() : mu_mimo_codebook_low();
  std::mt19937_64 rng(17 * m + nss);

  std::vector<int> subcarriers;
  std::vector<linalg::CMat> v;
  for (int k = -8; k < 8; ++k) {
    subcarriers.push_back(k);
    v.push_back(linalg::svd(linalg::CMat::random_gaussian(
                                static_cast<std::size_t>(m),
                                static_cast<std::size_t>(m), rng))
                    .v.first_columns(static_cast<std::size_t>(nss)));
  }
  const CompressedFeedbackReport report = compress_v_series(v, subcarriers, cfg);
  const auto bytes = pack_report(report);
  EXPECT_EQ(bytes.size(), report_payload_bytes(m, nss, subcarriers.size(), cfg));

  const CompressedFeedbackReport parsed =
      unpack_report(bytes, m, nss, subcarriers, cfg);
  ASSERT_EQ(parsed.per_subcarrier.size(), report.per_subcarrier.size());
  for (std::size_t k = 0; k < report.per_subcarrier.size(); ++k) {
    EXPECT_EQ(parsed.per_subcarrier[k].q_phi, report.per_subcarrier[k].q_phi);
    EXPECT_EQ(parsed.per_subcarrier[k].q_psi, report.per_subcarrier[k].q_psi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReportRoundTripTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(1, 2),
                       ::testing::Bool()));

TEST(ReportTest, UnpackRejectsTruncatedPayload) {
  std::vector<std::uint8_t> tiny(3, 0);
  EXPECT_THROW(unpack_report(tiny, 3, 2, {1, 2, 3, 4}, mu_mimo_codebook_high()),
               std::logic_error);
}

}  // namespace
}  // namespace deepcsi::feedback
