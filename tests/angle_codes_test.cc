// The flat report form (AngleCodes) and the table-driven Vtilde rebuild.
// The reference is the angle path: reconstruct_v_into(dequantize(...)).
// Vtilde and the DNN features from the flat report, from the nested
// report and from that reference must be bit-identical for both
// codebooks, every geometry up to four TX antennas, the extreme codes 0
// and 2^b - 1, and every SIMD backend the host can run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include "dataset/features.h"
#include "feedback/angle_codes.h"
#include "phy/ofdm.h"
#include "test_util.h"

namespace deepcsi::feedback {
namespace {

using tests::BackendGuard;

// A report over the 234 sounded 80 MHz sub-carriers with random codes;
// sub-carrier 0 carries all-zero codes and sub-carrier 1 all-max codes.
CompressedFeedbackReport random_report(int m, int nss, const QuantConfig& cfg,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CompressedFeedbackReport r;
  r.quant = cfg;
  r.m = m;
  r.nss = nss;
  r.subcarriers = phy::vht80_sounded_subcarriers();
  const std::size_t n = num_angles(m, nss);
  for (std::size_t k = 0; k < r.subcarriers.size(); ++k) {
    const auto pick = [&](int bits) {
      const std::uint16_t max = static_cast<std::uint16_t>((1 << bits) - 1);
      if (k == 0) return std::uint16_t{0};
      if (k == 1) return max;
      return static_cast<std::uint16_t>(rng() % (max + 1u));
    };
    QuantizedAngles qa;
    qa.m = m;
    qa.nss = nss;
    for (std::size_t a = 0; a < n; ++a) {
      qa.q_phi.push_back(pick(cfg.b_phi));
      qa.q_psi.push_back(pick(cfg.b_psi));
    }
    r.per_subcarrier.push_back(std::move(qa));
  }
  return r;
}

bool bit_equal(const CMat& a, const CMat& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(linalg::cplx)) == 0;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The feature layout of dataset::fill_features, built from the reference
// reconstruction.
std::vector<float> reference_features(const CompressedFeedbackReport& r,
                                      const dataset::InputSpec& spec) {
  const std::vector<std::size_t> band = phy::subband_positions(spec.band);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < band.size();
       i += static_cast<std::size_t>(spec.subcarrier_stride))
    positions.push_back(band[i]);
  const std::size_t w = positions.size();
  std::vector<float> out(
      static_cast<std::size_t>(dataset::num_input_channels(spec)) * w);
  CMat v;
  for (std::size_t i = 0; i < w; ++i) {
    reconstruct_v_into(dequantize(r.per_subcarrier[positions[i]], r.quant),
                       &v);
    std::size_t ch = 0;
    for (int row = 0; row < spec.num_antennas; ++row) {
      const linalg::cplx e = v(static_cast<std::size_t>(row),
                               static_cast<std::size_t>(spec.stream));
      out[ch++ * w + i] = static_cast<float>(e.real());
      if (row != r.m - 1) out[ch++ * w + i] = static_cast<float>(e.imag());
    }
  }
  return out;
}

const QuantConfig kCodebooks[] = {mu_mimo_codebook_high(),
                                  mu_mimo_codebook_low()};

TEST(AngleCodesTest, FlatFormKeepsEverySubcarrierAndCode) {
  const CompressedFeedbackReport r =
      random_report(4, 3, mu_mimo_codebook_high(), 1);
  const AngleCodes codes(r);
  EXPECT_EQ(codes.m(), 4);
  EXPECT_EQ(codes.nss(), 3);
  EXPECT_EQ(codes.quant(), r.quant);
  ASSERT_EQ(codes.num_subcarriers(), r.subcarriers.size());
  for (std::size_t k = 0; k < r.subcarriers.size(); ++k) {
    EXPECT_EQ(codes.subcarrier(k), r.subcarriers[k]);
    for (std::size_t a = 0; a < num_angles(4, 3); ++a) {
      EXPECT_EQ(codes.phi(k)[a], r.per_subcarrier[k].q_phi[a]);
      EXPECT_EQ(codes.psi(k)[a], r.per_subcarrier[k].q_psi[a]);
    }
  }
}

TEST(AngleCodesTest, RejectsInconsistentGeometry) {
  CompressedFeedbackReport r = random_report(3, 2, mu_mimo_codebook_low(), 2);
  r.per_subcarrier[5].q_psi.pop_back();
  EXPECT_THROW(AngleCodes{r}, std::logic_error);
  r = random_report(3, 2, mu_mimo_codebook_low(), 2);
  r.subcarriers.pop_back();
  EXPECT_THROW(AngleCodes{r}, std::logic_error);
}

TEST(AngleCodesTest, VtildeFromCodesMatchesDequantizeReference) {
  BackendGuard guard;
  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    for (const QuantConfig& cfg : kCodebooks) {
      const AngleTables& tables = angle_tables(cfg);
      for (int m = 1; m <= 4; ++m) {
        for (int nss = 1; nss <= m; ++nss) {
          const CompressedFeedbackReport r = random_report(m, nss, cfg, 3);
          const AngleCodes codes(r);
          CMat from_codes, reference;
          for (std::size_t k = 0; k < codes.num_subcarriers(); ++k) {
            reconstruct_v_codes(codes.phi(k), codes.psi(k), m, nss, tables,
                                &from_codes);
            reconstruct_v_into(dequantize(r.per_subcarrier[k], cfg),
                               &reference);
            ASSERT_TRUE(bit_equal(from_codes, reference))
                << simd::name(backend) << " b_phi=" << cfg.b_phi
                << " m=" << m << " nss=" << nss << " k=" << k;
          }
        }
      }
    }
  }
}

// One geometry has no valid feature spec: with m = 1 the only antenna row
// is the real-valued last one, which num_input_channels never describes
// alone. The Vtilde test above covers it.
TEST(AngleCodesTest, FeaturesFlatNestedAndReferenceAreBitIdentical) {
  BackendGuard guard;
  for (const simd::Backend backend : tests::available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    for (const QuantConfig& cfg : kCodebooks) {
      for (int m = 2; m <= 4; ++m) {
        for (int nss = 1; nss <= m; ++nss) {
          const CompressedFeedbackReport r = random_report(m, nss, cfg, 4);
          const AngleCodes codes(r);
          for (int stream = 0; stream < nss; ++stream) {
            dataset::InputSpec spec;
            spec.stream = stream;
            // All rows when the last (real) one is the model's last TX
            // antenna, otherwise complex rows only.
            spec.num_antennas = std::min(m - 1, dataset::kNumTxAntennas - 1);
            if (m == dataset::kNumTxAntennas) spec.num_antennas = m;
            const std::vector<float> ref = reference_features(r, spec);
            std::vector<float> nested(ref.size()), flat(ref.size());
            dataset::fill_features(r, spec, nested.data());
            dataset::fill_features(codes, spec, flat.data());
            ASSERT_TRUE(bit_equal(nested, ref))
                << simd::name(backend) << " m=" << m << " nss=" << nss;
            ASSERT_TRUE(bit_equal(flat, ref))
                << simd::name(backend) << " m=" << m << " nss=" << nss;

            // Offset correction post-processes the same rows: flat and
            // nested must still agree bit for bit.
            spec.offset_correction = true;
            dataset::fill_features(r, spec, nested.data());
            dataset::fill_features(codes, spec, flat.data());
            ASSERT_TRUE(bit_equal(nested, flat));
          }
        }
      }
    }
  }
}

TEST(AngleCodesTest, OutOfRangeCodeIsRefused) {
  CompressedFeedbackReport r = random_report(3, 1, mu_mimo_codebook_low(), 5);
  r.per_subcarrier[0].q_phi[0] = 1 << r.quant.b_phi;
  dataset::InputSpec spec;
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  std::vector<float> out(c * dataset::num_input_columns(spec));
  EXPECT_THROW(dataset::fill_features(r, spec, out.data()), std::logic_error);
  EXPECT_THROW(dataset::fill_features(AngleCodes(r), spec, out.data()),
               std::logic_error);
}

TEST(AngleCodesTest, TablesAreSharedAcrossThreads) {
  const AngleTables* here = &angle_tables(mu_mimo_codebook_high());
  const AngleTables* there = nullptr;
  std::thread t([&] { there = &angle_tables(mu_mimo_codebook_high()); });
  t.join();
  EXPECT_EQ(here, there);
  EXPECT_NE(here, &angle_tables(mu_mimo_codebook_low()));
  EXPECT_EQ(here->phi.size(), 512u);
  EXPECT_EQ(here->psi_cos.size(), 128u);
}

}  // namespace
}  // namespace deepcsi::feedback
