// Ray-traced CFR model (Eq. 2): shape, determinism, frequency selectivity,
// spatial structure and fading behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "phy/channel.h"

namespace deepcsi::phy {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : scene_(0), model_(scene_) {}
  Scene scene_;
  ChannelModel model_;
  FadingParams no_fading_{0.0, 0.0};
};

TEST_F(ChannelTest, ShapeMatchesRequest) {
  std::mt19937_64 rng(1);
  const auto& sc = vht80_sounded_subcarriers();
  const Cfr cfr = model_.cfr(scene_.ap_position_a(),
                             scene_.beamformee_position(0, 1), 3, 2, sc, {},
                             no_fading_, rng);
  ASSERT_EQ(cfr.h.size(), 234u);
  EXPECT_EQ(cfr.subcarriers, sc);
  for (const auto& h : cfr.h) {
    EXPECT_EQ(h.rows(), 3u);
    EXPECT_EQ(h.cols(), 2u);
  }
}

TEST_F(ChannelTest, DeterministicWithoutFading) {
  std::mt19937_64 rng1(1), rng2(2);  // rng unused when jitter is zero
  const auto& sc = vht80_sounded_subcarriers();
  const Point tx = scene_.ap_position_a();
  const Point rx = scene_.beamformee_position(0, 3);
  const Cfr a = model_.cfr(tx, rx, 3, 2, sc, {}, no_fading_, rng1);
  const Cfr b = model_.cfr(tx, rx, 3, 2, sc, {}, no_fading_, rng2);
  for (std::size_t k = 0; k < a.h.size(); ++k)
    EXPECT_LT(linalg::max_abs_diff(a.h[k], b.h[k]), 1e-15);
}

TEST_F(ChannelTest, FadingPerturbsButOnlySlightly) {
  std::mt19937_64 rng1(1), rng2(99);
  const auto& sc = vht80_sounded_subcarriers();
  const Point tx = scene_.ap_position_a();
  const Point rx = scene_.beamformee_position(0, 3);
  const FadingParams fading;  // defaults
  const Cfr a = model_.cfr(tx, rx, 3, 2, sc, {}, fading, rng1);
  const Cfr b = model_.cfr(tx, rx, 3, 2, sc, {}, fading, rng2);
  double rel = 0.0, norm = 0.0;
  for (std::size_t k = 0; k < a.h.size(); ++k) {
    rel += (a.h[k] - b.h[k]).frobenius_norm();
    norm += a.h[k].frobenius_norm();
  }
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 0.5 * norm);  // small-scale variation, not a new channel
}

TEST_F(ChannelTest, FrequencySelectiveAcrossBand) {
  std::mt19937_64 rng(1);
  const auto& sc = vht80_sounded_subcarriers();
  const Cfr cfr = model_.cfr(scene_.ap_position_a(),
                             scene_.beamformee_position(0, 1), 3, 2, sc, {},
                             no_fading_, rng);
  // Multipath must produce magnitude variation over the 80 MHz band.
  double mn = 1e9, mx = 0.0;
  for (const auto& h : cfr.h) {
    const double v = std::abs(h(0, 0));
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx / mn, 1.05);
}

TEST_F(ChannelTest, PowerDecaysWithDistance) {
  std::mt19937_64 rng(1);
  const std::vector<int> sc{-50, 0 - 2, 50};
  const Point tx = scene_.ap_position_a();
  const Point near{tx.x, tx.y + 1.0, tx.z};
  const Point far{tx.x, tx.y + 4.0, tx.z};
  const Cfr a = model_.cfr(tx, near, 1, 1, sc, {}, no_fading_, rng);
  const Cfr b = model_.cfr(tx, far, 1, 1, sc, {}, no_fading_, rng);
  double pa = 0.0, pb = 0.0;
  for (std::size_t k = 0; k < sc.size(); ++k) {
    pa += std::norm(a.h[k](0, 0));
    pb += std::norm(b.h[k](0, 0));
  }
  EXPECT_GT(pa, pb);
}

TEST_F(ChannelTest, MovingReceiverChangesSpatialSignature) {
  std::mt19937_64 rng(1);
  const auto& sc = vht80_sounded_subcarriers();
  const Point tx = scene_.ap_position_a();
  const Cfr a = model_.cfr(tx, scene_.beamformee_position(0, 1), 3, 2, sc, {},
                           no_fading_, rng);
  const Cfr b = model_.cfr(tx, scene_.beamformee_position(0, 9), 3, 2, sc, {},
                           no_fading_, rng);
  double diff = 0.0, norm = 0.0;
  for (std::size_t k = 0; k < a.h.size(); ++k) {
    diff += (a.h[k] - b.h[k]).frobenius_norm();
    norm += a.h[k].frobenius_norm();
  }
  EXPECT_GT(diff, 0.3 * norm);
}

TEST_F(ChannelTest, ExtraScatterersContribute) {
  std::mt19937_64 rng(1);
  const std::vector<int> sc{-20, 20};
  const Point tx = scene_.ap_position_a();
  const Point rx = scene_.beamformee_position(1, 2);
  const Cfr base = model_.cfr(tx, rx, 2, 2, sc, {}, no_fading_, rng);
  const std::vector<Scatterer> person{
      {{tx.x + 0.3, tx.y - 0.4, 1.5}, 0.5}};
  const Cfr with = model_.cfr(tx, rx, 2, 2, sc, person, no_fading_, rng);
  EXPECT_GT(linalg::max_abs_diff(base.h[0], with.h[0]), 1e-8);
}

TEST_F(ChannelTest, IncrementalPhasorConsistentAcrossSubcarrierSubsets) {
  // The per-path phasor is advanced incrementally over k. Requesting a
  // sparse sub-carrier set must give bit-identical values to requesting a
  // dense set and picking out the same indices.
  std::mt19937_64 rng(1);
  const Point tx = scene_.ap_position_a();
  const Point rx = scene_.beamformee_position(1, 4);
  const std::vector<int> sparse{-122, -60, -2, 37, 122};
  std::vector<int> dense;
  for (int k = -122; k <= 122; ++k) dense.push_back(k);
  const Cfr a = model_.cfr(tx, rx, 2, 2, sparse, {}, no_fading_, rng);
  const Cfr b = model_.cfr(tx, rx, 2, 2, dense, {}, no_fading_, rng);
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    const std::size_t j = static_cast<std::size_t>(sparse[i] + 122);
    EXPECT_LT(linalg::max_abs_diff(a.h[i], b.h[j]), 1e-15) << sparse[i];
  }
}

TEST_F(ChannelTest, InvalidArgumentsThrow) {
  std::mt19937_64 rng(1);
  EXPECT_THROW(model_.cfr({0, 0, 0}, {1, 1, 1}, 0, 1, {1}, {}, no_fading_, rng),
               std::logic_error);
  EXPECT_THROW(model_.cfr({0, 0, 0}, {1, 1, 1}, 1, 1, {}, {}, no_fading_, rng),
               std::logic_error);
}

}  // namespace
}  // namespace deepcsi::phy
