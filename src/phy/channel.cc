#include "phy/channel.h"

#include <cmath>
#include <numbers>

namespace deepcsi::phy {

using linalg::cplx;

namespace {

constexpr double kSpeedOfLight = 2.99792458e8;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

double wavelength() { return kSpeedOfLight / kCarrierFrequencyHz; }

// Antenna element positions: ULA along x centered on the array reference.
Point element_position(const Point& center, int index, int count) {
  const double spacing = wavelength() / 2.0;
  const double offset = (index - (count - 1) / 2.0) * spacing;
  return {center.x + offset, center.y, center.z};
}

struct PathSpec {
  // Either a mirror transform of the TX across a plane (image method) or a
  // bounce via a fixed scatterer point.
  enum class Kind { kDirect, kImage, kScatter } kind = Kind::kDirect;
  // For kImage: mirror axis (0=x plane, 1=y plane, 2=z plane) and plane
  // coordinate; for kScatter: bounce point.
  int axis = 0;
  double plane = 0.0;
  Point bounce;
  double reflectivity = 1.0;
};

Point mirror(const Point& p, int axis, double plane) {
  Point q = p;
  switch (axis) {
    case 0: q.x = 2.0 * plane - p.x; break;
    case 1: q.y = 2.0 * plane - p.y; break;
    default: q.z = 2.0 * plane - p.z; break;
  }
  return q;
}

std::vector<PathSpec> build_paths(const Environment& env,
                                  const std::vector<Scatterer>& extra) {
  std::vector<PathSpec> paths;
  paths.push_back({PathSpec::Kind::kDirect, 0, 0.0, {}, 1.0});
  const Room& room = env.room;
  const double wr = room.wall_reflectivity;
  paths.push_back({PathSpec::Kind::kImage, 0, 0.0, {}, wr});
  paths.push_back({PathSpec::Kind::kImage, 0, room.width, {}, wr});
  paths.push_back({PathSpec::Kind::kImage, 1, 0.0, {}, wr});
  paths.push_back({PathSpec::Kind::kImage, 1, room.depth, {}, wr});
  paths.push_back({PathSpec::Kind::kImage, 2, 0.0, {}, room.floor_reflectivity});
  paths.push_back(
      {PathSpec::Kind::kImage, 2, room.height, {}, room.floor_reflectivity});
  for (const Scatterer& s : env.clutter)
    paths.push_back({PathSpec::Kind::kScatter, 0, 0.0, s.position,
                     s.reflectivity});
  for (const Scatterer& s : extra)
    paths.push_back({PathSpec::Kind::kScatter, 0, 0.0, s.position,
                     s.reflectivity});
  return paths;
}

}  // namespace

ChannelModel::ChannelModel(const Scene& scene) : scene_(scene) {}

Cfr ChannelModel::cfr(const Point& tx, const Point& rx, int n_tx, int n_rx,
                      const std::vector<int>& subcarriers,
                      const std::vector<Scatterer>& extra,
                      const FadingParams& fading, std::mt19937_64& rng) const {
  DEEPCSI_CHECK(n_tx >= 1 && n_rx >= 1);
  DEEPCSI_CHECK(!subcarriers.empty());

  const std::vector<PathSpec> paths = build_paths(scene_.environment(), extra);
  std::normal_distribution<double> jitter(0.0, 1.0);

  Cfr out;
  out.subcarriers = subcarriers;
  out.h.assign(subcarriers.size(), CMat(n_tx, n_rx));

  const double lam = wavelength();
  const int k_min = subcarriers.front();

  for (const PathSpec& path : paths) {
    // Residual environment motion: all reflected paths wobble a little
    // between snapshots; the direct path is stable.
    double phase_wobble = 0.0, amp_wobble = 1.0;
    if (path.kind != PathSpec::Kind::kDirect) {
      phase_wobble = fading.phase_jitter * jitter(rng);
      amp_wobble = std::max(0.0, 1.0 + fading.amplitude_jitter * jitter(rng));
    }

    for (int m = 0; m < n_tx; ++m) {
      const Point tx_el = element_position(tx, m, n_tx);
      const Point tx_eff = path.kind == PathSpec::Kind::kImage
                               ? mirror(tx_el, path.axis, path.plane)
                               : tx_el;
      for (int n = 0; n < n_rx; ++n) {
        const Point rx_el = element_position(rx, n, n_rx);
        double dist;
        if (path.kind == PathSpec::Kind::kScatter) {
          dist = distance(tx_el, path.bounce) + distance(path.bounce, rx_el);
        } else {
          dist = distance(tx_eff, rx_el);
        }
        const double tau = dist / kSpeedOfLight;
        const double amp =
            path.reflectivity * amp_wobble * lam / (4.0 * std::numbers::pi * dist);

        // exp(-j 2 pi (fc + k df) tau) computed incrementally over k.
        const cplx base =
            std::polar(amp, -kTwoPi * (kCarrierFrequencyHz +
                                       k_min * kSubcarrierSpacingHz) *
                                    tau +
                                phase_wobble);
        const cplx step = std::polar(1.0, -kTwoPi * kSubcarrierSpacingHz * tau);
        cplx cur = base;
        int k_cursor = k_min;
        for (std::size_t ki = 0; ki < subcarriers.size(); ++ki) {
          const int k = subcarriers[ki];
          while (k_cursor < k) {
            cur *= step;
            ++k_cursor;
          }
          out.h[ki](m, n) += cur;
        }
      }
    }
  }
  return out;
}

}  // namespace deepcsi::phy
