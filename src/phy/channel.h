// Geometric multipath channel model per the paper's Eq. (2):
//
//   [H]_{k,m,n} = sum_p A_{m,n,p} * exp(-j 2 pi (fc + k/T) tau_{m,n,p})
//
// Paths are the direct ray, first-order wall/floor/ceiling reflections
// (image method) and single bounces off static clutter plus any extra
// scatterers (e.g. the person walking the AP during dataset D2). Antennas
// are half-wavelength ULAs; per-element distances are computed exactly, so
// beam structure and near-field effects fall out of the geometry.
//
// This plays the role of the over-the-air channel of the measurement
// campaign (see DESIGN.md, substitutions table).
#pragma once

#include <random>
#include <vector>

#include "linalg/cmat.h"
#include "phy/geometry.h"
#include "phy/ofdm.h"

namespace deepcsi::phy {

using linalg::CMat;

// Channel frequency response for all sounded sub-carriers: h[k] is the
// M x N matrix for the k-th entry of `subcarriers`.
struct Cfr {
  std::vector<int> subcarriers;
  std::vector<CMat> h;
  std::size_t num_subcarriers() const { return subcarriers.size(); }
};

struct FadingParams {
  // Per-snapshot residual motion: random phase jitter (radians std-dev) and
  // relative amplitude jitter applied to each non-direct path.
  double phase_jitter = 0.12;
  double amplitude_jitter = 0.04;
};

class ChannelModel {
 public:
  explicit ChannelModel(const Scene& scene);

  // True CFR between a TX array at `tx` and an RX array at `rx`
  // (ULAs along x, lambda/2 spacing). `extra` adds scene-specific
  // scatterers; `rng` drives the per-snapshot fading draw.
  Cfr cfr(const Point& tx, const Point& rx, int n_tx, int n_rx,
          const std::vector<int>& subcarriers,
          const std::vector<Scatterer>& extra, const FadingParams& fading,
          std::mt19937_64& rng) const;

 private:
  const Scene& scene_;
};

}  // namespace deepcsi::phy
