#include "feedback/angle_codes.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "common/check.h"

namespace deepcsi::feedback {

AngleCodes::AngleCodes(const CompressedFeedbackReport& report)
    : quant_(report.quant),
      m_(report.m),
      nss_(report.nss),
      angles_(num_angles(report.m, report.nss)),
      num_sc_(report.subcarriers.size()) {
  DEEPCSI_CHECK(report.per_subcarrier.size() == num_sc_);
  buf_.resize(num_sc_ * (1 + 2 * angles_));
  std::uint16_t* codes = buf_.data() + num_sc_;
  for (std::size_t k = 0; k < num_sc_; ++k) {
    const int sc = report.subcarriers[k];
    DEEPCSI_CHECK(sc >= std::numeric_limits<std::int16_t>::min() &&
                  sc <= std::numeric_limits<std::int16_t>::max());
    buf_[k] = static_cast<std::uint16_t>(static_cast<std::int16_t>(sc));
    const QuantizedAngles& qa = report.per_subcarrier[k];
    DEEPCSI_CHECK(qa.m == m_ && qa.nss == nss_);
    DEEPCSI_CHECK(qa.q_phi.size() == angles_ && qa.q_psi.size() == angles_);
    codes = std::copy(qa.q_phi.begin(), qa.q_phi.end(), codes);
    codes = std::copy(qa.q_psi.begin(), qa.q_psi.end(), codes);
  }
}

int AngleCodes::subcarrier(std::size_t k) const {
  DEEPCSI_DCHECK(k < num_sc_);
  return static_cast<std::int16_t>(buf_[k]);
}

const std::uint16_t* AngleCodes::phi(std::size_t k) const {
  DEEPCSI_DCHECK(k < num_sc_);
  return buf_.data() + num_sc_ + k * 2 * angles_;
}

const std::uint16_t* AngleCodes::psi(std::size_t k) const {
  return phi(k) + angles_;
}

const AngleTables& angle_tables(const QuantConfig& cfg) {
  // One slot per (b_phi, b_psi) pair the quantizer accepts (1..12 bits).
  constexpr int kWidths = 13;
  DEEPCSI_CHECK(cfg.b_phi >= 1 && cfg.b_phi < kWidths);
  DEEPCSI_CHECK(cfg.b_psi >= 1 && cfg.b_psi < kWidths);
  static std::array<std::once_flag, kWidths * kWidths> once;
  static std::array<std::unique_ptr<const AngleTables>, kWidths * kWidths>
      tables;
  const std::size_t slot =
      static_cast<std::size_t>(cfg.b_phi * kWidths + cfg.b_psi);
  std::call_once(once[slot], [&] {
    auto t = std::make_unique<AngleTables>();
    for (int q = 0; q < (1 << cfg.b_phi); ++q)
      t->phi.push_back(std::polar(
          1.0, dequantize_phi(static_cast<std::uint16_t>(q), cfg.b_phi)));
    for (int q = 0; q < (1 << cfg.b_psi); ++q) {
      const double psi =
          -dequantize_psi(static_cast<std::uint16_t>(q), cfg.b_psi);
      t->psi_cos.push_back(std::cos(psi));
      t->psi_sin.push_back(std::sin(psi));
    }
    tables[slot] = std::move(t);
  });
  return *tables[slot];
}

void reconstruct_v_codes(const std::uint16_t* q_phi,
                         const std::uint16_t* q_psi, int m, int nss,
                         const AngleTables& t, linalg::CMat* out) {
  // Factor order of reconstruct_v_into: groups i = imax..1, within each
  // the G^T_{l,i} for l = M..i+1, then D_i. Group i's angles start at
  // `base`; walking the groups downwards peels (m - i) off the total.
  out->set_eye(static_cast<std::size_t>(m), static_cast<std::size_t>(nss));
  std::size_t base = num_angles(m, nss);
  const int imax = std::min(nss, m - 1);
  for (int i = imax; i >= 1; --i) {
    base -= static_cast<std::size_t>(m - i);
    for (int l = m; l >= i + 1; --l) {
      const std::uint16_t q = q_psi[base + static_cast<std::size_t>(l - i - 1)];
      DEEPCSI_CHECK(q < t.psi_cos.size());
      out->rotate_rows(static_cast<std::size_t>(i - 1),
                       static_cast<std::size_t>(l - 1), t.psi_cos[q],
                       t.psi_sin[q]);
    }
    for (int r = 0; r < m - i; ++r) {
      const std::uint16_t q = q_phi[base + static_cast<std::size_t>(r)];
      DEEPCSI_CHECK(q < t.phi.size());
      out->scale_row_phasor(static_cast<std::size_t>(i - 1 + r), t.phi[q]);
    }
  }
}

}  // namespace deepcsi::feedback
