// The serving path's report form: one compressed beamforming report as a
// single flat buffer of angle codes, plus the table-driven rebuild of
// Vtilde from those codes.
//
// CompressedFeedbackReport (bitpack.h) nests one QuantizedAngles per
// sub-carrier, each with two heap vectors — about 470 allocations for a
// 234-sub-carrier report. AngleCodes holds the same content — geometry,
// codebook, sub-carrier list and every phi/psi code — in one contiguous
// uint16_t buffer, so a queued report is one heap block.
//
// A codebook has only 2^b_phi phi values and 2^b_psi psi values, so the
// cos/sin each rotation of Eq. (7) needs is looked up in per-codebook
// tables (angle_tables) instead of being computed per report. Every
// entry is today's expression for that code, so the rebuilt Vtilde is
// bit-identical to reconstruct_v_into(dequantize(...)).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "feedback/bitpack.h"
#include "linalg/cmat.h"

namespace deepcsi::feedback {

class AngleCodes {
 public:
  AngleCodes() = default;
  // Flattens a nested report, copying its codes verbatim. Checks that the
  // geometry is consistent across sub-carriers and that every sub-carrier
  // index fits the buffer's 16-bit slots.
  explicit AngleCodes(const CompressedFeedbackReport& report);

  const QuantConfig& quant() const { return quant_; }
  int m() const { return m_; }
  int nss() const { return nss_; }
  std::size_t num_subcarriers() const { return num_sc_; }

  // Sub-carrier index of position k (ascending, as on the air).
  int subcarrier(std::size_t k) const;
  // The num_angles(m, nss) phi (resp. psi) codes of position k, in
  // BfmAngles order.
  const std::uint16_t* phi(std::size_t k) const;
  const std::uint16_t* psi(std::size_t k) const;

 private:
  QuantConfig quant_;
  int m_ = 0;
  int nss_ = 0;
  std::size_t angles_ = 0;
  std::size_t num_sc_ = 0;
  // [num_sc_ sub-carrier indices as int16][num_sc_ x (angles_ phi codes,
  // angles_ psi codes)].
  std::vector<std::uint16_t> buf_;
};

// cos/sin of every dequantized angle of one codebook, in the exact form
// the rotation kernels consume: phi[q] = std::polar(1.0, dequantize_phi(q))
// and psi_cos/psi_sin[q] = cos/sin(-dequantize_psi(q)) (the G^T factor).
struct AngleTables {
  std::vector<std::complex<double>> phi;
  std::vector<double> psi_cos;
  std::vector<double> psi_sin;
};

// The process-wide tables for `cfg`, built on first use and shared by
// every thread afterwards.
const AngleTables& angle_tables(const QuantConfig& cfg);

// Eq. (7) for one sub-carrier from its codes: the same set_eye + Givens +
// phase-row sequence as reconstruct_v_into, with cos/sin read from `t`.
// `out` is reshaped to m x nss and reuses its storage.
void reconstruct_v_codes(const std::uint16_t* q_phi,
                         const std::uint16_t* q_psi, int m, int nss,
                         const AngleTables& t, linalg::CMat* out);

}  // namespace deepcsi::feedback
