// Feedback angle quantization, Eq. (8) of the paper / 802.11ac:
//
//   phi = pi * (1/2^{b_phi}   + q_phi / 2^{b_phi - 1}),  q in [0, 2^b_phi)
//   psi = pi * (1/2^{b_psi+2} + q_psi / 2^{b_psi + 1}),  q in [0, 2^b_psi)
//
// The standard-compliant configurations are (b_psi, b_phi) = (5, 7) and
// (7, 9); the testbed AP uses (7, 9).
#pragma once

#include <cstdint>
#include <vector>

#include "feedback/angles.h"

namespace deepcsi::feedback {

struct QuantConfig {
  int b_phi = 9;
  int b_psi = 7;
  bool operator==(const QuantConfig&) const = default;
};

// The two MU-MIMO codebook configurations allowed by the standard.
QuantConfig mu_mimo_codebook_high();  // (b_psi, b_phi) = (7, 9)
QuantConfig mu_mimo_codebook_low();   // (b_psi, b_phi) = (5, 7)

// Nearest-grid quantization. phi wraps modulo 2*pi; psi clamps to its
// [0, pi/2] grid.
std::uint16_t quantize_phi(double phi, int b_phi);
std::uint16_t quantize_psi(double psi, int b_psi);
double dequantize_phi(std::uint16_t q, int b_phi);
double dequantize_psi(std::uint16_t q, int b_psi);

// Quantized feedback for one sub-carrier, same ordering as BfmAngles.
struct QuantizedAngles {
  int m = 0;
  int nss = 0;
  std::vector<std::uint16_t> q_phi;
  std::vector<std::uint16_t> q_psi;
};

QuantizedAngles quantize(const BfmAngles& a, const QuantConfig& cfg);
BfmAngles dequantize(const QuantizedAngles& q, const QuantConfig& cfg);

// Convenience: full compress -> reconstruct round trip for one V matrix
// (decompose, quantize, dequantize, rebuild). This is exactly what the
// beamformer sees after the feedback exchange.
CMat quantized_vtilde(const CMat& v, const QuantConfig& cfg);

}  // namespace deepcsi::feedback
