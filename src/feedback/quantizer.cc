#include "feedback/quantizer.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace deepcsi::feedback {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

void check_bits(int b) { DEEPCSI_CHECK_MSG(b >= 1 && b <= 12, "bad bit width"); }

}  // namespace

QuantConfig mu_mimo_codebook_high() { return QuantConfig{9, 7}; }
QuantConfig mu_mimo_codebook_low() { return QuantConfig{7, 5}; }

std::uint16_t quantize_phi(double phi, int b_phi) {
  check_bits(b_phi);
  const double step = kPi / static_cast<double>(1 << (b_phi - 1));
  const double origin = kPi / static_cast<double>(1 << b_phi);
  double a = std::fmod(phi, kTwoPi);
  if (a < 0.0) a += kTwoPi;
  const long q = std::lround((a - origin) / step);
  const long levels = 1L << b_phi;
  return static_cast<std::uint16_t>(((q % levels) + levels) % levels);
}

std::uint16_t quantize_psi(double psi, int b_psi) {
  check_bits(b_psi);
  const double step = kPi / static_cast<double>(1 << (b_psi + 1));
  const double origin = kPi / static_cast<double>(1 << (b_psi + 2));
  long q = std::lround((psi - origin) / step);
  const long levels = 1L << b_psi;
  if (q < 0) q = 0;
  if (q >= levels) q = levels - 1;
  return static_cast<std::uint16_t>(q);
}

double dequantize_phi(std::uint16_t q, int b_phi) {
  check_bits(b_phi);
  DEEPCSI_CHECK(q < (1 << b_phi));
  return kPi * (1.0 / static_cast<double>(1 << b_phi) +
                static_cast<double>(q) / static_cast<double>(1 << (b_phi - 1)));
}

double dequantize_psi(std::uint16_t q, int b_psi) {
  check_bits(b_psi);
  DEEPCSI_CHECK(q < (1 << b_psi));
  return kPi * (1.0 / static_cast<double>(1 << (b_psi + 2)) +
                static_cast<double>(q) / static_cast<double>(1 << (b_psi + 1)));
}

QuantizedAngles quantize(const BfmAngles& a, const QuantConfig& cfg) {
  QuantizedAngles q;
  q.m = a.m;
  q.nss = a.nss;
  q.q_phi.reserve(a.phi.size());
  q.q_psi.reserve(a.psi.size());
  for (double phi : a.phi) q.q_phi.push_back(quantize_phi(phi, cfg.b_phi));
  for (double psi : a.psi) q.q_psi.push_back(quantize_psi(psi, cfg.b_psi));
  return q;
}

BfmAngles dequantize(const QuantizedAngles& q, const QuantConfig& cfg) {
  BfmAngles a;
  a.m = q.m;
  a.nss = q.nss;
  a.phi.reserve(q.q_phi.size());
  a.psi.reserve(q.q_psi.size());
  for (std::uint16_t v : q.q_phi)
    a.phi.push_back(dequantize_phi(v, cfg.b_phi));
  for (std::uint16_t v : q.q_psi)
    a.psi.push_back(dequantize_psi(v, cfg.b_psi));
  return a;
}

CMat quantized_vtilde(const CMat& v, const QuantConfig& cfg) {
  return reconstruct_v(dequantize(quantize(decompose_v(v), cfg), cfg));
}

}  // namespace deepcsi::feedback
