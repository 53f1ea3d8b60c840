// Compressed beamforming feedback: Algorithm 1 of the paper (the
// 802.11ac/ax Givens-rotation decomposition of the per-sub-carrier
// beamforming matrix V_k into phi/psi angles) and its inverse, Eq. (7).
//
// Conventions follow the paper exactly (indices there are 1-based):
//   - V_k is M x NSS with orthonormal columns (first NSS right-singular
//     vectors of H_k^T, Eq. (3));
//   - Dtilde_k normalizes the last row of V_k to be real non-negative;
//     it is NOT fed back (beamforming performance is unchanged);
//   - for i = 1..min(NSS, M-1): phi_{l,i} (l = i..M-1) remove the phases
//     of column i, then psi_{l,i} (l = i+1..M) are Givens angles zeroing
//     the sub-diagonal entries;
//   - Vtilde_k = prod_i ( D_{k,i} prod_{l=i+1..M} G^T_{k,l,i} ) I_{MxNSS}.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/cmat.h"

namespace deepcsi::feedback {

using linalg::CMat;
using linalg::cplx;

// Feedback angles for a single sub-carrier. phi in [0, 2*pi), psi in
// [0, pi/2]; both stored in the loop order of Algorithm 1 (per-i groups,
// ascending l inside each group).
struct BfmAngles {
  int m = 0;    // number of TX antennas (rows of V)
  int nss = 0;  // number of spatial streams (columns of V)
  std::vector<double> phi;
  std::vector<double> psi;
};

// Number of phi (= number of psi) angles for an (m, nss) feedback:
// sum_{i=1}^{min(nss, m-1)} (m - i).
std::size_t num_angles(int m, int nss);

// Algorithm 1. `v` must have orthonormal columns (tolerances apply); the
// returned angles reconstruct Vtilde = V * Dtilde^dagger exactly. The
// D^dagger and G steps are applied as in-place row operations on one
// working copy of V — O(M * NSS) per rotation, no intermediate matrices.
BfmAngles decompose_v(const CMat& v);

// Eq. (7): rebuild the M x NSS Vtilde from the angles. By construction the
// last row is real and non-negative.
CMat reconstruct_v(const BfmAngles& angles);

// reconstruct_v writing into caller-owned storage: `out` is reshaped with
// set_eye (reusing its heap block in steady state) and the D / G^T factors
// are applied as in-place rotations directly on the M x NSS matrix. The
// per-report feature path runs the same sequence from angle codes with
// table cos/sin (reconstruct_v_codes, feedback/angle_codes.h); this form
// is its bit-exact reference.
void reconstruct_v_into(const BfmAngles& angles, CMat* out);

// The literal matrix-product form of Eq. (7): multiplies explicit
// d_matrix / g_matrix factors into an M x M accumulator and slices
// I_{M x NSS}. Kept as the reference implementation for the property
// tests and the ingest benchmark's before/after comparison; the rotation
// kernels above must match it to floating-point roundoff.
CMat reconstruct_v_reference(const BfmAngles& angles);

// First NSS right-singular vectors of H^T per sub-carrier (Eq. (3)):
// h_per_k holds M x N CFR matrices; requires nss <= min(m, n).
std::vector<CMat> beamforming_v(const std::vector<CMat>& h_per_k, int nss);

// D_{k,i} (Eq. (4)) and G_{k,l,i} (Eq. (5)) as explicit matrices; exposed
// for tests. Indices i, l are 1-based as in the paper.
CMat d_matrix(int m, int i, const std::vector<double>& phi_col);
CMat g_matrix(int m, int l, int i, double psi);

}  // namespace deepcsi::feedback
