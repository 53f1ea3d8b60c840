// Dense complex-valued matrix used throughout the PHY / feedback layers.
//
// Channel matrices in this project are tiny (at most 4x4), so the class
// optimizes for clarity and correctness rather than cache blocking. Storage
// is row-major std::complex<double>.
#pragma once

#include <complex>
#include <cstddef>
#include <random>
#include <span>
#include <vector>

#include "common/check.h"

namespace deepcsi::linalg {

using cplx = std::complex<double>;

class CMat {
 public:
  CMat() = default;
  CMat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

  static CMat identity(std::size_t n);
  // Rectangular "identity": ones on the main diagonal, zeros elsewhere
  // (the I_{c x d} matrix of the paper's notation section).
  static CMat eye(std::size_t rows, std::size_t cols);
  static CMat diag(const std::vector<cplx>& d);
  // i.i.d. CN(0, 1) entries; used by property tests and channel models.
  static CMat random_gaussian(std::size_t rows, std::size_t cols,
                              std::mt19937_64& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  cplx& operator()(std::size_t r, std::size_t c) {
    DEEPCSI_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const cplx& operator()(std::size_t r, std::size_t c) const {
    DEEPCSI_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<cplx>& data() const { return data_; }

  CMat transpose() const;
  CMat conjugate() const;
  // Hermitian (conjugate transpose), the paper's dagger operator.
  CMat hermitian() const;

  CMat operator-(const CMat& other) const;
  CMat operator*(const CMat& other) const;  // matrix product
  CMat operator*(cplx scalar) const;

  // Columns [0, n) as a new rows() x n matrix (the V_k extraction step).
  CMat first_columns(std::size_t n) const;
  void set_column(std::size_t c, const std::vector<cplx>& v);

  // Scale row r (resp. column c) by a complex factor in place.
  void scale_row(std::size_t r, cplx factor);
  void scale_col(std::size_t c, cplx factor);

  // Reshape to rows x cols and set to the rectangular identity, reusing
  // the existing storage when capacity allows (no heap traffic in steady
  // state). The in-place rebuild entry point of the feedback codec.
  void set_eye(std::size_t rows, std::size_t cols);

  // In-place plane rotation from the left with the real Givens block of
  // Eq. (5): G(a,a) = cos psi, G(a,b) = sin psi, G(b,a) = -sin psi,
  // G(b,b) = cos psi. It touches exactly two rows — O(cols) instead of the
  // O(rows^2 * cols) of materializing G and multiplying. Pass -psi to
  // apply G^T.
  //
  // A <- G * A: row_a' = c*row_a + s*row_b, row_b' = -s*row_a + c*row_b.
  void apply_givens_left(std::size_t a, std::size_t b, double psi);
  // apply_givens_left with c = cos psi, s = sin psi already computed (the
  // table-driven feedback rebuild looks them up per angle code).
  void rotate_rows(std::size_t a, std::size_t b, double c, double s);

  // Phase scaling of the D-matrix family (Eq. (4)) without forming D:
  // row (first + t) is multiplied by e^{j * phases[t]}. Conjugate
  // (D^dagger) application is a negated-phase span at the call site.
  void scale_rows_polar(std::size_t first, std::span<const double> phases);
  // Row r multiplied by a precomputed unit phasor e^{j phase}.
  void scale_row_phasor(std::size_t r, cplx phasor);

  double frobenius_norm() const;

  bool same_shape(const CMat& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

// max_ij |a_ij - b_ij|; throws if shapes differ.
double max_abs_diff(const CMat& a, const CMat& b);

// ||A† A - I||_max; a matrix with orthonormal columns yields ~0.
double orthonormality_defect(const CMat& a);

bool is_unitary(const CMat& a, double tol = 1e-10);

// Distance between the column spaces of two matrices with orthonormal
// columns, invariant to per-column phase: sqrt(n - ||A† B||_F^2).
// Zero iff the spans coincide. Used to compare V before/after feedback
// compression, where each column is only defined up to a unit phase.
double subspace_distance(const CMat& a, const CMat& b);

}  // namespace deepcsi::linalg
