#include "linalg/cmat.h"

#include <algorithm>
#include <cmath>

#include "nn/simd.h"

namespace deepcsi::linalg {
namespace {

// The SIMD kernels (nn/simd.h) take interleaved re/im double rows —
// exactly the guaranteed memory layout of std::complex<double>.
inline double* flat(cplx* p) { return reinterpret_cast<double*>(p); }

}  // namespace

CMat CMat::identity(std::size_t n) { return eye(n, n); }

CMat CMat::eye(std::size_t rows, std::size_t cols) {
  CMat m(rows, cols);
  for (std::size_t i = 0; i < std::min(rows, cols); ++i) m(i, i) = 1.0;
  return m;
}

CMat CMat::diag(const std::vector<cplx>& d) {
  CMat m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

CMat CMat::random_gaussian(std::size_t rows, std::size_t cols,
                           std::mt19937_64& rng) {
  std::normal_distribution<double> n01(0.0, std::sqrt(0.5));
  CMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = cplx{n01(rng), n01(rng)};
  return m;
}

CMat CMat::transpose() const {
  CMat t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

CMat CMat::conjugate() const {
  CMat m(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) m.data_[i] = std::conj(data_[i]);
  return m;
}

CMat CMat::hermitian() const { return conjugate().transpose(); }

CMat CMat::operator-(const CMat& other) const {
  DEEPCSI_CHECK(same_shape(other));
  CMat m(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    m.data_[i] = data_[i] - other.data_[i];
  return m;
}

CMat CMat::operator*(const CMat& other) const {
  DEEPCSI_CHECK_MSG(cols_ == other.rows_, "matmul shape mismatch: "
                        << rows_ << "x" << cols_ << " * " << other.rows_ << "x"
                        << other.cols_);
  CMat m(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx a = (*this)(r, k);
      if (a == cplx{}) continue;
      for (std::size_t c = 0; c < other.cols_; ++c)
        m(r, c) += a * other(k, c);
    }
  }
  return m;
}

CMat CMat::operator*(cplx scalar) const {
  CMat m(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) m.data_[i] = data_[i] * scalar;
  return m;
}

CMat CMat::first_columns(std::size_t n) const {
  DEEPCSI_CHECK(n <= cols_);
  CMat m(rows_, n);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = (*this)(r, c);
  return m;
}

void CMat::set_column(std::size_t c, const std::vector<cplx>& v) {
  DEEPCSI_CHECK(c < cols_ && v.size() == rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

void CMat::scale_row(std::size_t r, cplx factor) {
  DEEPCSI_CHECK(r < rows_);
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) *= factor;
}

void CMat::scale_col(std::size_t c, cplx factor) {
  DEEPCSI_CHECK(c < cols_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) *= factor;
}

void CMat::set_eye(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < std::min(rows, cols); ++i) (*this)(i, i) = 1.0;
}

void CMat::apply_givens_left(std::size_t a, std::size_t b, double psi) {
  rotate_rows(a, b, std::cos(psi), std::sin(psi));
}

void CMat::rotate_rows(std::size_t a, std::size_t b, double c, double s) {
  DEEPCSI_CHECK(a < rows_ && b < rows_ && a != b);
  simd::ops().givens_left(flat(data_.data() + a * cols_),
                          flat(data_.data() + b * cols_), cols_, c, s);
}

void CMat::scale_rows_polar(std::size_t first, std::span<const double> phases) {
  DEEPCSI_CHECK(first + phases.size() <= rows_);
  for (std::size_t t = 0; t < phases.size(); ++t)
    scale_row_phasor(first + t, std::polar(1.0, phases[t]));
}

void CMat::scale_row_phasor(std::size_t r, cplx phasor) {
  DEEPCSI_CHECK(r < rows_);
  simd::ops().scale_row_polar(flat(data_.data() + r * cols_), cols_,
                              phasor.real(), phasor.imag());
}

double CMat::frobenius_norm() const {
  double s = 0.0;
  for (const auto& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

double max_abs_diff(const CMat& a, const CMat& b) {
  DEEPCSI_CHECK(a.same_shape(b));
  double s = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      s = std::max(s, std::abs(a(r, c) - b(r, c)));
  return s;
}

double orthonormality_defect(const CMat& a) {
  const CMat g = a.hermitian() * a;
  return max_abs_diff(g, CMat::identity(a.cols()));
}

bool is_unitary(const CMat& a, double tol) {
  if (a.rows() != a.cols()) return false;
  return orthonormality_defect(a) <= tol;
}

double subspace_distance(const CMat& a, const CMat& b) {
  DEEPCSI_CHECK(a.same_shape(b));
  const CMat overlap = a.hermitian() * b;
  const double f = overlap.frobenius_norm();
  const double n = static_cast<double>(a.cols());
  return std::sqrt(std::max(0.0, n - f * f));
}

}  // namespace deepcsi::linalg
