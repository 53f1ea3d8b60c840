#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

namespace deepcsi::tensor {

namespace {
std::size_t product(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(product(shape_), 0.0f) {
  DEEPCSI_CHECK_MSG(!shape_.empty(), "rank-0 tensors are not supported");
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  Tensor t;
  t.shape_ = std::move(new_shape);
  DEEPCSI_CHECK_MSG(product(t.shape_) == data_.size(),
                    "reshape changes element count");
  t.data_ = data_;
  return t;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

float Tensor::max_abs() const {
  float s = 0.0f;
  for (float v : data_) s = std::max(s, std::abs(v));
  return s;
}

Tensor slice_rows(const Tensor& t, std::size_t begin, std::size_t end) {
  DEEPCSI_CHECK(begin <= end && end <= t.dim(0));
  std::vector<std::size_t> shape = t.shape();
  shape[0] = end - begin;
  Tensor out(shape);
  const std::size_t row = t.numel() / t.dim(0);
  std::copy(t.data() + begin * row, t.data() + end * row, out.data());
  return out;
}

}  // namespace deepcsi::tensor
