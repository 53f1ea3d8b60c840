// Minimal dense float tensor for the NN layers. Contiguous row-major
// storage; layers interpret shapes as NCHW (conv/pool/attention) or NF
// (dense). Sized for single-node CPU training of the paper's ~0.5M
// parameter classifier, so the design favors flat loops the compiler can
// vectorize over generality.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace deepcsi::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  static Tensor zeros_like(const Tensor& other) { return Tensor(other.shape_); }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t dim(std::size_t i) const {
    DEEPCSI_DCHECK(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) {
    DEEPCSI_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    DEEPCSI_DCHECK(i < data_.size());
    return data_[i];
  }

  // 4-D accessor (NCHW); bounds-checked in debug builds only.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    DEEPCSI_DCHECK(rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    DEEPCSI_DCHECK(rank() == 4);
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  void fill(float v);
  void zero() { fill(0.0f); }

  // Reinterpret the buffer with a new shape of identical element count.
  Tensor reshaped(std::vector<std::size_t> new_shape) const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  double sum() const;
  float max_abs() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

// Number of rows (dim 0) sliced view helpers: copy rows [begin, end).
Tensor slice_rows(const Tensor& t, std::size_t begin, std::size_t end);

}  // namespace deepcsi::tensor
