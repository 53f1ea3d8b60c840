#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace deepcsi::nn {

Adam::Adam(std::vector<Param*> params, Config cfg)
    : params_(std::move(params)), cfg_(cfg) {
  DEEPCSI_CHECK(!params_.empty());
  for (Param* p : params_) {
    m_.push_back(Tensor::zeros_like(p->value));
    v_.push_back(Tensor::zeros_like(p->value));
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    float* __restrict w = p.value.data();
    const float* __restrict g = p.grad.data();
    float* __restrict m = m_[i].data();
    float* __restrict v = v_[i].data();
    const std::size_t n = p.value.numel();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = cfg_.beta1 * m[j] + (1.0f - cfg_.beta1) * g[j];
      v[j] = cfg_.beta2 * v[j] + (1.0f - cfg_.beta2) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
  }
}

}  // namespace deepcsi::nn
