// The optimizer: Adam, as the paper trains the DeepCSI classifier.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace deepcsi::nn {

class Adam {
 public:
  struct Config {
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-7f;
  };

  explicit Adam(std::vector<Param*> params) : Adam(std::move(params), Config{}) {}
  Adam(std::vector<Param*> params, Config cfg);

  void step();
  void set_lr(float lr) { cfg_.lr = lr; }
  float lr() const { return cfg_.lr; }
  long step_count() const { return t_; }

 private:
  std::vector<Param*> params_;
  Config cfg_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

}  // namespace deepcsi::nn
