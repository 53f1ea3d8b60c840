#include "core/model.h"

#include <random>

#include "common/check.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pool.h"

namespace deepcsi::core {

std::vector<int> default_kernels(int conv_layers) {
  DEEPCSI_CHECK(conv_layers >= 1);
  std::vector<int> k(static_cast<std::size_t>(conv_layers), 7);
  if (conv_layers >= 2) k[static_cast<std::size_t>(conv_layers) - 1] = 3;
  if (conv_layers >= 3) k[static_cast<std::size_t>(conv_layers) - 2] = 5;
  return k;
}

ModelConfig paper_model_config() { return ModelConfig{}; }

ModelConfig quick_model_config() {
  ModelConfig cfg;
  cfg.conv_layers = 3;
  cfg.filters = 32;
  cfg.kernel_widths = default_kernels(3);
  cfg.dense = {64, 32};
  cfg.dropout = {0.3f, 0.1f};
  return cfg;
}

nn::Sequential build_deepcsi_model(int in_channels, int width,
                                   int num_classes, const ModelConfig& cfg) {
  DEEPCSI_CHECK(in_channels >= 1 && width >= 2 && num_classes >= 2);
  DEEPCSI_CHECK(cfg.conv_layers >= 1 && cfg.filters >= 1);
  DEEPCSI_CHECK(cfg.dense.size() == cfg.dropout.size());

  std::vector<int> kernels = cfg.kernel_widths;
  kernels.resize(static_cast<std::size_t>(cfg.conv_layers), 7);

  std::mt19937_64 rng(cfg.init_seed);
  nn::Sequential model;

  int ch = in_channels;
  int w = width;
  for (int i = 0; i < cfg.conv_layers; ++i) {
    model.emplace<nn::Conv2d>(static_cast<std::size_t>(ch),
                              static_cast<std::size_t>(cfg.filters),
                              static_cast<std::size_t>(kernels[static_cast<std::size_t>(i)]),
                              rng);
    model.emplace<nn::Selu>();
    if (w >= 2) {
      model.emplace<nn::MaxPool2d>();
      w /= 2;
    }
    ch = cfg.filters;
  }

  model.emplace<nn::SpatialAttention>(
      rng, static_cast<std::size_t>(cfg.attention_kernel));
  model.emplace<nn::Flatten>();

  int features = ch * w;
  for (std::size_t i = 0; i < cfg.dense.size(); ++i) {
    model.emplace<nn::Dense>(static_cast<std::size_t>(features),
                             static_cast<std::size_t>(cfg.dense[i]), rng);
    model.emplace<nn::Selu>();
    model.emplace<nn::AlphaDropout>(cfg.dropout[i], cfg.init_seed + 91 + i);
    features = cfg.dense[i];
  }
  model.emplace<nn::Dense>(static_cast<std::size_t>(features),
                           static_cast<std::size_t>(num_classes), rng);
  return model;
}

}  // namespace deepcsi::core
