// Softmax + cross-entropy loss head (combined for numerical stability).
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace deepcsi::nn {

using tensor::Tensor;

struct LossResult {
  double loss = 0.0;               // mean cross-entropy over the batch
  Tensor grad_logits;              // d loss / d logits, [N, K]
  Tensor probs;                    // softmax outputs, [N, K]
  std::vector<int> predictions;    // predict_row per row
};

// logits: [N, K]; labels: N entries in [0, K).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

// Inference-only softmax (no labels required).
Tensor softmax(const Tensor& logits);

// The one prediction rule: the first argmax of softmax(row) and its
// probability, recomputed with the exact (deterministic) float ops of
// softmax() rather than read from a probability tensor. First-max
// matters: rounding can map distinct logits to one probability.
struct RowPrediction {
  int index = -1;
  float probability = 0.0f;
};
RowPrediction predict_row(const float* row, std::size_t k);

}  // namespace deepcsi::nn
