// Finite-difference gradient checks for every layer's hand-written
// backward pass, and for full-model composition. A scalar loss
// L = sum(R (.) layer(x)) with fixed random R exposes both input and
// parameter gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/pool.h"

namespace deepcsi::nn {
namespace {

Tensor random_tensor(const std::vector<std::size_t>& shape,
                     std::mt19937_64& rng, float scale = 1.0f) {
  Tensor t(shape);
  std::normal_distribution<float> dist(0.0f, scale);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = dist(rng);
  return t;
}

// Checks d(sum(R.layer(x)))/dx and /dparams via central differences.
void check_layer_gradients(Layer& layer, Tensor x, std::mt19937_64& rng,
                           float eps = 1e-2f, float tol = 4e-2f) {
  const Tensor y0 = layer.forward(x, /*training=*/false);
  const Tensor r = random_tensor(y0.shape(), rng);

  auto loss = [&](const Tensor& input) {
    const Tensor y = layer.forward(input, false);
    double s = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i)
      s += static_cast<double>(y[i]) * static_cast<double>(r[i]);
    return s;
  };

  // Analytic gradients.
  for (Param* p : layer.params()) p->grad.zero();
  layer.forward(x, false);
  const Tensor dx = layer.backward(r);

  // Input gradient.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float keep = x[i];
    x[i] = keep + eps;
    const double lp = loss(x);
    x[i] = keep - eps;
    const double lm = loss(x);
    x[i] = keep;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "input grad element " << i;
  }

  // Parameter gradients.
  for (Param* p : layer.params()) {
    // Re-run analytic pass to isolate this parameter's gradient.
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      const float keep = p->value[i];
      p->value[i] = keep + eps;
      const double lp = loss(x);
      p->value[i] = keep - eps;
      const double lm = loss(x);
      p->value[i] = keep;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol * std::max(1.0, std::abs(numeric)))
          << "param grad element " << i;
    }
  }
}

TEST(GradCheckTest, Dense) {
  std::mt19937_64 rng(1);
  Dense layer(5, 4, rng);
  check_layer_gradients(layer, random_tensor({3, 5}, rng), rng);
}

TEST(GradCheckTest, Conv2dSingleChannel) {
  std::mt19937_64 rng(2);
  Conv2d layer(1, 1, 3, rng);
  check_layer_gradients(layer, random_tensor({2, 1, 1, 7}, rng), rng);
}

TEST(GradCheckTest, Conv2dMultiChannel) {
  std::mt19937_64 rng(3);
  Conv2d layer(3, 4, 5, rng);
  check_layer_gradients(layer, random_tensor({2, 3, 1, 9}, rng), rng);
}

TEST(GradCheckTest, Selu) {
  std::mt19937_64 rng(5);
  Selu layer;
  // Keep values away from 0 where SELU's second derivative is large.
  Tensor x = random_tensor({2, 9}, rng);
  for (std::size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 0.15f) x[i] = 0.3f;
  check_layer_gradients(layer, x, rng, /*eps=*/1e-3f);
}

TEST(GradCheckTest, MaxPool) {
  std::mt19937_64 rng(6);
  MaxPool2d layer;
  // Spread values so eps-perturbations cannot flip the argmax.
  Tensor x({1, 2, 1, 8});
  std::vector<float> vals{5.0f, 1.0f, 7.0f, 2.0f, 9.0f, 3.0f, 8.0f, 0.0f,
                          4.0f, 6.0f, 2.5f, 7.5f, 1.5f, 9.5f, 0.5f, 3.5f};
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = vals[i];
  check_layer_gradients(layer, x, rng);
}

TEST(GradCheckTest, SpatialAttention) {
  std::mt19937_64 rng(7);
  SpatialAttention layer(rng);
  // Keep channel maxima unambiguous so the max is locally smooth.
  Tensor x({1, 3, 1, 6});
  std::mt19937_64 vrng(8);
  std::uniform_real_distribution<float> u(0.1f, 1.0f);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t w = 0; w < 6; ++w)
      x.at4(0, c, 0, w) = u(vrng) + (c == w % 3 ? 2.0f : 0.0f);
  check_layer_gradients(layer, x, rng, /*eps=*/1e-2f, /*tol=*/6e-2f);
}

TEST(GradCheckTest, Flatten) {
  std::mt19937_64 rng(9);
  Flatten layer;
  check_layer_gradients(layer, random_tensor({2, 2, 1, 3}, rng), rng);
}

TEST(GradCheckTest, SoftmaxCrossEntropyLoss) {
  std::mt19937_64 rng(10);
  Tensor logits = random_tensor({4, 5}, rng, 2.0f);
  const std::vector<int> labels{0, 3, 2, 4};
  const LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const float keep = logits[i];
    logits[i] = keep + eps;
    const double lp = softmax_cross_entropy(logits, labels).loss;
    logits[i] = keep - eps;
    const double lm = softmax_cross_entropy(logits, labels).loss;
    logits[i] = keep;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(res.grad_logits[i], numeric, 2e-3);
  }
}

TEST(GradCheckTest, FullModelComposition) {
  // End-to-end: conv -> selu -> pool -> attention -> flatten -> dense,
  // with the cross-entropy head. Verifies gradient flow across layer
  // boundaries, not just within layers.
  std::mt19937_64 rng(11);
  Sequential model;
  model.emplace<Conv2d>(2, 3, 3, rng);
  model.emplace<Selu>();
  model.emplace<MaxPool2d>();
  model.emplace<SpatialAttention>(rng);
  model.emplace<Flatten>();
  model.emplace<Dense>(3 * 4, 3, rng);

  Tensor x = random_tensor({2, 2, 1, 8}, rng);
  const std::vector<int> labels{0, 2};

  auto loss = [&]() {
    return softmax_cross_entropy(model.forward(x, false), labels).loss;
  };

  model.zero_grad();
  const LossResult res =
      softmax_cross_entropy(model.forward(x, false), labels);
  model.backward(res.grad_logits);

  const float eps = 1e-2f;
  int checked = 0;
  for (Param* p : model.params()) {
    for (std::size_t i = 0; i < p->value.numel(); i += 3) {  // sample
      const float keep = p->value[i];
      p->value[i] = keep + eps;
      const double lp = loss();
      p->value[i] = keep - eps;
      const double lm = loss();
      p->value[i] = keep;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric,
                  4e-2 * std::max(0.05, std::abs(numeric)))
          << "param element " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

}  // namespace
}  // namespace deepcsi::nn
