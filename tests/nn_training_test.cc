// Training loop behavior: optimization progress, validation protocol,
// evaluation, serialization, and the Adam update rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace deepcsi::nn {
namespace {

// Three well-separated Gaussian blobs in 2-D: easy to overfit, good for
// verifying the plumbing.
LabeledSet make_blobs(int per_class, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, 0.35f);
  const float centers[3][2] = {{0, 2}, {2, -1}, {-2, -1}};
  LabeledSet set;
  set.num_classes = 3;
  set.x = Tensor({static_cast<std::size_t>(3 * per_class), 2});
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_class; ++i) {
      const std::size_t row = static_cast<std::size_t>(c * per_class + i);
      set.x[row * 2] = centers[c][0] + noise(rng);
      set.x[row * 2 + 1] = centers[c][1] + noise(rng);
      set.y.push_back(c);
    }
  }
  return set;
}

Sequential make_mlp(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Sequential m;
  m.emplace<Dense>(2, 16, rng);
  m.emplace<Selu>();
  m.emplace<Dense>(16, 3, rng);
  return m;
}

TEST(TrainerTest, LearnsSeparableBlobs) {
  Sequential model = make_mlp(1);
  const LabeledSet train = make_blobs(60, 11);
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 16;
  const TrainResult result = train_classifier(model, train, cfg);
  EXPECT_GT(result.best_val_accuracy, 0.9);

  const LabeledSet test = make_blobs(40, 99);
  EXPECT_GT(evaluate(model, test).accuracy(), 0.9);
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  Sequential model = make_mlp(2);
  const LabeledSet train = make_blobs(50, 13);
  TrainConfig cfg;
  cfg.epochs = 12;
  const TrainResult result = train_classifier(model, train, cfg);
  ASSERT_EQ(result.epochs.size(), 12u);
  EXPECT_LT(result.epochs.back().train_loss,
            result.epochs.front().train_loss * 0.7);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const LabeledSet train = make_blobs(30, 17);
  TrainConfig cfg;
  cfg.epochs = 5;
  Sequential m1 = make_mlp(3), m2 = make_mlp(3);
  const TrainResult r1 = train_classifier(m1, train, cfg);
  const TrainResult r2 = train_classifier(m2, train, cfg);
  for (std::size_t e = 0; e < r1.epochs.size(); ++e)
    EXPECT_DOUBLE_EQ(r1.epochs[e].train_loss, r2.epochs[e].train_loss);
}

TEST(TrainerTest, ValidationTailIsHeldOut) {
  // The validation split takes the *tail* of the provided data. Order the
  // rows so the tail is a class the model never trains on: validation
  // accuracy must collapse to ~0, proving the tail is truly held out.
  LabeledSet train = make_blobs(20, 19);  // rows ordered class 0,1,2
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.val_fraction = 1.0 / 3.0;  // exactly the class-2 block
  cfg.restore_best = false;
  Sequential model = make_mlp(5);
  const TrainResult r = train_classifier(model, train, cfg);
  EXPECT_LT(r.best_val_accuracy, 0.2);
  // Training accuracy on the remaining two classes is unaffected.
  EXPECT_GT(r.epochs.back().train_accuracy, 0.9);
}

TEST(TrainerTest, InterleavedValidationTailScoresHigh) {
  // Round-robin class order puts all classes in the tail: validation
  // accuracy then tracks true generalization.
  const LabeledSet blobs = make_blobs(20, 21);
  LabeledSet interleaved;
  interleaved.num_classes = blobs.num_classes;
  interleaved.x = Tensor(blobs.x.shape());
  const std::size_t per_class = 20;
  std::size_t row = 0;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const std::size_t src = c * per_class + i;
      interleaved.x[row * 2] = blobs.x[src * 2];
      interleaved.x[row * 2 + 1] = blobs.x[src * 2 + 1];
      interleaved.y.push_back(blobs.y[src]);
      ++row;
    }
  }
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 16;
  cfg.val_fraction = 0.3;
  Sequential model = make_mlp(5);
  const TrainResult r = train_classifier(model, interleaved, cfg);
  EXPECT_GT(r.best_val_accuracy, 0.9);
}

TEST(TrainerTest, ConfigValidation) {
  Sequential model = make_mlp(6);
  const LabeledSet train = make_blobs(10, 23);
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(train_classifier(model, train, cfg), std::logic_error);
  cfg.epochs = 1;
  cfg.val_fraction = 1.0;
  EXPECT_THROW(train_classifier(model, train, cfg), std::logic_error);
  LabeledSet empty;
  cfg.val_fraction = 0.2;
  EXPECT_THROW(train_classifier(model, empty, cfg), std::logic_error);
}

TEST(EvaluateTest, PerfectAndWorstCase) {
  // A frozen model always predicting via huge bias: craft a 1-layer net
  // with zero weights and biased logits toward class 1.
  std::mt19937_64 rng(29);
  Sequential model;
  auto& dense = model.emplace<Dense>(2, 3, rng);
  dense.params()[0]->value.zero();
  dense.params()[1]->value.zero();
  dense.params()[1]->value[1] = 10.0f;

  LabeledSet set;
  set.num_classes = 3;
  set.x = Tensor({6, 2});
  set.y = {1, 1, 1, 0, 0, 2};
  const ConfusionMatrix cm = evaluate(model, set);
  EXPECT_NEAR(cm.accuracy(), 0.5, 1e-12);
  EXPECT_EQ(cm.count(0, 1), 2);
  EXPECT_EQ(cm.count(2, 1), 1);
}

TEST(ConcatTest, StacksRowsAndLabels) {
  const LabeledSet a = make_blobs(5, 31);
  const LabeledSet b = make_blobs(7, 37);
  const LabeledSet c = concat(a, b);
  EXPECT_EQ(c.size(), a.size() + b.size());
  EXPECT_EQ(c.x.dim(0), a.x.dim(0) + b.x.dim(0));
  EXPECT_EQ(c.y[0], a.y[0]);
  EXPECT_EQ(c.y[a.size()], b.y[0]);
  // Feature data preserved.
  EXPECT_EQ(c.x[0], a.x[0]);
  EXPECT_EQ(c.x[a.x.numel()], b.x[0]);
  // Concat with empty is identity.
  EXPECT_EQ(concat(LabeledSet{}, a).size(), a.size());
  EXPECT_EQ(concat(a, LabeledSet{}).size(), a.size());
}

TEST(AdamTest, SingleStepMatchesHandComputation) {
  // One parameter w = 0, grad = 0.5: after one Adam step with lr=0.1,
  // w = -lr * g/ (sqrt(g^2) ) (bias corrections cancel at t=1) = -0.1.
  Param p(Tensor({1}));
  p.value[0] = 0.0f;
  p.grad[0] = 0.5f;
  Adam::Config cfg;
  cfg.lr = 0.1f;
  cfg.eps = 0.0f;
  Adam adam({&p}, cfg);
  adam.step();
  EXPECT_NEAR(p.value[0], -0.1f, 1e-6f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by feeding grad = 2(w - 3).
  Param p(Tensor({1}));
  p.value[0] = -5.0f;
  Adam adam({&p}, {.lr = 0.05f});
  for (int i = 0; i < 2000; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Sequential m1 = make_mlp(41);
  const LabeledSet train = make_blobs(30, 43);
  TrainConfig cfg;
  cfg.epochs = 6;
  train_classifier(m1, train, cfg);

  const std::string path = ::testing::TempDir() + "/deepcsi_weights.bin";
  save_weights(m1, path);

  Sequential m2 = make_mlp(999);  // different init, same architecture
  load_weights(m2, path);

  const LabeledSet test = make_blobs(20, 47);
  const Tensor p1 = m1.forward(test.x, false);
  const Tensor p2 = m2.forward(test.x, false);
  ASSERT_TRUE(p1.same_shape(p2));
  for (std::size_t i = 0; i < p1.numel(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Sequential m1 = make_mlp(51);
  const std::string path = ::testing::TempDir() + "/deepcsi_weights2.bin";
  save_weights(m1, path);
  std::mt19937_64 rng(53);
  Sequential wrong;
  wrong.emplace<Dense>(2, 7, rng);  // different architecture
  EXPECT_THROW(load_weights(wrong, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileThrows) {
  Sequential m = make_mlp(55);
  EXPECT_THROW(load_weights(m, "/nonexistent/deepcsi.bin"), std::runtime_error);
}

}  // namespace
}  // namespace deepcsi::nn
