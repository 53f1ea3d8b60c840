// DeepCSI model builder: the paper's architecture (including the quoted
// 489,301 trainable parameters), kernel schedules, and pipeline plumbing.
#include <gtest/gtest.h>

#include <random>

#include "core/model.h"
#include "core/pipeline.h"
#include "nn/loss.h"

namespace deepcsi::core {
namespace {

TEST(ModelConfigTest, DefaultKernelSchedule) {
  EXPECT_EQ(default_kernels(1), (std::vector<int>{7}));
  EXPECT_EQ(default_kernels(2), (std::vector<int>{7, 3}));
  EXPECT_EQ(default_kernels(3), (std::vector<int>{7, 5, 3}));
  EXPECT_EQ(default_kernels(5), (std::vector<int>{7, 7, 7, 5, 3}));
  EXPECT_EQ(default_kernels(7), (std::vector<int>{7, 7, 7, 7, 7, 5, 3}));
}

TEST(ModelBuilderTest, PaperArchitectureHas489301Parameters) {
  // Sec. III-C: "a DNN containing 489,301 trainable parameters" for the
  // full 234-sub-carrier, 3-TX-antenna input (5 I/Q channels, 10 classes).
  nn::Sequential model =
      build_deepcsi_model(5, 234, 10, paper_model_config());
  EXPECT_EQ(model.num_trainable(), 489301u);
}

TEST(ModelBuilderTest, ConvWeightsKeepTheWeightFileLayout) {
  // Weight files store every conv weight as [out, in, 1, kw]: files
  // written by earlier builds must keep loading, so the layout and the
  // kernel schedules (paper 7/7/7/5/3, quick 7/5/3, attention 5 in both)
  // are pinned here, in model order.
  using Shape = std::vector<std::size_t>;
  struct Case {
    ModelConfig cfg;
    std::vector<Shape> convs;
  };
  for (const Case& c :
       {Case{paper_model_config(),
             {{128, 5, 1, 7}, {128, 128, 1, 7}, {128, 128, 1, 7},
              {128, 128, 1, 5}, {128, 128, 1, 3}, {1, 2, 1, 5}}},
        Case{quick_model_config(),
             {{32, 5, 1, 7}, {32, 32, 1, 5}, {32, 32, 1, 3}, {1, 2, 1, 5}}}}) {
    nn::Sequential model = build_deepcsi_model(5, 234, 10, c.cfg);
    std::vector<Shape> convs;
    for (const nn::Param* p : model.params())
      if (p->value.rank() == 4) convs.push_back(p->value.shape());
    EXPECT_EQ(convs, c.convs) << "filters=" << c.cfg.filters;
  }
}

TEST(ModelBuilderTest, ForwardShape) {
  nn::Sequential model = build_deepcsi_model(5, 117, 10, quick_model_config());
  nn::Tensor x({3, 5, 1, 117});
  const nn::Tensor y = model.forward(x, false);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(ModelBuilderTest, HandlesNarrowInputsWithManyLayers) {
  // 7 conv layers on a 54-sub-carrier input: pooling must stop at width 1
  // instead of collapsing to zero.
  ModelConfig cfg = quick_model_config();
  cfg.conv_layers = 7;
  cfg.kernel_widths = default_kernels(7);
  nn::Sequential model = build_deepcsi_model(2, 54, 10, cfg);
  nn::Tensor x({1, 2, 1, 54});
  EXPECT_EQ(model.forward(x, false).dim(1), 10u);
}

TEST(ModelBuilderTest, ParameterCountTrendsMatchFig7) {
  // Fig. 7b: more filters -> more parameters. Fig. 7a: more conv layers ->
  // *fewer* total parameters, because each extra max-pool halves the
  // flatten width feeding the first dense layer.
  ModelConfig cfg = quick_model_config();
  nn::Sequential base = build_deepcsi_model(5, 117, 10, cfg);
  cfg.filters *= 2;
  nn::Sequential wider = build_deepcsi_model(5, 117, 10, cfg);
  EXPECT_GT(wider.num_trainable(), base.num_trainable());
  cfg.filters /= 2;
  cfg.conv_layers += 1;
  cfg.kernel_widths = default_kernels(cfg.conv_layers);
  nn::Sequential deeper = build_deepcsi_model(5, 117, 10, cfg);
  EXPECT_LT(deeper.num_trainable(), base.num_trainable());
}

TEST(ModelBuilderTest, InputValidation) {
  EXPECT_THROW(build_deepcsi_model(0, 100, 10, quick_model_config()),
               std::logic_error);
  EXPECT_THROW(build_deepcsi_model(5, 1, 10, quick_model_config()),
               std::logic_error);
  EXPECT_THROW(build_deepcsi_model(5, 100, 1, quick_model_config()),
               std::logic_error);
  ModelConfig bad = quick_model_config();
  bad.dropout = {0.5f};  // mismatched with dense
  EXPECT_THROW(build_deepcsi_model(5, 100, 10, bad), std::logic_error);
}

TEST(ModelBuilderTest, DeterministicInitBySeed) {
  ModelConfig cfg = quick_model_config();
  nn::Sequential m1 = build_deepcsi_model(5, 117, 10, cfg);
  nn::Sequential m2 = build_deepcsi_model(5, 117, 10, cfg);
  auto p1 = m1.params(), p2 = m2.params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i)
    for (std::size_t j = 0; j < p1[i]->value.numel(); ++j)
      EXPECT_EQ(p1[i]->value[j], p2[i]->value[j]);
}

// Synthetic 4-D classification task: class-dependent bump position along
// the sub-carrier axis. Exercises run_classification end to end without
// PHY simulation cost.
dataset::SplitSets make_synthetic_split(std::size_t per_class,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, 0.3f);
  const std::size_t w = 40, c = 2, classes = 10;
  auto make = [&](std::size_t n_per) {
    nn::LabeledSet set;
    set.num_classes = static_cast<int>(classes);
    set.x = nn::Tensor({n_per * classes, c, 1, w});
    for (std::size_t cls = 0; cls < classes; ++cls) {
      for (std::size_t i = 0; i < n_per; ++i) {
        const std::size_t row = cls * n_per + i;
        for (std::size_t ch = 0; ch < c; ++ch)
          for (std::size_t p = 0; p < w; ++p) {
            const float bump =
                (p >= cls * 4 && p < cls * 4 + 4) ? 1.5f : 0.0f;
            set.x.at4(row, ch, 0, p) = bump + noise(rng);
          }
        set.y.push_back(static_cast<int>(cls));
      }
    }
    return set;
  };
  dataset::SplitSets split;
  split.train = make(per_class);
  split.test = make(per_class / 2);
  return split;
}

TEST(RunClassificationTest, LearnsSyntheticTask) {
  const dataset::SplitSets split = make_synthetic_split(12, 3);
  ExperimentConfig cfg = quick_experiment_config();
  cfg.model.filters = 12;
  cfg.model.conv_layers = 2;
  cfg.model.dense = {32, 16};
  cfg.model.dropout = {0.2f, 0.1f};
  cfg.train.epochs = 20;
  const ExperimentResult result = run_classification(split, cfg);
  EXPECT_GT(result.accuracy, 0.75);
  EXPECT_EQ(result.confusion.num_classes(), 10);
  EXPECT_GT(result.trainable_params, 0u);
}

TEST(AuthenticatorTest, ClassifyOnReports) {
  // Train a tiny model on synthetic data shaped like real feature specs,
  // then check the Authenticator plumbing: classify returns a valid id
  // with a sane confidence.
  dataset::Scale tiny{3, 3, 8};
  dataset::GeneratorConfig gen;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 8;

  std::vector<dataset::Trace> traces;
  for (int module : {0, 1}) {
    traces.push_back(dataset::generate_d1_trace(module, 1, 0, tiny, gen));
  }
  nn::LabeledSet train = dataset::make_labeled_set(traces, spec);

  ExperimentConfig cfg = quick_experiment_config();
  cfg.model.filters = 8;
  cfg.model.conv_layers = 2;
  cfg.model.dense = {16, 8};
  cfg.model.dropout = {0.1f, 0.1f};
  cfg.train.epochs = 8;
  cfg.train.val_fraction = 0.0;

  dataset::SplitSets split;
  split.train = train;
  split.test = train;
  Authenticator auth = train_authenticator(split, spec, cfg);

  const auto pred = auth.classify(traces[0].snapshots[0].report);
  EXPECT_GE(pred.module_id, 0);
  EXPECT_LT(pred.module_id, 10);
  EXPECT_GT(pred.confidence, 0.0);
  EXPECT_LE(pred.confidence, 1.0);
}

TEST(AuthenticatorTest, SaveLoadPreservesPredictions) {
  dataset::Scale tiny{2, 2, 16};
  dataset::GeneratorConfig gen;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 16;
  std::vector<dataset::Trace> traces{
      dataset::generate_d1_trace(0, 1, 0, tiny, gen)};
  nn::LabeledSet train = dataset::make_labeled_set(traces, spec);

  ExperimentConfig cfg = quick_experiment_config();
  cfg.model.filters = 4;
  cfg.model.conv_layers = 1;
  cfg.model.dense = {8, 8};
  cfg.model.dropout = {0.0f, 0.0f};
  cfg.train.epochs = 2;
  cfg.train.val_fraction = 0.0;
  dataset::SplitSets split{train, train};
  Authenticator a1 = train_authenticator(split, spec, cfg);

  // The artifact as `train` writes it, read back through the one load
  // path; the arch knobs .meta does not record come from the fallback.
  const std::string path = ::testing::TempDir() + "/auth_weights.bin";
  a1.save(path);
  save_model_meta(path, {{"filters", cfg.model.filters},
                         {"stride", spec.subcarrier_stride},
                         {"classes", train.num_classes}});
  LoadedModel lm;
  std::string err;
  ASSERT_EQ(load_model_artifact(path, spec, cfg.model, &lm, &err),
            ModelLoadStatus::kOk)
      << err;
  Authenticator a2(std::move(*lm.model), lm.spec);

  const auto p1 = a1.classify(traces[0].snapshots[0].report);
  const auto p2 = a2.classify(traces[0].snapshots[0].report);
  EXPECT_EQ(p1.module_id, p2.module_id);
  EXPECT_NEAR(p1.confidence, p2.confidence, 1e-6);
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
}

TEST(ExperimentConfigTest, ScaleVariantsDiffer) {
  EXPECT_GT(full_experiment_config().model.filters,
            quick_experiment_config().model.filters);
  EXPECT_EQ(full_experiment_config().model.conv_layers, 5);
}

}  // namespace
}  // namespace deepcsi::core
