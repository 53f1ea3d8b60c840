// Batched serving API: classify_batch must match per-report classify
// bit-for-bit, at any thread count, under every available SIMD backend
// (within a backend the kernels are deterministic; the backend loops here
// pin that for the whole ingest->classify pipeline), and verdicts must
// agree across backends, the calibrated int8 one included.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "phy/impairments.h"
#include "test_util.h"

namespace deepcsi {
namespace {

using tests::available_backends;
using tests::BackendGuard;
using tests::quick_authenticator;
using tests::ThreadGuard;

std::vector<feedback::CompressedFeedbackReport> make_reports() {
  const dataset::Scale scale{3, 3, 4};
  std::vector<feedback::CompressedFeedbackReport> reports;
  for (int module : {0, 1, 2}) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(module, 1, 0, scale, {});
    for (const dataset::Snapshot& s : trace.snapshots)
      reports.push_back(s.report);
  }
  return reports;
}

TEST(PipelineBatchTest, BatchMatchesPerReportClassify) {
  BackendGuard backend_guard;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();
  ASSERT_GE(reports.size(), 6u);

  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    const auto batch = auth.classify_batch(reports);
    ASSERT_EQ(batch.size(), reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto single = auth.classify(reports[i]);
      EXPECT_EQ(batch[i].module_id, single.module_id)
          << simd::name(backend) << " " << i;
      EXPECT_EQ(batch[i].confidence, single.confidence)
          << simd::name(backend) << " " << i;
    }
  }
}

TEST(PipelineBatchTest, BatchBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  BackendGuard backend_guard;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();

  for (const simd::Backend backend : available_backends()) {
    ASSERT_TRUE(simd::set_active(backend));
    common::set_num_threads(1);
    const auto r1 = auth.classify_batch(reports);
    common::set_num_threads(4);
    const auto r4 = auth.classify_batch(reports);
    ASSERT_EQ(r1.size(), r4.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].module_id, r4[i].module_id)
          << simd::name(backend) << " " << i;
      EXPECT_EQ(r1[i].confidence, r4[i].confidence)
          << simd::name(backend) << " " << i;
    }
  }
}

TEST(PipelineBatchTest, ClassifyVerdictsAgreeAcrossBackends) {
  // Cross-backend contract: activations may differ by FMA rounding, and
  // under avx2_int8 by quantization error, but the argmax verdict a
  // deployment acts on must not flip.
  BackendGuard backend_guard;
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  core::Authenticator auth = quick_authenticator(spec);
  const auto reports = make_reports();
  const auto backends = available_backends();
  if (backends.size() < 2) GTEST_SKIP() << "only one backend available";

  // Calibrate on these very reports, so the avx2_int8 pass runs the
  // quantized layers instead of the fp32 fallback an uncalibrated model
  // takes. Calibration is inert under the fp32 backends.
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::Tensor features({reports.size(), c, 1, w});
  for (std::size_t i = 0; i < reports.size(); ++i)
    dataset::fill_features(reports[i], spec, features.data() + i * c * w);
  auth.calibrate_int8(features);

  ASSERT_TRUE(simd::set_active(backends[0]));
  const auto reference = auth.classify_batch(reports);
  for (std::size_t b = 1; b < backends.size(); ++b) {
    ASSERT_TRUE(simd::set_active(backends[b]));
    const bool int8 = backends[b] == simd::Backend::kAvx2Int8;
    const std::uint64_t int8_before = nn::int8_kernel_dispatches();
    const auto other = auth.classify_batch(reports);
    if (int8) {
      EXPECT_GT(nn::int8_kernel_dispatches(), int8_before)
          << "int8 kernels never dispatched";
    }
    ASSERT_EQ(other.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(other[i].module_id, reference[i].module_id)
          << simd::name(backends[b]) << " report " << i;
      // Confidence is a softmax output; the fp32 backends agree to float
      // rounding. int8 keeps verdicts, not probabilities.
      if (!int8) {
        EXPECT_NEAR(other[i].confidence, reference[i].confidence, 1e-4)
            << simd::name(backends[b]) << " report " << i;
      }
    }
  }
}

TEST(PipelineBatchTest, EmptyBatchReturnsEmpty) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  EXPECT_TRUE(auth.classify_batch({}).empty());
}

TEST(PipelineBatchTest, PredictionsAreValidDistributions) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  for (const auto& p : auth.classify_batch(make_reports())) {
    EXPECT_GE(p.module_id, 0);
    EXPECT_LT(p.module_id, phy::kNumModules);
    EXPECT_GT(p.confidence, 0.0);
    EXPECT_LE(p.confidence, 1.0);
  }
}

}  // namespace
}  // namespace deepcsi
