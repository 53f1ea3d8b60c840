// The acceptance gate for the allocation-free ingest path: once its
// per-thread scratch is warm, fill_features must not touch the heap at
// all, and the parallel feature extraction / shuffle must stay
// bit-identical for any DEEPCSI_THREADS. Past the producer, a report is
// one flat heap block: submit costs a constant number of allocations
// whatever the sub-carrier count, and a warm flat classify costs none.
// The global operator new/delete replacements below count every
// allocation in this binary, so the test literally measures them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "serving/service.h"
#include "test_util.h"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace deepcsi::dataset {
namespace {

using tests::quick_authenticator;
using tests::ThreadGuard;

Trace test_trace(int module) {
  Scale scale;
  scale.d1_snapshots_per_trace = 6;
  return generate_d1_trace(module, 1, 0, scale, GeneratorConfig{});
}

TEST(IngestAllocTest, SteadyStateFillFeaturesIsAllocationFree) {
  const Trace trace = test_trace(0);
  InputSpec spec;
  spec.subcarrier_stride = 2;
  std::vector<float> buf(
      static_cast<std::size_t>(num_input_channels(spec)) *
      num_input_columns(spec));

  FeatureScratch scratch;
  // Warm-up: capacities reach their high-water mark on the first report.
  fill_features(trace.snapshots[0].report, spec, buf.data(), scratch);

  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 50; ++rep)
    for (const Snapshot& s : trace.snapshots)
      fill_features(s.report, spec, buf.data(), scratch);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "fill_features allocated in steady state";
}

TEST(IngestAllocTest, OffsetCorrectionPathIsAllocationFreeToo) {
  const Trace trace = test_trace(1);
  InputSpec spec;
  spec.subcarrier_stride = 2;
  spec.offset_correction = true;
  std::vector<float> buf(
      static_cast<std::size_t>(num_input_channels(spec)) *
      num_input_columns(spec));

  FeatureScratch scratch;
  fill_features(trace.snapshots[0].report, spec, buf.data(), scratch);

  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 50; ++rep)
    for (const Snapshot& s : trace.snapshots)
      fill_features(s.report, spec, buf.data(), scratch);
  EXPECT_EQ(g_alloc_count.load() - before, 0u);
}

TEST(IngestAllocTest, ThreadLocalOverloadMatchesExplicitScratch) {
  const Trace trace = test_trace(2);
  InputSpec spec;
  spec.subcarrier_stride = 2;
  const std::size_t len = static_cast<std::size_t>(num_input_channels(spec)) *
                          num_input_columns(spec);
  std::vector<float> a(len), b(len);
  FeatureScratch scratch;
  for (const Snapshot& s : trace.snapshots) {
    fill_features(s.report, spec, a.data());
    fill_features(s.report, spec, b.data(), scratch);
    for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(a[i], b[i]) << i;
  }
}

TEST(IngestAllocTest, LabeledSetAndShuffleBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  std::vector<Trace> traces = {test_trace(0), test_trace(1)};
  InputSpec spec;
  spec.subcarrier_stride = 2;

  common::set_num_threads(1);
  nn::LabeledSet s1 = make_labeled_set(traces, spec);
  shuffle_labeled_set(s1, 99);
  common::set_num_threads(4);
  nn::LabeledSet s4 = make_labeled_set(traces, spec);
  shuffle_labeled_set(s4, 99);

  ASSERT_EQ(s1.x.numel(), s4.x.numel());
  ASSERT_EQ(s1.y, s4.y);
  for (std::size_t i = 0; i < s1.x.numel(); ++i)
    ASSERT_EQ(s1.x[i], s4.x[i]) << i;
}

// Heap allocations spent submitting `n` copies of `report` (keeping its
// first `num_subcarriers` sub-carriers) to a service whose lanes are not
// running, so every report stays queued.
std::size_t submit_allocations(const feedback::CompressedFeedbackReport& full,
                               std::size_t num_subcarriers, std::size_t n) {
  feedback::CompressedFeedbackReport report = full;
  report.subcarriers.resize(num_subcarriers);
  report.per_subcarrier.resize(num_subcarriers);
  std::vector<capture::ObservedFeedback> observed(n);
  for (std::size_t i = 0; i < n; ++i) {
    observed[i].beamformee = capture::MacAddress::for_station(1);
    observed[i].timestamp_s = 0.01 * static_cast<double>(i);
    observed[i].report = report;
  }
  InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  serving::ServiceConfig cfg;
  cfg.queue_capacity = n;
  serving::AuthService service(auth, cfg);

  const std::size_t before = g_alloc_count.load();
  for (const capture::ObservedFeedback& obs : observed)
    EXPECT_TRUE(service.submit(obs));
  return g_alloc_count.load() - before;
}

TEST(IngestAllocTest, SubmitCostsConstantAllocationsPerReport) {
  const Trace trace = test_trace(3);
  const feedback::CompressedFeedbackReport& report = trace.snapshots[0].report;
  ASSERT_EQ(report.per_subcarrier.size(), 234u);
  constexpr std::size_t kReports = 200;
  const std::size_t at_54 = submit_allocations(report, 54, kReports);
  const std::size_t at_234 = submit_allocations(report, 234, kReports);
  // One block for the flat codes plus the queue's amortised growth.
  EXPECT_LE(at_54, 2 * kReports);
  EXPECT_EQ(at_54, at_234) << "submit cost depends on the sub-carrier count";
}

TEST(IngestAllocTest, WarmFlatClassifyIsAllocationFree) {
  // Feature scratch is per thread, and which pool worker runs a chunk is
  // up to the pool; one thread makes "warm" a single call.
  ThreadGuard guard;
  common::set_num_threads(1);
  InputSpec spec;
  spec.subcarrier_stride = 4;
  const core::Authenticator auth = quick_authenticator(spec);
  const Trace trace = test_trace(4);
  std::vector<feedback::AngleCodes> batch;
  for (const Snapshot& s : trace.snapshots) batch.emplace_back(s.report);
  std::vector<core::Authenticator::Prediction> preds(batch.size());
  auth.classify_batch_into(batch, preds);  // warm: context, scratch, tables

  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 20; ++rep) auth.classify_batch_into(batch, preds);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "flat classify allocated in steady state";
}

}  // namespace
}  // namespace deepcsi::dataset
