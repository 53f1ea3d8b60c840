// train_quick: the quick model trained for fixed epochs on fleet-template
// features by nn::train_classifier, the one workload that runs backward and
// the optimizer; plus the trace report the serving workloads share.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "common/parallel.h"
#include "core/model.h"
#include "dataset/features.h"
#include "harness.h"
#include "metrics.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "serving/fleet.h"

namespace perfbench {

using namespace deepcsi;

namespace {

constexpr std::size_t kTrainStations = 1600;
constexpr std::size_t kTestStations = 400;
constexpr int kEpochs = 25;
constexpr int kBatch = 32;  // nn::TrainConfig default
constexpr double kValFraction = 0.2;
constexpr int kSetups = 5;
// Held-out accuracy below this fails the run. Every seed measured read
// 0.99-1.0; the margin leaves room for another backend's rounding, not
// for a trainer or feature regression.
constexpr double kAccuracyFloor = 0.9;

tensor::Tensor gather(const tensor::Tensor& x, const std::vector<std::size_t>& rows,
                      std::size_t begin, std::size_t end) {
  std::vector<std::size_t> shape = x.shape();
  shape[0] = end - begin;
  tensor::Tensor out(shape);
  const std::size_t row = x.numel() / x.dim(0);
  common::parallel_for(begin, end, common::grain_for(row), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      std::copy(x.data() + rows[i] * row, x.data() + (rows[i] + 1) * row,
                out.data() + (i - begin) * row);
  });
  return out;
}

// Decodes reports [begin, end) and stacks their features with the
// stations' ground-truth modules as labels.
nn::LabeledSet labeled_set(const ReportStream& s, Encoding enc, std::size_t begin,
                           std::size_t end, const dataset::InputSpec& spec) {
  const std::size_t c = static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::LabeledSet set;
  set.num_classes = phy::kNumModules;
  set.x = tensor::Tensor({end - begin, c, 1, w});
  dataset::FeatureScratch scratch;
  for (std::size_t i = begin; i < end; ++i) {
    const auto obs = decode(s.bytes[i], enc, timestamp_of(i));
    if (!obs) throw std::runtime_error("training report does not decode");
    dataset::fill_features(obs->report, spec, set.x.data() + (i - begin) * c * w, scratch);
    set.y.push_back(s.truth[i]);
  }
  return set;
}

double mean_ms(const std::map<std::string, Tracer::LayerTime>& layers, const char* name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0.0;
  return it->second.self_ns / 1e6 / static_cast<double>(it->second.count);
}

}  // namespace

TrainLoopResult traced_train_loop(nn::Sequential& model, const nn::LabeledSet& train,
                                  int epochs, std::uint64_t seed, Tracer& tr) {
  const std::size_t n_total = train.size();
  const std::size_t n_val = static_cast<std::size_t>(static_cast<double>(n_total) * kValFraction);
  const std::size_t n_train = n_total - n_val;
  nn::LabeledSet val;
  val.x = tensor::slice_rows(train.x, n_train, n_total);
  val.y.assign(train.y.begin() + static_cast<std::ptrdiff_t>(n_train), train.y.end());
  val.num_classes = train.num_classes;

  nn::Adam optimizer(model.params(), {.lr = 1e-3f});
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(n_train);
  std::iota(order.begin(), order.end(), 0);
  double best_val = 0.0;  // as train_classifier: an epoch must beat 0 to be kept
  std::vector<tensor::Tensor> best;

  TrainLoopResult r;
  double cpu_traced = 0.0, cpu_untraced = 0.0;
  std::size_t n_traced = 0, n_untraced = 0;
  std::size_t steps = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    Tracer* t = epoch % 2 == 1 ? &tr : nullptr;
    const double ecpu0 = process_cpu_seconds();
    std::size_t epoch_samples = 0;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t at = 0; at < n_train; at += kBatch, ++steps) {
      const std::int64_t s0 = now_ns();
      const std::int32_t root = t ? t->open("train.step", -1, steps) : -1;
      const std::size_t hi = std::min(n_train, at + kBatch);
      const tensor::Tensor xb = gather(train.x, order, at, hi);
      std::vector<int> yb(hi - at);
      for (std::size_t i = at; i < hi; ++i) yb[i - at] = train.y[order[i]];
      model.zero_grad();
      std::int32_t sp = t ? t->open("nn.train_forward", root, steps) : -1;
      const tensor::Tensor logits = model.forward(xb, /*training=*/true);
      if (t) t->close(sp);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, yb);
      sp = t ? t->open("nn.train_backward", root, steps) : -1;
      model.backward(loss.grad_logits);
      if (t) t->close(sp);
      sp = t ? t->open("nn.optimizer", root, steps) : -1;
      optimizer.step();
      if (t) {
        t->close(sp);
        t->close(root);
      }
      r.step_ms.push_back(static_cast<double>(now_ns() - s0) / 1e6);
      epoch_samples += hi - at;
    }
    if (n_val > 0) {
      const std::int32_t sp = t ? t->open("nn.evaluate", -1, static_cast<std::uint64_t>(epoch)) : -1;
      const double acc = nn::evaluate(model, val, kBatch).accuracy();
      if (t) t->close(sp);
      if (acc > best_val) {
        best_val = acc;
        best.clear();
        for (nn::Param* p : model.params()) best.push_back(p->value);
      }
    }
    const double ecpu = process_cpu_seconds() - ecpu0;
    (t ? cpu_traced : cpu_untraced) += ecpu;
    (t ? n_traced : n_untraced) += epoch_samples;
  }
  if (!best.empty()) {
    const std::vector<nn::Param*> params = model.params();
    for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = best[i];
  }
  r.traced_cpu_per_sample = n_traced ? cpu_traced / static_cast<double>(n_traced) : 0.0;
  r.untraced_cpu_per_sample = n_untraced ? cpu_untraced / static_cast<double>(n_untraced) : 0.0;
  return r;
}

void report_trace(const Tracer& tr, const Options& opt) {
  const std::map<std::string, Tracer::LayerTime> layers = tr.by_name();
  std::printf("\nper-layer self time (%s, seed %llu, %zu spans)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), tr.spans().size());
  std::printf("  %-22s %10s %14s %14s\n", "span", "count", "mean span us", "mean self us");
  for (const auto& [name, lt] : layers) {
    const double n = static_cast<double>(std::max<std::size_t>(lt.count, 1));
    std::printf("  %-22s %10zu %14.3f %14.3f\n", name.c_str(), lt.count,
                lt.total_ns / 1e3 / n, lt.self_ns / 1e3 / n);
  }
  const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + "-" + std::to_string(::getpid()) + ".csv";
  if (tr.write_csv(path))
    std::printf("  spans written to %s\n", path.c_str());
  else
    std::printf("  could not write the span file %s\n", path.c_str());
}

RunResult run_train_workload(const Options& opt) {
  RunResult res;
  const dataset::InputSpec spec;

  // ------------------------------------------------------------ prep
  serving::FleetConfig fc;
  fc.stations = kTrainStations + kTestStations;
  fc.seed = opt.seed;
  const serving::FleetGenerator gen(fc);
  const ReportStream stream =
      make_stream(gen, opt.seed, kTrainStations + kTestStations, fc.stations, Encoding::kAir);
  core::ModelConfig model_cfg = core::quick_model_config();
  model_cfg.init_seed = opt.seed;
  const auto build_model = [&] {
    return core::build_deepcsi_model(dataset::num_input_channels(spec),
                                     static_cast<int>(dataset::num_input_columns(spec)),
                                     phy::kNumModules, model_cfg);
  };
  std::printf("train_quick: %zu training stations, %zu held-out, %d epochs, seed %llu\n",
              kTrainStations, kTestStations, kEpochs, static_cast<unsigned long long>(opt.seed));

  // ------------------------------------------------------------ set-up
  const double rss_before = rss_mib();
  const double heap_before = heap_live_mib();
  std::vector<double> setup_s, setup_cpu_s, labeled_s;
  nn::LabeledSet train;
  std::optional<nn::Sequential> model;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = now_ns();
    const double c0 = thread_cpu_seconds();
    train = labeled_set(stream, Encoding::kAir, 0, kTrainStations, spec);
    dataset::shuffle_labeled_set(train, opt.seed);
    const std::int64_t t1 = now_ns();
    model.emplace(build_model());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_cpu_s.push_back(thread_cpu_seconds() - c0);
    labeled_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  // ------------------------------------------------------------ training
  nn::TrainConfig tc;
  tc.epochs = kEpochs;
  tc.batch_size = kBatch;
  tc.val_fraction = kValFraction;
  tc.shuffle_seed = opt.seed;
  tc.restore_best = true;
  const std::int64_t train0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  nn::train_classifier(*model, train, tc);
  const double train_cpu_s = process_cpu_seconds() - cpu0;
  const double train_wall_s = static_cast<double>(now_ns() - train0) / 1e9;
  const double rss_after = rss_mib();
  const double heap_after = heap_live_mib();
  const std::size_t n_train =
      train.size() - static_cast<std::size_t>(static_cast<double>(train.size()) * kValFraction);
  const std::size_t samples = n_train * static_cast<std::size_t>(kEpochs);

  // ------------------------------------------------------------ held-out accuracy
  const nn::LabeledSet test =
      labeled_set(stream, Encoding::kAir, kTrainStations, kTrainStations + kTestStations, spec);
  const double eval_acc = nn::evaluate(*model, test, kBatch).accuracy();
  core::Authenticator auth(std::move(*model), spec);
  std::vector<feedback::CompressedFeedbackReport> reports;
  for (std::size_t i = kTrainStations; i < stream.bytes.size(); ++i)
    reports.push_back(decode_air(stream.bytes[i], timestamp_of(i))->report);
  const std::vector<core::Authenticator::Prediction> preds = auth.classify_batch(reports);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    correct += preds[i].module_id == stream.truth[kTrainStations + i];
  const double test_acc = static_cast<double>(correct) / static_cast<double>(preds.size());
  std::printf("train_quick: held-out accuracy %.4f (serving path) / %.4f (nn::evaluate)\n",
              test_acc, eval_acc);
  if (test_acc != eval_acc) res.fail("serving-path accuracy differs from nn::evaluate");
  if (test_acc < kAccuracyFloor) res.fail("held-out accuracy below the floor");
  res.attempted = samples;
  res.failed = res.correct ? 0 : 1;

  const double n = static_cast<double>(samples);
  add(res.end_to_end, "setup_s", median(setup_cpu_s), "s");
  add(res.per_layer, "setup_wall_s", median(setup_s), "s");
  add(res.end_to_end, "cpu_per_report_us", train_cpu_s * 1e6 / n, "us");
  add(res.end_to_end, "heap_mb", heap_after - heap_before, "MiB");
  add(res.per_layer, "rss_mb", rss_after - rss_before, "MiB");
  add(res.per_layer, "throughput_rps", n / train_wall_s, "1/s");
  add(res.per_layer, "train_samples_per_s", n / train_wall_s, "1/s");
  add(res.per_layer, "test_accuracy", test_acc, "ratio");
  add(res.per_layer, "failed_frac", static_cast<double>(res.failed) / n, "ratio");
  add(res.per_layer, "process.cpu_util", train_cpu_s / train_wall_s, "ratio");
  if (!opt.trace) return res;

  // ------------------------------------------------------------ traced copy of the loop
  // A second network from the same seed, trained by the copied loop with
  // spans on odd epochs; its step times give the step latency. With the
  // same seed and shuffle it ends on the same weights as train_classifier
  // unless the copy has drifted from the library, which the table shows.
  nn::Sequential copy = build_model();
  Tracer tr;
  const TrainLoopResult tl = traced_train_loop(copy, train, kEpochs, opt.seed, tr);
  const double copy_acc = nn::evaluate(copy, test, kBatch).accuracy();
  add(res.info, "traced_loop_test_accuracy", copy_acc, "ratio");
  if (copy_acc != eval_acc)
    std::printf("note: the traced loop's held-out accuracy %.4f differs from train_classifier's "
                "%.4f; the copy in train_workload.cc has drifted from the library\n",
                copy_acc, eval_acc);
  add(res.info, "train_steps", static_cast<double>(tl.step_ms.size()), "count");
  add(res.per_layer, "latency_p50_ms", percentile(tl.step_ms, 50.0), "ms");
  add(res.per_layer, "latency_p99_ms", percentile(tl.step_ms, 99.0), "ms");
  const std::map<std::string, Tracer::LayerTime> layers = tr.by_name();
  add(res.per_layer, "nn.train_forward_ms", mean_ms(layers, "nn.train_forward"), "ms");
  add(res.per_layer, "nn.train_backward_ms", mean_ms(layers, "nn.train_backward"), "ms");
  add(res.per_layer, "nn.optimizer_ms", mean_ms(layers, "nn.optimizer"), "ms");
  add(res.per_layer, "nn.evaluate_ms", mean_ms(layers, "nn.evaluate"), "ms");
  add(res.per_layer, "dataset.labeled_set_s", median(labeled_s), "s");
  add(res.per_layer, "gen.distinct_frac", stream.distinct_frac, "ratio");
  add(res.per_layer, "trace.overhead_frac",
      tl.untraced_cpu_per_sample > 0 ? tl.traced_cpu_per_sample / tl.untraced_cpu_per_sample - 1.0 : 0.0,
      "ratio");
  // Share of traced training time outside forward, backward, optimizer
  // and evaluate: batch gather, loss, zero_grad and the loop itself.
  double inside = 0.0, total = 0.0;
  for (const char* name : {"nn.train_forward", "nn.train_backward", "nn.optimizer", "nn.evaluate"})
    if (auto it = layers.find(name); it != layers.end()) inside += it->second.self_ns;
  for (const char* name : {"train.step", "nn.evaluate"})
    if (auto it = layers.find(name); it != layers.end()) total += it->second.total_ns;
  add(res.per_layer, "trace.unattributed_frac", total > 0 ? 1.0 - inside / total : 0.0, "ratio");
  report_trace(tr, opt);
  return res;
}

}  // namespace perfbench
