// High-level DeepCSI API: train a fingerprint classifier on a train/test
// split, evaluate it, and run real-time authentication on observed
// feedback reports (the full workflow of Fig. 1 / Fig. 3).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "dataset/splits.h"
#include "feedback/angle_codes.h"
#include "nn/infer.h"
#include "nn/metrics.h"
#include "nn/quantize.h"
#include "nn/trainer.h"

namespace deepcsi::core {

struct ExperimentConfig {
  ModelConfig model;
  nn::TrainConfig train;
};

// Scale-matched defaults: quick (CI, single core) or paper-like.
ExperimentConfig quick_experiment_config();
ExperimentConfig full_experiment_config();
ExperimentConfig experiment_config_from_env();

struct ExperimentResult {
  double accuracy = 0.0;          // on the held-out test set
  double best_val_accuracy = 0.0; // on the validation tail of training data
  nn::ConfusionMatrix confusion{1};
  std::size_t trainable_params = 0;
};

// Train on split.train (with the paper's 80/20 validation tail), evaluate
// on split.test.
ExperimentResult run_classification(const dataset::SplitSets& split,
                                    const ExperimentConfig& cfg);

// ------------------------------------------------- deployable artifacts
//
// A trained model on disk is a trio: the weights file, the ".meta"
// key=value sidecar recording the architecture knobs, and the optional
// ".calib" int8 sidecar. load_model_artifact rebuilds the trio as one
// validated unit — the single load path shared by CLI startup and the
// hot-swap machinery, so "can this file serve?" has exactly one answer.

enum class ModelLoadStatus {
  kOk,
  kIoError,       // missing/torn/truncated weights, corrupt .calib (CRC),
                  // shape mismatch between weights and the .meta arch,
                  // or an injected "model.load" failpoint failure
  kSpecMismatch,  // the trio's input spec disagrees with serving_spec
};

struct LoadedModel {
  std::optional<nn::Sequential> model;  // weights loaded, calib NOT applied
  dataset::InputSpec spec;              // the spec the model was built for
  ModelConfig config;                   // arch (meta keys over fallback)
  int num_classes = 0;
  std::optional<std::vector<nn::CalibrationEntry>> calibration;
};

// Loads weights + .meta + .calib from `path`. Architecture keys in .meta
// (filters, stride, classes) are authoritative for the artifact;
// `fallback` supplies any the sidecar lacks (legacy models without a
// .meta). When `serving_spec` is given, a trio whose input geometry
// disagrees with it returns kSpecMismatch with a diagnostic naming BOTH
// specs — the caller must refuse, never serve garbage features. Never
// throws; never returns a half-loaded model. Failpoint site "model.load"
// synthesizes a kIoError before the file is touched.
ModelLoadStatus load_model_artifact(
    const std::string& path,
    const std::optional<dataset::InputSpec>& serving_spec,
    const ModelConfig& fallback, LoadedModel* out, std::string* error);

// A trained classifier bound to its input spec: the deployable artifact.
//
// The network lives in an immutable SharedModel; every classify call
// leases a per-thread InferenceContext (pre-planned activation arena)
// from an internal pool, so ANY number of threads may call classify /
// classify_batch concurrently on one shared Authenticator.
// Predictions are bitwise identical whatever the caller count, batch
// composition or DEEPCSI_THREADS.
//
// Model lifecycle (RCU hot swap): the SharedModel + ContextPool pair
// lives in an *epoch* behind a shared_ptr. classify pins the current
// epoch with one pointer copy; swap_model() stages a fully validated
// replacement off to the side and publishes it with a single pointer
// exchange. In-flight classify calls finish on the epoch they pinned,
// which retires when its last lease drops — a swap never blocks serving
// and serving never blocks a swap. The only non-const entry points are
// model() and the int8 calibration hooks, which mutate the CURRENT
// epoch's weights for the train/eval path and must not race a concurrent
// classify (swap_model, by contrast, is safe to race).
class Authenticator {
 public:
  // Contexts are planned for batches up to this size; larger classify
  // batches are chunked (chunking never changes per-report predictions).
  static constexpr std::size_t kContextBatch = 64;

  Authenticator(nn::Sequential model, dataset::InputSpec spec);

  struct Prediction {
    int module_id = -1;
    double confidence = 0.0;  // softmax probability of the argmax
  };

  // Classify one observed feedback report. Thread-safe.
  Prediction classify(const feedback::CompressedFeedbackReport& report) const;
  Prediction classify(const feedback::AngleCodes& codes) const;

  // Batched serving path: packs reports into the leased context's arena
  // (feature assembly fans out over the thread pool) and runs pooled
  // const forward passes. Thread-safe; bit-identical to per-report
  // classify().
  std::vector<Prediction> classify_batch(
      std::span<const feedback::CompressedFeedbackReport> reports) const;

  // As classify_batch, but into caller-owned storage (out.size() >=
  // reports.size()): with warm contexts and thread-local feature scratch
  // this path performs zero heap allocations.
  void classify_batch_into(
      std::span<const feedback::CompressedFeedbackReport> reports,
      std::span<Prediction> out) const;
  // The serving lanes' form: flat reports, bit-identical predictions.
  void classify_batch_into(std::span<const feedback::AngleCodes> reports,
                           std::span<Prediction> out) const;

  const dataset::InputSpec& input_spec() const { return spec_; }
  // Current epoch's model. The reference is only stable while no swap
  // runs — tests and benches use it, the serving path never does.
  const nn::SharedModel& shared_model() const;
  // Stateful train/eval escape hatch (nn::evaluate, weight mutation).
  // NOT thread-safe, and must not race concurrent classify calls.
  nn::Sequential& model();

  // Writes the weights file only; load it back with load_model_artifact.
  void save(const std::string& path) const;

  // ------------------------------------------------- RCU hot swap
  //
  // Atomically replaces the serving model with the weights/.meta/.calib
  // trio at `path`, WITHOUT interrupting concurrent classify calls. The
  // candidate is loaded, validated against this Authenticator's input
  // spec, calibrated and pool-planned entirely off to the side; only a
  // fully staged epoch is published. Any failure — torn file, CRC
  // refusal, spec mismatch, injected "model.load"/"model.swap" failpoint
  // — leaves the incumbent epoch serving untouched ("rolled back") and
  // is counted in swaps_rolled_back(). Thread-safe, including against
  // itself and against classify; NOT against model()/calibrate.
  enum class SwapStatus {
    kSwapped,       // new epoch published
    kLoadError,     // artifact unreadable (ModelLoadStatus::kIoError)
    kSpecMismatch,  // artifact disagrees with input_spec()
    kAborted,       // staged epoch discarded ("model.swap" failpoint)
  };
  struct SwapResult {
    SwapStatus status = SwapStatus::kSwapped;
    std::uint64_t epoch = 0;  // the epoch serving AFTER this call
    std::string error;        // empty on success
    bool ok() const { return status == SwapStatus::kSwapped; }
  };
  SwapResult swap_model(const std::string& path);

  // Lifecycle counters (monotonic). Safe to read concurrently with
  // everything.
  std::uint64_t swaps_completed() const;
  std::uint64_t swaps_rolled_back() const;
  // The current epoch's id (1 at construction, +1 per successful swap)
  // with its pool's inference contexts built so far and the bytes their
  // arenas hold, all read under one pin so a concurrent swap cannot pair
  // one epoch's id with the next one's pool. Safe to read concurrently.
  struct EpochInfo {
    std::uint64_t id = 0;
    std::size_t contexts = 0;
    std::size_t arena_bytes = 0;
  };
  EpochInfo epoch_info() const;

  // INT8 calibration (nn/quantize.h). Both attach quantized weights to
  // the Conv2d/Dense layers and rebuild the context pool so new leases
  // plan the int8 arena slices. NOT thread-safe — like model(), run
  // before serving starts or after it drains.
  //
  // Measure activation ranges on `samples` ([N, C, 1, W] feature
  // tensors, normally the training set) and apply them; returns the
  // entries for persisting via nn::save_calibration.
  std::vector<nn::CalibrationEntry> calibrate_int8(
      const tensor::Tensor& samples);
  // Apply previously-measured entries (a loaded sidecar).
  void apply_int8_calibration(const std::vector<nn::CalibrationEntry>& entries);

 private:
  // One serving epoch: an immutable model plus the context pool planned
  // for it. The pool holds a SharedModel copy (keeps the graph alive) and
  // outstanding Leases hold the pool via the epoch shared_ptr pinned by
  // classify_batch_into — so a retired epoch is freed exactly when its
  // last in-flight classify returns.
  struct Epoch {
    Epoch(nn::SharedModel m, const dataset::InputSpec& spec);
    nn::SharedModel model;
    std::unique_ptr<nn::ContextPool> pool;
    std::uint64_t id = 1;
  };
  // Heap-allocated so the Authenticator stays movable (mutex + atomics).
  struct Lifecycle {
    mutable std::mutex mu;  // guards `epoch` (pointer swap + pin copy)
    std::shared_ptr<Epoch> epoch;
    std::atomic<std::uint64_t> swaps_completed{0};
    std::atomic<std::uint64_t> swaps_rolled_back{0};
  };
  std::shared_ptr<Epoch> pin_epoch() const;
  // Body of both classify_batch_into overloads (Report: either form).
  template <typename Report>
  void classify_into(std::span<const Report> reports,
                     std::span<Prediction> out) const;
  void publish_epoch(std::shared_ptr<Epoch> staged);

  dataset::InputSpec spec_;
  std::unique_ptr<Lifecycle> life_;
};

// Convenience: build the model for a given spec and train it on a split.
Authenticator train_authenticator(const dataset::SplitSets& split,
                                  const dataset::InputSpec& spec,
                                  const ExperimentConfig& cfg);

// Sidecar metadata next to saved weights ("<weights>.meta", key=value
// ints): records the training-time architecture knobs so the serving side
// can rebuild the exact model without the user re-passing flags. Loading
// a missing sidecar returns an empty map; saving overwrites.
void save_model_meta(const std::string& weights_path,
                     const std::map<std::string, int>& meta);
std::map<std::string, int> load_model_meta(const std::string& weights_path);

}  // namespace deepcsi::core
