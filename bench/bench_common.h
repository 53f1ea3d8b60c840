// Shared utilities for the per-figure experiment harnesses.
//
// Every bench regenerates one table/figure of the paper: it builds the
// corresponding dataset split, trains the DeepCSI classifier, and prints
// the same rows/series the paper reports. DEEPCSI_SCALE=full selects
// paper-like scale; the default quick scale is sized for a single core.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "dataset/scale.h"
#include "dataset/splits.h"

namespace deepcsi::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void print_header(const std::string& figure, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("DeepCSI reproduction — %s\n", figure.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("scale: %s\n",
              dataset::full_scale_selected() ? "full (paper-like)" : "quick");
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

inline const char* set_name(dataset::SetId id) {
  switch (id) {
    case dataset::SetId::kS1: return "S1";
    case dataset::SetId::kS2: return "S2";
    case dataset::SetId::kS3: return "S3";
    case dataset::SetId::kS4: return "S4";
    case dataset::SetId::kS5: return "S5";
    case dataset::SetId::kS6: return "S6";
  }
  return "?";
}

// Train + evaluate one configuration and report the result row.
inline core::ExperimentResult run_and_report(
    const std::string& label, const dataset::SplitSets& split,
    const core::ExperimentConfig& cfg, bool print_confusion = false) {
  Stopwatch timer;
  const core::ExperimentResult result = core::run_classification(split, cfg);
  std::printf("%-36s  accuracy %6.2f%%  (val %5.1f%%, train n=%zu, test n=%zu, %.1fs)\n",
              label.c_str(), 100.0 * result.accuracy,
              100.0 * result.best_val_accuracy, split.train.size(),
              split.test.size(), timer.seconds());
  if (print_confusion) {
    std::printf("%s", result.confusion.to_string().c_str());
  }
  std::fflush(stdout);
  return result;
}

}  // namespace deepcsi::bench
