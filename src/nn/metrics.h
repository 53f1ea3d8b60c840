// Classification metrics: accuracy and confusion matrices (the paper's
// Figs. 8, 9, 11, 15, 16b, 17 are confusion matrices).
#pragma once

#include <string>
#include <vector>

#include "common/check.h"

namespace deepcsi::nn {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes)
      : num_classes_(num_classes),
        counts_(static_cast<std::size_t>(num_classes) *
                static_cast<std::size_t>(num_classes)) {
    DEEPCSI_CHECK(num_classes >= 1);
  }

  void add(int actual, int predicted);

  int num_classes() const { return num_classes_; }
  long count(int actual, int predicted) const;
  long total() const;
  double accuracy() const;
  // Fraction of class `actual` predicted as `predicted` (row-normalized).
  double rate(int actual, int predicted) const;

  // Render as the paper's row-normalized heat map, in text form.
  std::string to_string() const;

 private:
  int num_classes_;
  std::vector<long> counts_;
};

}  // namespace deepcsi::nn
