#include "nn/metrics.h"

#include <cstdio>
#include <sstream>

namespace deepcsi::nn {

void ConfusionMatrix::add(int actual, int predicted) {
  DEEPCSI_CHECK(actual >= 0 && actual < num_classes_);
  DEEPCSI_CHECK(predicted >= 0 && predicted < num_classes_);
  ++counts_[static_cast<std::size_t>(actual) *
                static_cast<std::size_t>(num_classes_) +
            static_cast<std::size_t>(predicted)];
}

long ConfusionMatrix::count(int actual, int predicted) const {
  DEEPCSI_CHECK(actual >= 0 && actual < num_classes_);
  DEEPCSI_CHECK(predicted >= 0 && predicted < num_classes_);
  return counts_[static_cast<std::size_t>(actual) *
                     static_cast<std::size_t>(num_classes_) +
                 static_cast<std::size_t>(predicted)];
}

long ConfusionMatrix::total() const {
  long t = 0;
  for (long c : counts_) t += c;
  return t;
}

double ConfusionMatrix::accuracy() const {
  const long t = total();
  if (t == 0) return 0.0;
  long correct = 0;
  for (int i = 0; i < num_classes_; ++i) correct += count(i, i);
  return static_cast<double>(correct) / static_cast<double>(t);
}

double ConfusionMatrix::rate(int actual, int predicted) const {
  long row = 0;
  for (int p = 0; p < num_classes_; ++p) row += count(actual, p);
  if (row == 0) return 0.0;
  return static_cast<double>(count(actual, predicted)) /
         static_cast<double>(row);
}

std::string ConfusionMatrix::to_string() const {
  std::ostringstream os;
  os << "actual\\pred";
  for (int p = 0; p < num_classes_; ++p) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%6d", p);
    os << buf;
  }
  os << '\n';
  for (int a = 0; a < num_classes_; ++a) {
    char head[16];
    std::snprintf(head, sizeof(head), "%10d ", a);
    os << head;
    for (int p = 0; p < num_classes_; ++p) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%6.2f", rate(a, p));
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace deepcsi::nn
