// Shared helpers for the test binaries.
#pragma once

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::tests {

// Restores the global pool size on scope exit so tests stay independent.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(common::num_threads()) {}
  ~ThreadGuard() { common::set_num_threads(saved_); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

 private:
  int saved_;
};

// Restores the active SIMD backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active()) {}
  ~BackendGuard() { simd::set_active(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

// Tests loop over simd::available_backends() so the same bit-identity
// contracts are pinned under every backend the host can run.
using simd::available_backends;

inline bool has_backend(simd::Backend b) {
  const std::vector<simd::Backend> avail = simd::available_backends();
  return std::find(avail.begin(), avail.end(), b) != avail.end();
}

}  // namespace deepcsi::tests
