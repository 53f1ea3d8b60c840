// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around calls into each layer's public
// functions (the library is not instrumented), kept in memory and
// written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string: a layer.function label
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t id = 0;   // request id: the report's sequence index
};

// Not thread-safe: the benchmark records spans from one thread at a time
// (live-phase timestamps are kept in per-report arrays and turned into
// spans after the phase).
class Tracer {
 public:
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::uint64_t id) {
    spans_.push_back(Span{name, start, end, parent, id});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  // Opens a span whose end is filled in by close().
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t id) {
    return add(name, now_ns(), 0, parent, id);
  }
  void close(std::int32_t span) { spans_[static_cast<std::size_t>(span)].end = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    std::size_t count = 0;
    double total_ns = 0.0;  // span time
    double self_ns = 0.0;   // span time minus child coverage
  };
  // Span and self time summed per span name.
  std::map<std::string, LayerTime> by_name() const;

  // One CSV line per span: name,id,parent,start_ns,end_ns,self_ns.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
