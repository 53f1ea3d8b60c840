#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

std::vector<std::int64_t> self_of(const std::vector<Span>& spans) {
  std::vector<SpanTimes> t(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    t[i] = SpanTimes{spans[i].start, spans[i].end, spans[i].parent};
  return self_times(t);
}

}  // namespace

std::map<std::string, Tracer::LayerTime> Tracer::by_name() const {
  const std::vector<std::int64_t> self = self_of(spans_);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& lt = out[spans_[i].name];
    ++lt.count;
    lt.total_ns += static_cast<double>(spans_[i].end - spans_[i].start);
    lt.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_of(spans_);
  std::fprintf(f, "name,id,parent,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%llu,%d,%lld,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
