// The benchmark's own arithmetic, kept free of any DeepCSI dependency so
// tests/metrics_test.cc can pin it: percentiles with a minimum tail,
// open-loop latency and lateness from due times, failure accounting and
// span self time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

// A percentile is only reported when at least this many samples lie
// beyond it; with fewer, the "tail" is one or two outliers.
inline constexpr std::size_t kMinTailSamples = 10;

// Samples strictly beyond the p-th percentile of n samples (p in [0, 100]).
inline std::size_t samples_beyond(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

// Nearest-rank percentile (the smallest sample with at least p% of the
// samples at or below it). Throws when the sample count leaves fewer
// than kMinTailSamples beyond p — the caller sized the run wrong.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (p > 50.0 && samples_beyond(v.size(), p) < kMinTailSamples)
    throw std::invalid_argument("too few samples beyond the percentile");
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// Steadiness under a shared, noisy host: a run is cut into consecutive
// windows of `w` samples and the statistic is taken per window; the
// median across windows is reported, so one stalled stretch of a run
// moves it by one window, not by its whole weight. Trailing samples that
// do not fill a window are left out.
inline double windowed_percentile(const std::vector<double>& v, std::size_t w, double p) {
  if (w == 0 || v.size() < w) throw std::invalid_argument("fewer samples than one window");
  std::vector<double> per;
  for (std::size_t at = 0; at + w <= v.size(); at += w)
    per.push_back(percentile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(at),
                                                 v.begin() + static_cast<std::ptrdiff_t>(at + w)),
                             p));
  return median(std::move(per));
}

// Steady-state completion rate (per second): completion times in order,
// rate over each window of `w` completions, median across windows.
inline double windowed_rate(std::vector<std::int64_t> done_ns, std::size_t w) {
  if (w == 0 || done_ns.size() < w + 1) throw std::invalid_argument("fewer completions than one window");
  std::sort(done_ns.begin(), done_ns.end());
  std::vector<double> rates;
  for (std::size_t at = 0; at + w < done_ns.size(); at += w) {
    const std::int64_t span = done_ns[at + w] - done_ns[at];
    rates.push_back(span > 0 ? static_cast<double>(w) * 1e9 / static_cast<double>(span) : 0.0);
  }
  return median(std::move(rates));
}

// Open-loop timing, all in nanoseconds on one monotonic clock. A report's
// latency runs from when it was DUE, not from when the generator got
// round to sending it, so a stall that delays later sends is charged to
// every report it delayed. Lateness is how far behind schedule the
// generator sent (never negative: it never sends early).
inline std::vector<double> latencies_ms(const std::vector<std::int64_t>& due_ns,
                                        const std::vector<std::int64_t>& done_ns) {
  if (due_ns.size() != done_ns.size())
    throw std::invalid_argument("due/done size mismatch");
  std::vector<double> out(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i)
    out[i] = static_cast<double>(done_ns[i] - due_ns[i]) / 1e6;
  return out;
}

inline std::vector<double> lateness_ms(const std::vector<std::int64_t>& due_ns,
                                       const std::vector<std::int64_t>& sent_ns) {
  if (due_ns.size() != sent_ns.size())
    throw std::invalid_argument("due/sent size mismatch");
  std::vector<double> out(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i)
    out[i] = static_cast<double>(std::max<std::int64_t>(0, sent_ns[i] - due_ns[i])) / 1e6;
  return out;
}

// Failure accounting over everything offered in a run. A report fails
// when it never produced a prediction (dropped, rejected, malformed,
// lost) or when its prediction disagrees with the offline reference;
// `mismatched` counts only classified reports.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t classified = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const {
    if (classified > offered || mismatched > classified)
      throw std::logic_error("inconsistent tally");
    return (offered - classified) + mismatched;
  }
  double failed_frac() const {
    return offered == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(offered);
  }
};

// Self time of each span: its duration minus the part of that interval
// its direct children cover (overlapping children count once; a child
// sticking out of its parent is clipped). Spans are [start, end) with
// parent = index of the parent span or -1.
struct SpanTimes {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
};

inline std::vector<std::int64_t> self_times(const std::vector<SpanTimes>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const SpanTimes& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size())
      throw std::out_of_range("span parent out of range");
    const SpanTimes& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start, p.start);
    const std::int64_t hi = std::min(s.end, p.end);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (spans[i].end - spans[i].start) - covered;
  }
  return out;
}

}  // namespace perfbench
