// Self-test of the benchmark's own arithmetic (src/metrics.h, the span
// self time in src/trace.h). Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota_ms(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // descending
  return v;
}

void percentile_rule() {
  using perfbench::percentile;
  using perfbench::samples_beyond;
  // Nearest rank on 1..1000: p50 is 500, p99 is 990 with 10 beyond it.
  EXPECT(percentile(iota_ms(1000), 50.0) == 500.0);
  EXPECT(percentile(iota_ms(1000), 99.0) == 990.0);
  EXPECT(samples_beyond(1000, 99.0) == 10);
  EXPECT(samples_beyond(10000, 99.0) == 100);
  // 999 samples leave only 9 beyond p99: refused, not rounded.
  EXPECT(samples_beyond(999, 99.0) == 9);
  EXPECT(throws([] { percentile(iota_ms(999), 99.0); }));
  // Medians need no tail; one sample is its own median.
  EXPECT(percentile({7.0}, 50.0) == 7.0);
  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(throws([] { percentile({}, 50.0); }));
}

void windows() {
  // Ten windows of 100: window k holds 1..100 plus 1000*k on its last
  // sample; p50 per window is 50 everywhere, so one wild window or one
  // wild sample per window does not move the median.
  std::vector<double> v;
  for (int k = 0; k < 10; ++k)
    for (int i = 1; i <= 100; ++i) v.push_back(i == 100 ? 1000.0 * (k + 1) : i);
  EXPECT(perfbench::windowed_percentile(v, 100, 50.0) == 50.0);
  // p90 of a 100-sample window has exactly 10 beyond; a trailing partial
  // window is ignored.
  v.push_back(1e9);
  EXPECT(perfbench::windowed_percentile(v, 100, 90.0) == 90.0);
  EXPECT(throws([&] { perfbench::windowed_percentile(v, 100, 99.0); }));
  // Completions every 1 ms for 1000, then a 1 s stall, then every 1 ms:
  // windows of 100 see 1000/s except the one spanning the stall.
  std::vector<std::int64_t> done;
  for (int i = 0; i < 2001; ++i) done.push_back(i * 1'000'000ll + (i >= 1000 ? 1'000'000'000ll : 0));
  EXPECT(std::abs(perfbench::windowed_rate(done, 100) - 1000.0) < 1e-6);
  EXPECT(throws([] { perfbench::windowed_rate({1, 2}, 2); }));
}

void lateness_from_due() {
  // Reports due every 1 ms; the generator stalls 5 ms before report 1,
  // so reports 1 and 2 go out late and their latency counts the stall.
  const std::vector<std::int64_t> due = {0, 1'000'000, 2'000'000};
  const std::vector<std::int64_t> sent = {0, 6'000'000, 6'100'000};
  const std::vector<std::int64_t> done = {500'000, 7'000'000, 7'000'000};
  const std::vector<double> late = perfbench::lateness_ms(due, sent);
  EXPECT(late[0] == 0.0 && late[1] == 5.0 && late[2] == 4.1);
  const std::vector<double> lat = perfbench::latencies_ms(due, done);
  EXPECT(lat[0] == 0.5 && lat[1] == 6.0 && lat[2] == 5.0);
  // Lateness is never negative, even with a clock tick before due.
  EXPECT(perfbench::lateness_ms({10}, {5})[0] == 0.0);
  EXPECT(throws([&] { perfbench::latencies_ms(due, {1}); }));
}

void failed_accounting() {
  perfbench::Tally t;
  t.offered = 1000;
  t.classified = 990;  // 10 dropped, rejected or malformed
  t.mismatched = 5;    // classified, but not what the offline reference says
  EXPECT(t.failed() == 15);
  EXPECT(t.failed_frac() == 0.015);
  perfbench::Tally clean{100, 100, 0};
  EXPECT(clean.failed() == 0 && clean.failed_frac() == 0.0);
  perfbench::Tally bad{10, 11, 0};
  EXPECT(throws([&] { (void)bad.failed(); }));
}

void self_time() {
  using perfbench::SpanTimes;
  // root [0,100) with children [10,30), [20,50) (overlapping: cover 40)
  // and [90,120) (clipped to 10); grandchild [15,25) under child 1.
  const std::vector<SpanTimes> spans = {
      {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {90, 120, 0}, {15, 25, 1}};
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  // The Tracer's per-name totals use the same rule.
  perfbench::Tracer tr;
  const std::int32_t root = tr.add("r", 0, 100, -1, 7);
  tr.add("c", 10, 40, root, 7);
  tr.add("c", 30, 60, root, 7);
  const auto by = tr.by_name();
  EXPECT(by.at("r").self_ns == 50.0 && by.at("r").count == 1);
  EXPECT(by.at("c").self_ns == 60.0 && by.at("c").count == 2);
  EXPECT(throws([] { perfbench::self_times({{0, 1, 5}}); }));
}

}  // namespace

int main() {
  percentile_rule();
  windows();
  lateness_from_due();
  failed_accounting();
  self_time();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
