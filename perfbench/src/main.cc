// The DeepCSI observer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Prints a human-readable table of every metric, then, as the last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"} where metrics holds the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). Exits 1 when a correctness check
// fails, 2 on bad arguments. perfbench/README.md documents the metrics.
#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/rss.h"
#include "harness.h"

namespace perfbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

namespace {
double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}
}  // namespace

double process_cpu_seconds() { return cpu_seconds(RUSAGE_SELF); }

// getrusage splits a thread's run time into user and system by tick
// samples and keeps each part monotonic, so over a few milliseconds its
// sum can read 0 or a whole tick; the thread CPU clock is exact.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double rss_mib() {
  return static_cast<double>(deepcsi::common::process_rss_bytes()) / (1 << 20);
}

namespace {

// Every metric the JSON carries, in BENCHMARK.json order. A workload
// reports 0 for a live-path metric of a layer it does not run (no
// network front end, no service), and the table says so.
struct Name {
  const char* name;
  const char* unit;
};
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"}, {"cpu_per_report_us", "us"}, {"heap_mb", "MiB"}};
constexpr Name kPerLayer[] = {
    {"throughput_rps", "1/s"},         {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},          {"rss_mb", "MiB"},
    {"setup_wall_s", "s"},             {"failed_frac", "ratio"},
    {"train_samples_per_s", "1/s"},    {"test_accuracy", "ratio"},
    {"capture.parse_us", "us"},        {"feedback.unpack_us", "us"},
    {"feedback.unpack_allocs", "count"}, {"dataset.features_us", "us"},
    {"nn.forward_b64_us", "us"},       {"nn.forward_b1_us", "us"},
    {"core.classify_b64_us", "us"},    {"serving.record_us", "us"},
    {"serving.submit_us_p99", "us"},   {"serving.admit_ms_p99", "ms"},
    {"serving.sojourn_ms_p50", "ms"},  {"serving.sojourn_ms_p99", "ms"},
    {"serving.batch_mean", "count"},   {"serving.flush_deadline_frac", "ratio"},
    {"serving.queue_peak", "count"},   {"serving.evicted_per_1k", "count"},
    {"serving.stats_us", "us"},        {"net.decode_us", "us"},
    {"net.decode_allocs", "count"},    {"net.submit_us_p99", "us"},
    {"net.publish_us", "us"},          {"net.publish_frames_per_1k", "count"},
    {"net.publish_dropped", "count"},  {"net.pauses_per_1k", "count"},
    {"nn.train_forward_ms", "ms"},     {"nn.train_backward_ms", "ms"},
    {"nn.optimizer_ms", "ms"},         {"nn.evaluate_ms", "ms"},
    {"dataset.labeled_set_s", "s"},    {"process.cpu_util", "ratio"},
    {"gen.lateness_ms_p99", "ms"},     {"gen.distinct_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},  {"trace.unattributed_frac", "ratio"},
};

const Metric* find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v)
    if (m.name == name) return &m;
  return nullptr;
}

void print_table(const char* title, const std::vector<Metric>& v) {
  if (v.empty()) return;
  std::printf("\n%s\n", title);
  for (const Metric& m : v) std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_local|paper_int8|wire_loopback|train_quick> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || !have_workload || !(opt.seconds > 0.0) ||
      (!is_serving_workload(opt.workload) && opt.workload != "train_quick"))
    return usage();
  std::filesystem::create_directories(opt.work_dir);

  RunResult res;
  try {
    res = opt.workload == "train_quick" ? run_train_workload(opt) : run_serving_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (res.attempted == 0) res.fail("no work was attempted");

  print_table("end-to-end", res.end_to_end);
  print_table("other", res.info);
  print_table("per-layer", res.per_layer);
  std::printf("\n");

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Name& n, const std::vector<Metric>& from) {
    const Metric* m = find(from, n.name);
    double v = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + n.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + n.unit + "\"}";
    first = false;
  };
  if (opt.trace)
    for (const Name& n : kPerLayer) emit(n, res.per_layer);
  else
    for (const Name& n : kEndToEnd) emit(n, res.end_to_end);
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
