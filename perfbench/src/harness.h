// Shared declarations of the observer benchmark: run options, the result
// every workload fills in, and process-level probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "inputs.h"
#include "nn/trainer.h"
#include "serving/session_table.h"
#include "trace.h"

namespace deepcsi::net {
class VerdictPublisher;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // model artifacts and span files go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // printed in the JSON with --trace 0
  std::vector<Metric> per_layer;   // printed in the JSON with --trace 1
  std::vector<Metric> info;        // printed in the table only

  void fail(const std::string& why);
};

inline void add(std::vector<Metric>& to, const char* name, double value, const char* unit) {
  to.push_back(Metric{name, value, unit});
}

// Allocations made so far by the calling thread (counting operator new).
std::uint64_t thread_allocs();

// Process CPU time (user + system, all threads) in seconds.
double process_cpu_seconds();
// CPU time of the calling thread alone, in seconds.
double thread_cpu_seconds();

// Current resident set in MiB (0 when the platform cannot say).
double rss_mib();
// Live heap (operator new bytes not yet deleted, all threads) in MiB.
double heap_live_mib();

// ---------------------------------------------------------- shared stages

// Replays reports [0, count) of `stream` through the public stage
// functions in the workload's pipeline order — its own front end (parse +
// unpack for 802.11 frames, decode_report for wire frames), fill_features,
// a leased InferenceContext forward at batch 64 (and at batch 1 too when
// `forward_b1`), classify_batch_into, SessionTable::record on a fresh table
// with `sessions` (filled to its ceiling first, so a bounded table evicts
// on every record) and, when `pub` is not null, VerdictPublisher::publish.
// With a tracer, one span is recorded per call.
struct ReplayResult {
  std::size_t reports = 0;
  double cpu_s = 0.0;                // process CPU time of the replay loop
  std::uint64_t unpack_allocs = 0;   // summed over the reports
  std::uint64_t decode_allocs = 0;
};
ReplayResult stage_replay(const deepcsi::core::Authenticator& auth,
                          const deepcsi::serving::SessionConfig& sessions,
                          const ReportStream& stream, Encoding enc, std::size_t count,
                          bool forward_b1, deepcsi::net::VerdictPublisher* pub, Tracer* tr);

// The training loop of nn::train_classifier (shuffle, gather, forward,
// loss, backward, Adam step; the validation tail evaluated every epoch,
// the best epoch's weights restored) copied here so that each call can be
// timed. Only the traced run uses it, for the nn.train_* spans and the
// step latency; every other training figure comes from
// nn::train_classifier itself. Odd epochs run with spans, even epochs
// without, so the two halves give the tracing overhead.
struct TrainLoopResult {
  std::vector<double> step_ms;  // one per optimizer step
  double untraced_cpu_per_sample = 0.0;  // epochs run without spans
  double traced_cpu_per_sample = 0.0;    // epochs run with spans
};
TrainLoopResult traced_train_loop(deepcsi::nn::Sequential& model,
                                  const deepcsi::nn::LabeledSet& train, int epochs,
                                  std::uint64_t seed, Tracer& tr);

// Prints the per-layer self-time table of a traced run and writes the
// span file next to the model artifacts.
void report_trace(const Tracer& tr, const Options& opt);

RunResult run_serving_workload(const Options& opt);
RunResult run_train_workload(const Options& opt);
bool is_serving_workload(const std::string& name);

}  // namespace perfbench
