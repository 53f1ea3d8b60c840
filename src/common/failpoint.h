// Deterministic fault-injection failpoints.
//
// A failpoint is a named site in the code where a test (or an operator
// running a chaos drill) can ask for a failure to be synthesized instead
// of the real operation: an injected errno on a syscall shim, a forced
// rejection on a queue push, a truncated write. Sites are activated via
// the DEEPCSI_FAILPOINTS environment variable or programmatically
// (failpoints::configure), and every decision is drawn from a per-site
// seeded generator — the same spec replays the same fire pattern, which
// is what lets the chaos suite assert verdict parity under a storm.
//
// Spec grammar (';'-separated site=action pairs):
//
//   DEEPCSI_FAILPOINTS = spec (';' spec)*
//   spec    = site '=' action
//   action  = kind '(' [arg (',' arg)*] ')'
//   kind    = 'err' | 'reject' | 'short'
//   arg     = ERRNO-NAME        (err only, e.g. ECONNRESET — required)
//           | 'p=' float        probability per evaluation   (default 1)
//           | 'n=' int          disarm after n fires         (default ∞)
//           | 'skip=' int       let the first k evaluations pass
//           | 'seed=' int       generator seed (default: hash of site)
//
//   err(E,...)  the site synthesizes errno E (the syscall shims return
//               -1 with errno set; queue.push maps EAGAIN to kWouldBlock)
//   reject(...) the site refuses the operation (queue.push -> kRejected)
//   short(...)  a write/read shim transfers at most one byte (partial
//               I/O storms; meaningless on non-I/O sites)
//
// Example:
//   DEEPCSI_FAILPOINTS='net.send=err(ECONNRESET,p=0.01,seed=42);queue.push=reject(n=50)'
//
// A malformed spec is a usage error (diagnostic + exit 2), same contract
// as DEEPCSI_SIMD — never a silent no-op.
//
// Cost when a site is not armed: one relaxed atomic load, no branches
// taken, no locks — cheap enough to leave compiled into release builds
// (perf_gate_test holds the measured per-check cost to 10 ns).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace deepcsi::common {

enum class FailKind : std::uint8_t { kErr, kReject, kShort };

// What an armed site asked the caller to do this evaluation.
struct FailpointFire {
  FailKind kind = FailKind::kErr;
  int err = 0;  // errno to synthesize (kErr only)
};

namespace failpoint_detail {

// Shared per-site state: the registry owns one State per site name, and
// every Failpoint object for that name aliases it (a template may
// instantiate the same site in several TUs).
struct State;

std::shared_ptr<State> acquire(const std::string& name);
std::optional<FailpointFire> evaluate_slow(State& state);
const std::atomic<bool>& armed_flag(const State& state);

}  // namespace failpoint_detail

// One injection site. Construct as a function-local static at the point
// of use:
//
//   static common::Failpoint fp("net.send");
//   if (auto f = fp.evaluate()) { errno = f->err; return -1; }
class Failpoint {
 public:
  explicit Failpoint(const char* name)
      : state_(failpoint_detail::acquire(name)) {}

  // Fast path: a single relaxed load while the site is unarmed.
  std::optional<FailpointFire> evaluate() {
    if (!failpoint_detail::armed_flag(*state_).load(std::memory_order_relaxed))
      return std::nullopt;
    return failpoint_detail::evaluate_slow(*state_);
  }

 private:
  std::shared_ptr<failpoint_detail::State> state_;
};

namespace failpoints {

// Arms `site` with `action` ("err(ECONNRESET,p=0.5)", "reject(n=3)", ...).
// Throws std::invalid_argument on a malformed action.
void configure(const std::string& site, const std::string& action);

// Applies a full spec string ("site=action;site=action"). `source` names
// the origin for diagnostics. Throws std::invalid_argument.
void configure_spec(const std::string& spec, const std::string& source);

// Disarms one site / every site (counters are preserved).
void clear(const std::string& site);
void clear_all();

// Times the site fired (injected a failure) / was evaluated while armed.
std::uint64_t fire_count(const std::string& site);
std::uint64_t evaluation_count(const std::string& site);

// Sites evaluated at least once or configured, sorted by name.
std::vector<std::string> known_sites();

// RAII spec application for tests: arms on construction, clear_all() on
// destruction so a failed assertion can't leak a storm into later tests.
class ScopedSpec {
 public:
  explicit ScopedSpec(const std::string& spec) {
    configure_spec(spec, "ScopedSpec");
  }
  ~ScopedSpec() { clear_all(); }
  ScopedSpec(const ScopedSpec&) = delete;
  ScopedSpec& operator=(const ScopedSpec&) = delete;
};

}  // namespace failpoints
}  // namespace deepcsi::common
