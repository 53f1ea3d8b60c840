// The `serve --listen` composition: TCP ingest -> AuthService ->
// SessionTable -> VerdictPublisher, plus the policies a long-running
// monitor needs around it — session restore before the first report,
// load shedding at accept, periodic session snapshots, model hot swap
// (by signal, by watching the weights file, by shadow promotion), and
// the drain that ends a run with a full verdict snapshot and the stats
// frame. The CLI and the loopback tests build the same object, so the
// wiring the binary runs is the wiring the tests check.
//
// server.{h,cc} are the only files under net/ that depend on serving/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/pipeline.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/publisher.h"
#include "serving/options.h"
#include "serving/service.h"
#include "serving/shadow.h"
#include "serving/stats.h"

namespace deepcsi::net {

// One station's verdict as the wire's kVerdictUpdate message.
VerdictMsg to_verdict_msg(const serving::StationVerdict& v);

// The accept gate's load-shedding decision: given the queued-report
// depth and whether the gate is shedding now, returns whether it sheds
// from here on. Shedding starts once depth reaches `high` and stops only
// once depth has fallen to `low`, so a depth hovering at one threshold
// does not flap the gate on every accept.
bool shed_state(std::size_t depth, bool shedding, std::size_t high,
                std::size_t low);

class Server {
 public:
  // Builds the stack for `o` (its service config, ports, watermarks,
  // state file, model path and lifecycle knobs) around `auth`, which
  // must outlive the server. `shadow`, when given, is the candidate
  // `o.shadow_model` names; it is scored on a sample of the stream from
  // the first report on. Nothing listens until start().
  Server(const serving::ServeOptions& o, core::Authenticator& auth,
         std::optional<core::Authenticator> shadow = std::nullopt);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Restores the session snapshot at `o.state_file` (when set), then
  // starts the publisher, the service and ingest. A corrupt snapshot is
  // refused whole: returns false with the reason in *error and starts
  // nothing. Throws when a socket cannot bind.
  bool start(std::string* error);

  std::uint16_t ingest_port() const { return ingest_.port(); }
  std::uint16_t publish_port() const { return pub_ ? pub_->port() : 0; }
  const serving::AuthService& service() const { return service_; }

  // The once-mode wait: true once a client wave has come and gone.
  bool wait_until_idle_for(std::chrono::milliseconds interval) {
    return ingest_.wait_until_idle_for(interval);
  }

  // Periodic work, called from the serve loop: the --model-watch stamp
  // check, shadow promotion and the periodic session snapshot, each
  // acting only once its own interval has passed.
  void tick();

  // Hot-swaps the model from `o.model` now (the SIGHUP entry), logging
  // under `trigger`. A failed swap keeps the incumbent serving.
  bool swap_model(const char* trigger);

  // Ends the run: stops ingest, classifies everything queued, saves the
  // final session snapshot, folds the shadow, ingest and publish
  // counters into the stats, and publishes a full verdict snapshot and
  // then the stats frame before closing the publisher. The frame carries
  // the returned stats less their publish section, which counts it.
  serving::StatsSnapshot drain();

 private:
  // mtime+size stamp for --model-watch. Nanosecond mtime so back-to-back
  // rewrites in one second still change the stamp.
  struct FileStamp {
    std::int64_t mtime_ns = -1;  // -1 = file absent
    std::int64_t size = -1;
    bool operator==(const FileStamp&) const = default;
  };
  static FileStamp stamp_of(const std::string& path);
  // Runs in the member initializers: uses only o_ and members declared
  // before ingest_.
  IngestConfig ingest_config();
  bool attempt_swap(const std::string& path, const char* trigger);
  void save_sessions(const char* what);

  const serving::ServeOptions o_;
  core::Authenticator& auth_;
  // The publisher and the shadow scorer outlive the service: lane threads
  // call into both until the service drains.
  std::optional<VerdictPublisher> pub_;
  std::optional<serving::ShadowScorer> shadow_;
  serving::AuthService service_;
  std::atomic<bool> shedding_{false};
  TcpIngestServer ingest_;

  FileStamp watch_prev_;       // stamp at the last poll
  FileStamp watch_attempted_;  // stamp of the last swap attempt
  std::chrono::steady_clock::time_point last_watch_{};
  std::chrono::steady_clock::time_point last_save_{};
};

}  // namespace deepcsi::net
