// TCP ingest front end: the network door into the streaming
// authentication service. N clients connect and stream feedback-report
// frames; the server reassembles them across partial reads, decodes them
// into capture::ObservedFeedback, and hands each to the submit callback
// (AuthService::try_submit behind net::Server).
//
// Backpressure maps onto per-connection socket behaviour instead of
// unbounded buffering or a stalled loop:
//
//   submit -> kAccepted    keep reading.
//   submit -> kWouldBlock  (kBlock policy, lane queue full) the decoded
//                          report is parked on the connection and its
//                          EPOLLIN is toggled OFF — the server stops
//                          reading that socket, the kernel receive
//                          buffer fills, and TCP flow control pushes the
//                          pressure back to the sender. A short-timeout
//                          tick retries the parked report and re-arms
//                          EPOLLIN once the queue has room.
//   submit -> kRejected    (kReject policy full / draining) the report
//                          is counted as a per-connection drop and
//                          reading continues — load shedding at the
//                          edge, the stream stays live.
//   (kDropOldest never refuses: the queue evicts internally and counts
//    dropped_oldest in its own stats.)
//
// Framing errors (bad magic/version, oversized length) poison the
// stream, so the connection is closed and counted; a semantically
// malformed report payload inside a well-framed frame is counted and
// skipped — one bad frame does not kill a good sender.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "capture/monitor.h"
#include "common/report_queue.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/stats.h"

namespace deepcsi::net {

struct IngestConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; read back with port()
  std::string bind_addr = "127.0.0.1";
  std::size_t max_conns = 64;     // excess connections are closed on accept
  int retry_interval_ms = 1;      // paused-connection resubmit cadence
  // Load-shedding hook, polled on every accept. Returning false refuses
  // the new connection (closed immediately, counted as conns_shed) while
  // established streams keep flowing — the degradation ladder sacrifices
  // NEW work first. Called on the loop thread; must be cheap and must
  // not block.
  std::function<bool()> accept_gate;
};

class TcpIngestServer {
 public:
  // Must not block: return kWouldBlock instead (try_push semantics —
  // consume the report only on kAccepted).
  using SubmitFn =
      std::function<common::PushStatus(capture::ObservedFeedback&)>;

  TcpIngestServer(IngestConfig cfg, SubmitFn submit);
  ~TcpIngestServer();

  TcpIngestServer(const TcpIngestServer&) = delete;
  TcpIngestServer& operator=(const TcpIngestServer&) = delete;

  // Binds + listens + spawns the loop thread. Throws on bind failure.
  void start();
  // The bound port (valid after start(); resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

  // The `serve --once` termination rule: returns true once at least one
  // connection has been accepted and every connection has closed again,
  // or once stop() has been called from elsewhere. Waits at most
  // `interval` and returns false if neither held by then, so the caller
  // can interleave other work (signal checks, periodic snapshots) with
  // the wait.
  bool wait_until_idle_for(std::chrono::milliseconds interval);

  // Stops the loop, closes all sockets, joins. Idempotent.
  void stop();

  IngestStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    FrameAssembler assembler;
    bool paused = false;        // EPOLLIN off while the queue is full
    bool has_pending = false;   // a decoded report waiting for queue room
    capture::ObservedFeedback pending;
    std::uint64_t submitted = 0;
    std::uint64_t dropped = 0;
  };

  void on_accept(std::uint32_t events);
  void on_readable(Conn& conn, std::uint32_t events);
  // Decodes and submits every complete frame buffered on the connection.
  // Returns false when the connection paused (queue full, EPOLLIN off).
  bool drain_frames(Conn& conn);
  bool submit_one(Conn& conn, capture::ObservedFeedback& obs);
  void pause(Conn& conn);
  void unpause(Conn& conn);
  void close_conn(int fd);
  void tick();

  IngestConfig cfg_;
  SubmitFn submit_;
  EventLoop loop_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::size_t paused_conns_ = 0;  // loop thread only; drives the timeout
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  // loop thread only

  mutable std::mutex mu_;  // guards stats_ and the idle condition
  std::condition_variable idle_cv_;
  IngestStats stats_;
  bool stopping_ = false;
};

}  // namespace deepcsi::net
