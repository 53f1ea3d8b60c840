// Client side of the wire protocol: NetClient streams feedback-report
// frames into a TcpIngestServer (the replay driver and perfbench use
// it), and VerdictSubscriber consumes the VerdictPublisher stream.
// Both are deliberately simple blocking wrappers — backpressure from a
// paused server surfaces as send() blocking in the kernel, which is
// exactly the flow-control behaviour the server's EPOLLIN toggling is
// designed to produce.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "capture/monitor.h"
#include "net/protocol.h"

namespace deepcsi::net {

// Opt-in reconnect behaviour for the blocking clients. Disabled by
// default (attempts == 0) so failure semantics stay exactly as before:
// one failed send/recv means the peer is gone. When enabled, a failed
// operation closes the socket, sleeps per common::Backoff (capped
// exponential + seeded jitter — deterministic schedules under chaos),
// redials, and retries. NetClient resends the WHOLE frame after a
// reconnect: an injected or real send failure always leaves an
// incomplete frame on the wire, the server discards partial trailing
// bytes at EOF, so the retried frame is delivered exactly once.
struct ReconnectPolicy {
  int attempts = 0;  // redials per failed operation; 0 disables reconnect
  std::chrono::milliseconds backoff_base{20};
  std::chrono::milliseconds backoff_cap{1000};
  std::chrono::milliseconds dial_timeout{2000};  // per redial
  std::uint64_t jitter_seed = 0;
};

class NetClient {
 public:
  // Retries until the server is listening or the timeout lapses (lets a
  // driver race a freshly forked server). Throws on final failure.
  static NetClient connect(const std::string& host, std::uint16_t port,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000));

  NetClient() = default;
  ~NetClient();
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // Encodes and writes one report frame. With a reconnect policy set, a
  // failed write triggers redial-and-resend (see ReconnectPolicy); false
  // only once the peer stayed unreachable through every attempt.
  bool send_report(const capture::ObservedFeedback& obs);
  // Raw bytes, unframed — the malformed-input tests poke the server with
  // garbage through this. Never reconnects (a resend of a partially
  // delivered raw blob is not idempotent).
  bool send_bytes(std::span<const std::uint8_t> data);

  void set_reconnect(const ReconnectPolicy& policy) { reconnect_ = policy; }
  std::uint64_t reconnects() const { return reconnects_; }

  bool connected() const { return fd_ >= 0; }
  void close();

 private:
  bool redial();

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  ReconnectPolicy reconnect_;
  std::uint64_t reconnects_ = 0;
};

// Blocking reader over a publisher connection. next_frame() returns
// nullopt at orderly EOF (the publisher flushed and closed) or on a
// framing error (check error()).
class VerdictSubscriber {
 public:
  static VerdictSubscriber connect(const std::string& host,
                                   std::uint16_t port,
                                   std::chrono::milliseconds timeout =
                                       std::chrono::milliseconds(5000));

  VerdictSubscriber() = default;
  ~VerdictSubscriber();
  VerdictSubscriber(VerdictSubscriber&& other) noexcept;
  VerdictSubscriber& operator=(VerdictSubscriber&& other) noexcept;
  VerdictSubscriber(const VerdictSubscriber&) = delete;
  VerdictSubscriber& operator=(const VerdictSubscriber&) = delete;

  std::optional<FrameAssembler::Frame> next_frame();
  FrameAssembler::Error error() const { return assembler_.error(); }

  // Re-dials the publisher after the stream dropped mid-run (a server
  // restart). EOF is the publisher's ORDERLY end-of-stream signal, so
  // the subscriber never reconnects on its own — the caller decides the
  // stream should continue (drive does, while its replay is incomplete)
  // and calls this. Buffered partial frames are discarded; the policy's
  // backoff paces the redials. Returns false once attempts run out.
  bool reconnect(const ReconnectPolicy& policy);

  bool connected() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  FrameAssembler assembler_;
};

}  // namespace deepcsi::net
