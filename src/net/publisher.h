// Verdict publisher: streams per-station verdict transitions (and a
// final stats frame) from the serving pipeline to any number of TCP
// subscribers.
//
// Producer side (AuthService consumer threads) calls publish(): the
// frame is encoded once and appended to every subscriber's write buffer
// under a lock, then the loop is woken to flush. Each subscriber's
// buffer is bounded — a slow reader whose buffer would exceed
// max_buffer_bytes has the frame counted as dropped for that subscriber
// instead of queued, so a stalled consumer can never grow server memory
// without bound. Partial writes keep the remainder buffered and arm
// EPOLLOUT for that fd; a closed peer is detected via EPOLLIN/recv==0
// or a failed send and reaped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/stats.h"

namespace deepcsi::net {

struct PublisherConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; read back with port()
  std::string bind_addr = "127.0.0.1";
  std::size_t max_conns = 64;
  std::size_t max_buffer_bytes = 1 << 20;  // per subscriber
  // 0 = kernel default. Tests shrink this to force EAGAIN partial writes
  // deterministically; production leaves it alone.
  int sndbuf_bytes = 0;
};

class VerdictPublisher {
 public:
  explicit VerdictPublisher(PublisherConfig cfg);
  ~VerdictPublisher();

  VerdictPublisher(const VerdictPublisher&) = delete;
  VerdictPublisher& operator=(const VerdictPublisher&) = delete;

  void start();
  std::uint16_t port() const { return port_; }

  // Thread-safe; non-blocking (a slow subscriber drops, never stalls the
  // serving pipeline).
  void publish(const VerdictMsg& msg);
  // A kStats frame whose payload is `json` (StatsSnapshot::render_json()).
  void publish_stats(std::string_view json);

  std::size_t subscriber_count() const;

  // Waits (bounded) for all subscriber buffers to flush, then stops the
  // loop and closes everything. Idempotent.
  void stop(std::chrono::milliseconds flush_timeout =
                std::chrono::milliseconds(2000));

  PublisherStats stats() const;

 private:
  struct Sub {
    int fd = -1;
    std::vector<std::uint8_t> buf;  // pending bytes [off, buf.size())
    std::size_t off = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    bool dead = false;        // reaped by the loop on next pass
    std::uint64_t dropped = 0;
  };

  void publish_frame(const std::vector<std::uint8_t>& frame);
  void on_accept(std::uint32_t events);
  void on_subscriber_event(int fd, std::uint32_t events);
  // Loop thread only, called with mu_ held: sends what it can, arms or
  // disarms EPOLLOUT to match the remainder, marks the sub dead on a
  // hard send error.
  void flush_sub_locked(Sub& sub);
  // Loop thread only, called with mu_ held: closes and erases dead subs.
  void reap_dead_locked();
  void tick();

  PublisherConfig cfg_;
  EventLoop loop_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;  // guards subs_ buffers/flags and stats_
  std::condition_variable flushed_cv_;
  std::unordered_map<int, std::unique_ptr<Sub>> subs_;
  PublisherStats stats_;
  bool stopping_ = false;
};

}  // namespace deepcsi::net
