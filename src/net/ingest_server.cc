#include "net/ingest_server.h"

#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/socket.h"

namespace deepcsi::net {

TcpIngestServer::TcpIngestServer(IngestConfig cfg, SubmitFn submit)
    : cfg_(std::move(cfg)), submit_(std::move(submit)) {
  DEEPCSI_CHECK(submit_ != nullptr);
}

TcpIngestServer::~TcpIngestServer() { stop(); }

void TcpIngestServer::start() {
  DEEPCSI_CHECK(!started_);
  listen_fd_ = listen_tcp(cfg_.port, cfg_.bind_addr);
  port_ = local_port(listen_fd_);
  loop_.add(listen_fd_, EPOLLIN,
            [this](std::uint32_t events) { on_accept(events); });
  loop_.set_tick([this] { tick(); });
  // While any connection is parked on a full queue, poll with a short
  // timeout so the retry tick fires even with no socket activity.
  loop_.set_timeout_provider([this]() -> int {
    return paused_conns_ > 0 ? cfg_.retry_interval_ms : -1;
  });
  started_ = true;
  thread_ = std::thread([this] { loop_.run(); });
}

bool TcpIngestServer::wait_until_idle_for(std::chrono::milliseconds interval) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, interval, [&] {
    return stopping_ ||
           (stats_.conns_accepted > 0 && stats_.conns_open == 0);
  });
}

void TcpIngestServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  idle_cv_.notify_all();
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  for (auto& [fd, conn] : conns_) close_fd(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
  }
}

IngestStats TcpIngestServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TcpIngestServer::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = sys_accept(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (cfg_.accept_gate && !cfg_.accept_gate()) {
      close_fd(fd);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.conns_shed;
      continue;
    }
    if (conns_.size() >= cfg_.max_conns) {
      close_fd(fd);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.conns_rejected;
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conns_[fd] = std::move(conn);
    loop_.add(fd, EPOLLIN,
              [this, raw](std::uint32_t events) { on_readable(*raw, events); });
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.conns_accepted;
    ++stats_.conns_open;
  }
}

void TcpIngestServer::on_readable(Conn& conn, std::uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Deliver whatever is already buffered before tearing down — a client
    // that writes everything and closes immediately still lands all of
    // its reports (unless the queue is full: a paused conn with a peer
    // gone is handled in tick()).
    if (!conn.paused) drain_frames(conn);
    if (!conn.paused) close_conn(conn.fd);
    return;
  }
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t r = sys_recv(conn.fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn.assembler.append(buf, static_cast<std::size_t>(r));
      if (!drain_frames(conn)) return;  // paused — stop reading this fd
      continue;
    }
    if (r == 0) {  // orderly shutdown from the peer
      close_conn(conn.fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_conn(conn.fd);  // hard socket error
    return;
  }
}

bool TcpIngestServer::drain_frames(Conn& conn) {
  // First retry the report parked by a previous kWouldBlock; frames
  // behind it must wait so per-connection order is preserved.
  if (conn.has_pending) {
    if (!submit_one(conn, conn.pending)) return false;
    conn.has_pending = false;
    if (conn.paused) unpause(conn);
  }
  FrameAssembler::Frame frame;
  while (conn.assembler.next(frame)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.frames;
    }
    if (frame.type != static_cast<std::uint8_t>(FrameType::kFeedbackReport)) {
      // Unknown-but-well-framed types are skipped, not fatal: old clients
      // keep working against a server that grows new frame types.
      continue;
    }
    auto obs = decode_report(
        std::span<const std::uint8_t>(frame.payload.data(), frame.payload.size()));
    if (!obs) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.malformed_payloads;
      continue;
    }
    if (!submit_one(conn, *obs)) {
      conn.pending = std::move(*obs);
      conn.has_pending = true;
      pause(conn);
      return false;
    }
  }
  if (conn.assembler.error() != FrameAssembler::Error::kNone) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.protocol_errors;
    }
    close_conn(conn.fd);
    return false;
  }
  return true;
}

bool TcpIngestServer::submit_one(Conn& conn, capture::ObservedFeedback& obs) {
  switch (submit_(obs)) {
    case common::PushStatus::kAccepted: {
      ++conn.submitted;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reports_submitted;
      return true;
    }
    case common::PushStatus::kWouldBlock:
      return false;
    case common::PushStatus::kRejected: {
      ++conn.dropped;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reports_dropped;
      return true;  // counted and shed; keep the stream moving
    }
  }
  return true;  // unreachable
}

void TcpIngestServer::pause(Conn& conn) {
  if (conn.paused) return;
  conn.paused = true;
  ++paused_conns_;
  loop_.modify(conn.fd, 0);  // EPOLLIN off: TCP flow control takes over
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.pauses;
}

void TcpIngestServer::unpause(Conn& conn) {
  if (!conn.paused) return;
  conn.paused = false;
  DEEPCSI_CHECK(paused_conns_ > 0);
  --paused_conns_;
  // Level-triggered epoll re-fires immediately if bytes are waiting.
  loop_.modify(conn.fd, EPOLLIN);
}

void TcpIngestServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->paused) {
    DEEPCSI_CHECK(paused_conns_ > 0);
    --paused_conns_;
  }
  loop_.remove(fd);
  close_fd(fd);
  conns_.erase(it);
  {
    std::lock_guard<std::mutex> lock(mu_);
    DEEPCSI_CHECK(stats_.conns_open > 0);
    --stats_.conns_open;
  }
  idle_cv_.notify_all();
}

void TcpIngestServer::tick() {
  if (paused_conns_ == 0) return;
  // Retry parked reports; collect fds first because drain_frames may
  // close (and erase) a connection mid-iteration.
  std::vector<int> paused_fds;
  paused_fds.reserve(paused_conns_);
  for (const auto& [fd, conn] : conns_)
    if (conn->paused) paused_fds.push_back(fd);
  for (const int fd : paused_fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    drain_frames(*it->second);
  }
}

}  // namespace deepcsi::net
