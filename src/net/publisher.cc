#include "net/publisher.h"

#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "common/check.h"
#include "net/socket.h"

namespace deepcsi::net {

VerdictPublisher::VerdictPublisher(PublisherConfig cfg)
    : cfg_(std::move(cfg)) {}

VerdictPublisher::~VerdictPublisher() {
  stop(std::chrono::milliseconds(0));
}

void VerdictPublisher::start() {
  DEEPCSI_CHECK(!started_);
  listen_fd_ = listen_tcp(cfg_.port, cfg_.bind_addr);
  port_ = local_port(listen_fd_);
  loop_.add(listen_fd_, EPOLLIN,
            [this](std::uint32_t events) { on_accept(events); });
  loop_.set_tick([this] { tick(); });
  started_ = true;
  thread_ = std::thread([this] { loop_.run(); });
}

void VerdictPublisher::publish(const VerdictMsg& msg) {
  publish_frame(encode_verdict_frame(msg));
}

void VerdictPublisher::publish_stats(std::string_view json) {
  publish_frame(encode_frame(
      FrameType::kStats,
      std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                json.size())));
}

void VerdictPublisher::publish_frame(const std::vector<std::uint8_t>& frame) {
  bool any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_published;
    for (auto& [fd, sub] : subs_) {
      if (sub->dead) continue;
      const std::size_t pending = sub->buf.size() - sub->off;
      if (pending + frame.size() > cfg_.max_buffer_bytes) {
        // Slow subscriber: this frame is dropped for THIS subscriber
        // only — fast subscribers still receive it, and server memory
        // stays bounded.
        ++sub->dropped;
        ++stats_.frames_dropped;
        continue;
      }
      sub->buf.insert(sub->buf.end(), frame.begin(), frame.end());
      any = true;
    }
  }
  if (any) loop_.wake();  // the tick after this wake flushes the buffers
}

std::size_t VerdictPublisher::subscriber_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [fd, sub] : subs_)
    if (!sub->dead) ++n;
  return n;
}

void VerdictPublisher::stop(std::chrono::milliseconds flush_timeout) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    // Give the loop a chance to drain pending bytes to live subscribers
    // before tearing down (bounded: a wedged peer can't hold us hostage).
    const auto deadline = std::chrono::steady_clock::now() + flush_timeout;
    flushed_cv_.wait_until(lock, deadline, [&] {
      for (const auto& [fd, sub] : subs_)
        if (!sub->dead && sub->off < sub->buf.size()) return false;
      return true;
    });
    stopping_ = true;
  }
  loop_.stop();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, sub] : subs_) close_fd(fd);
    subs_.clear();
  }
  if (listen_fd_ >= 0) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
  }
}

PublisherStats VerdictPublisher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void VerdictPublisher::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (cfg_.sndbuf_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.sndbuf_bytes,
                   sizeof(cfg_.sndbuf_bytes));
    std::lock_guard<std::mutex> lock(mu_);
    if (subs_.size() >= cfg_.max_conns) {
      close_fd(fd);
      ++stats_.subscribers_rejected;
      continue;
    }
    auto sub = std::make_unique<Sub>();
    sub->fd = fd;
    subs_[fd] = std::move(sub);
    // EPOLLIN so a peer close (recv == 0) is noticed even when we have
    // nothing queued to write.
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) {
                on_subscriber_event(fd, events);
              });
    ++stats_.subscribers_accepted;
    ++stats_.subscribers_open;
  }
}

void VerdictPublisher::on_subscriber_event(int fd, std::uint32_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = subs_.find(fd);
  if (it == subs_.end()) return;
  Sub& sub = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    sub.dead = true;
    reap_dead_locked();
    return;
  }
  if (events & EPOLLIN) {
    // Subscribers are write-only from our side; inbound bytes are
    // drained and ignored, and recv()==0 is the close signal.
    std::uint8_t scratch[1024];
    for (;;) {
      const ssize_t r = ::recv(fd, scratch, sizeof(scratch), 0);
      if (r > 0) continue;
      if (r == 0) {
        sub.dead = true;
        reap_dead_locked();
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      sub.dead = true;
      reap_dead_locked();
      return;
    }
  }
  if (events & EPOLLOUT) flush_sub_locked(sub);
  reap_dead_locked();
}

void VerdictPublisher::flush_sub_locked(Sub& sub) {
  while (sub.off < sub.buf.size()) {
    const ssize_t w = sys_send(sub.fd, sub.buf.data() + sub.off,
                               sub.buf.size() - sub.off, MSG_NOSIGNAL);
    if (w > 0) {
      sub.off += static_cast<std::size_t>(w);
      stats_.bytes_sent += static_cast<std::uint64_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ++stats_.partial_writes;
      if (!sub.want_write) {
        sub.want_write = true;
        loop_.modify(sub.fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    sub.dead = true;  // peer gone mid-write
    return;
  }
  sub.buf.clear();
  sub.off = 0;
  if (sub.want_write) {
    sub.want_write = false;
    loop_.modify(sub.fd, EPOLLIN);
  }
  flushed_cv_.notify_all();
}

void VerdictPublisher::reap_dead_locked() {
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (!it->second->dead) {
      ++it;
      continue;
    }
    loop_.remove(it->first);
    close_fd(it->first);
    it = subs_.erase(it);
    DEEPCSI_CHECK(stats_.subscribers_open > 0);
    --stats_.subscribers_open;
  }
  flushed_cv_.notify_all();  // dead subs no longer block a flush wait
}

void VerdictPublisher::tick() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fd, sub] : subs_) {
    if (sub->dead || sub->off >= sub->buf.size()) continue;
    flush_sub_locked(*sub);
  }
  reap_dead_locked();
}

}  // namespace deepcsi::net
